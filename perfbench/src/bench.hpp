/**
 * @file
 * Shared pieces of the repository benchmark binary: the run
 * configuration, the result a workload fills in, sample statistics, the
 * in-memory span tracer and the output checks' plan digest.
 *
 * Clocks: every latency and duration here is host wall time
 * (std::chrono::steady_clock). Simulated quantities (step time,
 * tokens/s of a plan) come from the cost model and are labelled
 * "simulated" in the result.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"

namespace perfbench {

/// Host wall-clock seconds on a monotonic clock.
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Command-line configuration of one run.
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Latency limit of goodput_rps (from BENCHMARK.json).
    double limit_ms = 1000.0;
    /// Where the traced run writes its spans ("" = nowhere).
    std::string trace_path;
    /// Worker threads the run may keep busy (nproc, capped).
    int threads = 4;
    /// serve_zipf offered load in requests/s; 0 = the workload's own
    /// rate (set only by perfbench/saturation.py's sweep).
    double offered_rps = 0.0;
};

/// Latency/duration samples with the summary statistics reported.
struct Samples
{
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    std::size_t size() const { return values.size(); }
    /// Linear-interpolated quantile (q in [0, 1]); 0 when empty.
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
};

/// One reported metric.
struct Metric
{
    double value = 0.0;
    std::string unit;
    long samples = 0;
    /// "host" (wall time on this machine), "simulated" (cost-model
    /// output) or "count".
    std::string clock = "host";
};

/// What a workload run produces.
struct Result
{
    std::map<std::string, Metric> metrics;
    long attempted = 0;
    long failed = 0;
    /// Output-check failures; any entry makes the run incorrect.
    std::vector<std::string> check_failures;
    /// FNV-1a over the run's plans (reported, not gated).
    std::uint64_t plan_digest = 0;
    /// Free-form facts printed with the result (sizes, rates).
    std::map<std::string, std::string> info;

    void set(const std::string &name, double value, const std::string &unit,
             long samples, const std::string &clock = "host")
    {
        metrics[name] = Metric{value, unit, samples, clock};
    }
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            check_failures.push_back(what);
    }
};

/**
 * In-memory span recorder for the traced run. Spans are recorded only
 * around calls the benchmark itself makes into a module's public
 * functions; nothing inside the program is instrumented. The spans are
 * the traced run's only clock: every per-layer duration is read back
 * from a closed span, and the same records are written to the trace
 * file. Disabled, a Span costs one branch and reads as 0 s. Not
 * thread-safe: spans are opened from the benchmark's driving thread
 * only.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string name;  ///< "<module>.<phase>"
        long id = 0;
        long parent = 0;   ///< 0 = root
        long request = 0;  ///< spans of one request share this
        double start_s = 0.0;
        double end_s = 0.0;
    };

    static Tracer &instance();

    bool enabled() const { return enabled_; }
    void enable(bool on) { enabled_ = on; }
    void setRequest(long request) { request_ = request; }

    long open(const char *name);
    /// Closes span @p id and returns its duration in seconds.
    double close(long id);

    /// Writes every span as JSON lines (one object per span).
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    long request_ = 0;
    std::vector<Record> records_;
    std::vector<long> stack_;
};

/// RAII span: opens on construction, closes on close() or destruction.
class Span
{
  public:
    explicit Span(const char *name)
        : id_(Tracer::instance().enabled() ? Tracer::instance().open(name)
                                           : 0)
    {
    }
    ~Span() { close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /// Closes the span (once) and returns its recorded duration in
    /// seconds; 0 when tracing is off or the span is already closed.
    double close()
    {
        const long id = id_;
        id_ = 0;
        return id != 0 ? Tracer::instance().close(id) : 0.0;
    }

  private:
    long id_;
};

/// FNV-1a fold of a byte string.
std::uint64_t fnv1a(std::uint64_t hash, const std::string &bytes);

/// FNV-1a fold of a plan (per-op spec strings, then the step-time bits).
std::uint64_t foldPlan(std::uint64_t hash,
                       const std::vector<temp::parallel::ParallelSpec> &specs,
                       double step_time_s);

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// Peak resident set (VmHWM) in MiB; 0 when unavailable.
double peakRssMb();

/// What one closed-loop client of a workload records; the run merges
/// its clients' logs after they have all stopped.
struct ClientLog
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;
    Samples latency_ms;
    /// Answers within the run's latency limit.
    long within_limit = 0;

    void fail(const std::string &what)
    {
        ++failed;
        failures.push_back(what);
    }
    /// Adds @p log's counts and samples to this one.
    void add(const ClientLog &log);
};

/**
 * Runs @p client once per element of @p states, each on its own thread
 * (inline when there is one), and returns when every client has
 * stopped. Clients share nothing but what @p client captures.
 */
template <class State, class Client>
void
runClients(std::vector<State> &states, Client &client)
{
    if (states.size() == 1) {
        client(states.front());
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(states.size());
    for (State &state : states)
        threads.emplace_back([&client, &state] { client(state); });
    for (std::thread &thread : threads)
        thread.join();
}

/// The clients' logs summed; their attempts, failures and failure
/// messages go into @p result.
template <class Log>
ClientLog
mergeLogs(const std::vector<Log> &logs, Result &result)
{
    ClientLog all;
    for (const Log &log : logs)
        all.add(log);
    result.attempted += all.attempted;
    result.failed += all.failed;
    for (const std::string &failure : all.failures)
        result.check(false, failure);
    return all;
}

/// Fraction num/den, 0 when den is 0.
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Evaluation threads of every solve the workloads run. One: on the
 * zoo, more threads barely speed a solve up (eval.fill_scaling in the
 * traced run reports the parallel gain), and a solve whose batches wait
 * on several vCPUs slows with each one a shared host takes away.
 */
inline constexpr int kSolveThreads = 1;

/**
 * solver.seed of the solves set-up runs (zoo_cold's warm-up, the
 * serve_zipf catalog, fault_storm's prepared service). Fixed, so setup_s
 * measures the same work under every benchmark seed; the seed drives the
 * timed part of each workload.
 */
inline constexpr std::uint64_t kSetupSolverSeed = 1;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// The default options a workload solves with: the genetic engine and
/// @p eval_threads evaluation threads, everything else at its default.
temp::core::FrameworkOptions solveOptions(std::uint64_t solver_seed,
                                          int eval_threads);

/// Service options for synchronous run() use: no idle request pool.
temp::api::ServiceOptions inlineService();

/// @{ Per-layer metrics of a layer the workload does not exercise:
/// reported as 0 with no samples.
void reportNoServeLayer(Result &result);
void reportNoScenarioLayer(Result &result);
/// @}

/// @{ Workloads. Each fills @p result; the traced variants also fill
/// the per-layer metrics.
void runZooCold(const RunConfig &config, Result &result);
void runServeZipf(const RunConfig &config, Result &result);
void runFaultStorm(const RunConfig &config, Result &result);
/// @}

/// Per-layer metrics of one cold solve, measured by calling each
/// layer's public functions directly (see layer_probe.cpp).
struct LayerProbe
{
    double framework_build_ms = 0.0;
    double strategy_space_ms = 0.0;
    double matrix_fill_ms = 0.0;
    long matrix_measurements = 0;
    long matrix_queries = 0;
    double uniform_seed_ms = 0.0;
    long uniform_step_sims = 0;
    long uniform_step_queries = 0;
    double dp_refine_ms = 0.0;
    long refine_step_sims = 0;
    long refine_step_queries = 0;
    long quanta_used = 0;
    long schedule_lowerings = 0;
    long schedule_hits = 0;
    /// Wall of the whole decomposed solve, framework build included.
    double traced_total_ms = 0.0;
    /// A warm repeat of the request through TempService::run.
    double warm_exec_ms = 0.0;
    double step_time_s = 0.0;
    std::vector<temp::parallel::ParallelSpec> plan;
    /// Per-call timings (microseconds unless named _ns/_ms).
    Samples simulate_ms;
    Samples op_cost_us;
    Samples layout_build_us;
    Samples schedule_lower_us;
    Samples route_lookup_ns;
    Samples route_lookup_cold_ns;
    long route_pool_hits = 0;
    long route_pool_misses = 0;
    Samples contention_us;
    Samples chain_order_us;
    Samples tcme_optimize_us;
};

/// Runs the decomposed cold solve of (@p model, @p wafer, @p options)
/// on a fresh service, then the per-call layer replays over what it
/// produced. Every duration is read from the Tracer's spans, so the
/// Tracer must be enabled.
LayerProbe probeSolve(const temp::model::ModelConfig &model,
                      const temp::hw::WaferConfig &wafer,
                      const temp::core::FrameworkOptions &options);

/// A probed input: its untraced cold solve next to the traced probe.
struct ProbedSolve
{
    std::string label;
    temp::model::ModelConfig model;
    temp::hw::WaferConfig wafer;
    double cold_ms = 0.0;  ///< untraced TempService::run on a fresh service
    temp::solver::SolverResult cold;
    LayerProbe probe;
};

/// Times an untraced cold solve on a fresh service, then probes it.
ProbedSolve probeColdSolve(const temp::model::ModelConfig &model,
                           const temp::hw::WaferConfig &wafer,
                           const temp::core::FrameworkOptions &options);

/**
 * Adds every solve-stack per-layer metric (core, solver, eval, sim,
 * cost, parallel, net, tatp, tcme, api.warm_exec_ms_p50) plus
 * trace.uncovered_share and trace.overhead_share, and checks that each
 * decomposed solve returned its cold solve's plan. eval.fill_scaling is
 * measured on the first input at 1 and @p threads threads.
 */
void reportProbedSolves(const std::vector<ProbedSolve> &solves, int threads,
                        Result &result);

}  // namespace perfbench
