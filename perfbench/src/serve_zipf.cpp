/**
 * @file
 * serve_zipf: an open loop of Poisson arrivals at a fixed offered rate
 * (below saturation) through a loopback serve::Server over four
 * framed-RPC connections. The mix is Zipf-skewed over a catalog of
 * Optimize, Strategy and Baseline requests on several zoo models and
 * five distinct framework option sets, one more than the service's
 * max_frameworks budget, so LRU eviction happens. A fixed share of
 * requests carries an unseen solver.seed, so cold solves keep arriving
 * for the whole run. Each request is timed from when it was due; the
 * generator's lateness is reported separately.
 *
 * Most of the time goes to serve/api, coalescing and memo hits; the
 * network layer does little. Thread budget: one dispatcher worker per
 * thread, each solving on kSolveThreads evaluation threads.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <string_view>
#include <thread>

#include "api/request_io.hpp"
#include "api/serialize.hpp"
#include "api/service.hpp"
#include "bench.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "model/graph.hpp"
#include "model/model_zoo.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using temp::common::JsonValue;

// Traffic shape. The kinds of request, a Zipf skew, a fresh share,
// more option sets than max_frameworks, at most four connections and
// an offered rate below saturation are what the workload is for; the
// values below are chosen, not measured traffic.
constexpr int kFrameworks = 5;     ///< distinct option sets in the catalog
constexpr int kHotFrameworks = 2;  ///< option sets at the head of the ranking
constexpr long kMaxFrameworks = 4; ///< the service's framework budget
constexpr double kAlpha = 1.2;     ///< Zipf skew
constexpr double kFreshShare = 0.025;
constexpr int kConnections = 4;
constexpr int kPayloadChecks = 12;

/**
 * Offered load of the open loop (requests per second): a fixed share of
 * the rate this workload is answered at when overloaded. That rate was
 * measured with perfbench/saturation.py (10 s per rate, 4-vCPU Xeon VM):
 * 388 req/s answered at 480 offered (seed 1), 423 at 960 (seed 2). At
 * 15% of it the generator stays on time and the percentiles measure the
 * service; at 30% the p90 triples, queued behind cold solves on the
 * four connections.
 */
constexpr double kSaturationRps = 400.0;
constexpr double kLoadShare = 0.15;
constexpr double kOfferedRps = kSaturationRps * kLoadShare;

struct Entry
{
    temp::api::Request request;
    std::string json;
    bool optimize = false;
};

temp::core::FrameworkOptions
catalogOptions(std::uint64_t solver_seed, int eval_threads)
{
    temp::core::FrameworkOptions options =
        solveOptions(solver_seed, eval_threads);
    options.cache.max_frameworks = kMaxFrameworks;
    return options;
}

Entry
makeEntry(temp::api::Request request)
{
    Entry entry;
    entry.optimize =
        std::holds_alternative<temp::api::OptimizeRequest>(request);
    entry.json = temp::api::toJson(request, "bench");
    entry.request = std::move(request);
    return entry;
}

/**
 * The catalog in Zipf rank order (rank 0 is the most requested). Two
 * hot option sets each serve, in rank groups of two: an Optimize
 * (about 55% of requests, a memo hit once warm), a Baseline of Llama2
 * 7B (about 18%, re-tuned on every request), a Strategy and an
 * Optimize of a larger model. Three tail option sets serve a Strategy
 * or a Baseline last. Five option sets against a budget of four
 * frameworks: the hot two stay resident, while the tail ones and the
 * fresh requests evict each other from the other two slots.
 *
 * The grouping keeps each reported percentile inside one cost class
 * rather than on a boundary between two: p50 among memo hits and
 * strategies, p90 among baselines, p99 among the fresh cold solves.
 */
std::vector<Entry>
buildCatalog(int eval_threads)
{
    const char *models[] = {"GPT-3 6.7B", "Llama2 7B", "Llama3 70B",
                            "GPT-3 76B"};
    temp::parallel::ParallelSpec tp8;
    tp8.dp = 4;
    tp8.tp = 8;
    std::vector<std::vector<Entry>> per_framework(kFrameworks);
    for (int f = 0; f < kFrameworks; ++f) {
        const temp::core::FrameworkOptions options =
            catalogOptions(kSetupSolverSeed * 100 +
                               static_cast<std::uint64_t>(f),
                           eval_threads);
        std::vector<Entry> &entries = per_framework[f];
        const bool hot = f < kHotFrameworks;
        temp::api::OptimizeRequest optimize;
        optimize.options = options;
        temp::api::BaselineRequest baseline;
        baseline.model = temp::model::modelByName(models[1]);
        baseline.options = options;
        baseline.kind = temp::baselines::BaselineKind::MegatronSP;
        temp::api::StrategyRequest strategy;
        strategy.model = temp::model::modelByName(models[f % 4]);
        strategy.options = options;
        strategy.spec = tp8;
        if (hot) {
            optimize.model = temp::model::modelByName(models[f % 4]);
            entries.push_back(makeEntry(optimize));
        }
        if (hot || f == kHotFrameworks + 1)
            entries.push_back(makeEntry(baseline));
        if (hot || f != kHotFrameworks + 1)
            entries.push_back(makeEntry(strategy));
        if (hot) {
            optimize.model = temp::model::modelByName(models[f + 2]);
            entries.push_back(makeEntry(optimize));
        }
    }
    std::vector<Entry> ranked;
    for (int lo : {0, kHotFrameworks}) {
        const int hi = lo == 0 ? kHotFrameworks : kFrameworks;
        for (std::size_t k = 0; k < per_framework[lo].size(); ++k)
            for (int f = lo; f < hi; ++f)
                ranked.push_back(per_framework[f][k]);
    }
    return ranked;
}

/// Fields that legitimately differ between a served response and an
/// in-process run of the same request: wall-clock timings and the
/// cache-provenance counters of the serving framework.
constexpr std::string_view kVolatileKeys[] = {
    "wall_time_s",         "queue_time_s",       "search_time_s",
    "framework_reused",    "tenant",             "coalesced",
    "coalesced_requests",  "evaluator",          "step_evaluator",
    "matrix_measurements", "cache_hits",         "step_sims",
    "step_cache_hits",     "schedule_lowerings", "schedule_cache_hits",
    "cache_evictions"};

/// Drops every kVolatileKeys member, recursively.
void
stripVolatile(JsonValue &value)
{
    std::erase_if(value.members, [](const auto &member) {
        return std::find(std::begin(kVolatileKeys), std::end(kVolatileKeys),
                         member.first) != std::end(kVolatileKeys);
    });
    for (auto &member : value.members)
        stripVolatile(member.second);
    for (JsonValue &item : value.items)
        stripVolatile(item);
}

std::string
canonical(const JsonValue &value)
{
    switch (value.type) {
    case JsonValue::Type::Null:
        return "null";
    case JsonValue::Type::Bool:
        return value.bool_value ? "true" : "false";
    case JsonValue::Type::Number:
        return value.text;
    case JsonValue::Type::String:
        return "\"" + value.text + "\"";
    case JsonValue::Type::Array: {
        std::string out = "[";
        for (const JsonValue &item : value.items)
            out += canonical(item) + ",";
        return out + "]";
    }
    case JsonValue::Type::Object: {
        std::string out = "{";
        for (const auto &[key, member] : value.members)
            out += key + ":" + canonical(member) + ",";
        return out + "}";
    }
    }
    return "";
}

bool
payloadOf(const std::string &json, std::string *out)
{
    JsonValue value;
    std::string error;
    if (!temp::common::parseJson(json, &value, &error))
        return false;
    stripVolatile(value);
    *out = canonical(value);
    return true;
}

bool
flag(const JsonValue &value, const char *key)
{
    const JsonValue *v = value.find(key);
    return v != nullptr && v->isBool() && v->bool_value;
}

double
number(const JsonValue &value, const char *key)
{
    const JsonValue *v = value.find(key);
    return v != nullptr && v->isNumber() ? v->number : 0.0;
}

/// One scheduled request of the open loop.
struct Arrival
{
    double due_s = 0.0;  ///< offset from the start of the run
    int entry = -1;      ///< catalog index, or -1 for a fresh request
    std::string json;
};

/// What one request produced, filled by the connection that sent it.
struct Outcome
{
    bool answered = false;
    double latency_ms = 0.0;  ///< from due time to response
    double rtt_ms = 0.0;      ///< from send to response
    double late_ms = 0.0;     ///< send time minus due time
    std::string response;
};

}  // namespace

void
runServeZipf(const RunConfig &config, Result &result)
{
    // One dispatcher worker per thread, each solving on kSolveThreads
    // evaluation threads.
    const int eval_threads = kSolveThreads;
    // The catalog is the same under every seed (its warm-up is set-up
    // work); the seed draws the arrivals and the fresh requests.
    const std::vector<Entry> catalog = buildCatalog(eval_threads);

    // Arrival schedule: Poisson at the offered rate, Zipf over the catalog,
    // a kFreshShare of fresh (unseen solver.seed) GPT-3 6.7B solves.
    std::mt19937_64 rng(config.seed);
    std::vector<double> cdf;
    double mass = 0.0;
    for (std::size_t r = 0; r < catalog.size(); ++r) {
        mass += 1.0 / std::pow(static_cast<double>(r + 1), kAlpha);
        cdf.push_back(mass);
    }
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const double offered_rps =
        config.offered_rps > 0.0 ? config.offered_rps : kOfferedRps;
    std::exponential_distribution<double> gap(offered_rps);
    std::vector<Arrival> arrivals;
    std::uint64_t fresh_seed = config.seed * 100 + 1000000;
    for (double t = gap(rng); t < config.seconds; t += gap(rng)) {
        Arrival arrival;
        arrival.due_s = t;
        if (unit(rng) < kFreshShare) {
            temp::api::OptimizeRequest fresh;
            fresh.model = temp::model::modelByName("GPT-3 6.7B");
            fresh.options = catalogOptions(++fresh_seed, eval_threads);
            arrival.json = temp::api::toJson(temp::api::Request(fresh), "bench");
        } else {
            const double u = unit(rng) * mass;
            arrival.entry = static_cast<int>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            arrival.entry = std::min<int>(arrival.entry,
                                          static_cast<int>(catalog.size()) - 1);
        }
        arrivals.push_back(std::move(arrival));
    }

    // Set-up, kSetupReps times: service + server start and a catalog warm-up
    // through the service; the last one serves the run.
    temp::api::ServiceOptions service_options = inlineService();
    service_options.cache.max_frameworks = kMaxFrameworks;
    temp::serve::ServerOptions server_options;
    server_options.dispatcher.workers = config.threads;
    std::unique_ptr<temp::api::TempService> service;
    std::unique_ptr<temp::serve::Server> server;
    Samples setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        server.reset();
        service.reset();
        const double t0 = now();
        service = std::make_unique<temp::api::TempService>(service_options);
        server = std::make_unique<temp::serve::Server>(*service,
                                                       server_options);
        std::string error;
        if (!server->start(&error)) {
            result.check(false, "server start: " + error);
            return;
        }
        for (const Entry &entry : catalog)
            result.check(service->run(entry.request).ok,
                         "catalog warm-up request failed");
        setup.add(now() - t0);
    }
    result.set("setup_s", setup.median(), "s", setup.size());

    // The open loop: each connection claims the next arrival, sleeps
    // until it is due, sends it and waits for the answer.
    std::vector<Outcome> outcomes(arrivals.size());
    std::atomic<std::size_t> next{0};
    std::atomic<long> transport_failures{0};
    const double t_start = now() + 0.05;
    auto connection = [&] {
        temp::serve::Client client;
        std::string error;
        if (!client.connect("127.0.0.1", server->port(), &error)) {
            transport_failures.fetch_add(1);
            return;
        }
        for (std::size_t i = next.fetch_add(1); i < arrivals.size();
             i = next.fetch_add(1)) {
            const Arrival &arrival = arrivals[i];
            const double due = t_start + arrival.due_s;
            const double wait = due - now();
            if (wait > 0)
                std::this_thread::sleep_for(std::chrono::duration<double>(wait));
            const double sent = now();
            Outcome &out = outcomes[i];
            const std::string &json =
                arrival.entry >= 0
                    ? catalog[static_cast<std::size_t>(arrival.entry)].json
                    : arrival.json;
            if (!client.callRaw(json, &out.response, &error)) {
                transport_failures.fetch_add(1);
                client.close();
                if (!client.connect("127.0.0.1", server->port(), &error))
                    return;
                continue;
            }
            const double done = now();
            out.answered = true;
            out.latency_ms = (done - due) * 1e3;
            out.rtt_ms = (done - sent) * 1e3;
            out.late_ms = (sent - due) * 1e3;
        }
    };
    std::vector<std::thread> connections;
    for (int c = 0; c < kConnections; ++c)
        connections.emplace_back(connection);
    for (std::thread &thread : connections)
        thread.join();
    const double loop_s = now() - t_start;
    server->stop();
    const temp::serve::DispatchStats stats = server->stats();

    // Tally: every answered response is parsed; failures are errors,
    // shed/deadline responses, transport failures and infeasible plans.
    Samples latency_ms, late_ms, queue_ms, exec_ms, warm_ms;
    std::vector<double> tokens;
    long within_limit = 0, reused = 0, executed_here = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        Outcome &out = outcomes[i];
        ++result.attempted;
        JsonValue response;
        std::string error;
        if (!out.answered ||
            !temp::common::parseJson(out.response, &response, &error)) {
            ++result.failed;
            continue;
        }
        // Every kind answers with a simulated report: Optimize and
        // Baseline under result.report, Strategy as the result itself.
        // It must be feasible, fit in memory and have a throughput; an
        // Optimize plan must also be feasible and within budget, and a
        // Baseline must have found a configuration that fits.
        const JsonValue *payload = response.find("result");
        const JsonValue *report =
            payload != nullptr && payload->find("report") != nullptr
                ? payload->find("report")
                : payload;
        const bool optimize =
            arrivals[i].entry < 0 ||
            catalog[static_cast<std::size_t>(arrivals[i].entry)].optimize;
        const bool feasible =
            report != nullptr && flag(*report, "feasible") &&
            !flag(*report, "oom") &&
            number(*report, "throughput_tokens_per_s") > 0.0 &&
            !flag(*payload, "all_oom") &&
            (!optimize || (flag(*payload, "feasible") &&
                           !flag(response, "budget_exhausted")));
        if (!flag(response, "ok") || flag(response, "shed") ||
            flag(response, "deadline_exceeded") || !feasible) {
            ++result.failed;
            continue;
        }
        late_ms.add(out.late_ms);
        latency_ms.add(out.latency_ms);
        within_limit += out.latency_ms <= config.limit_ms ? 1 : 0;
        if (!flag(response, "coalesced")) {
            const bool framework_reused = flag(response, "framework_reused");
            const double exec = number(response, "wall_time_s") * 1e3;
            ++executed_here;
            reused += framework_reused ? 1 : 0;
            exec_ms.add(exec);
            queue_ms.add(out.rtt_ms - exec);
            if (framework_reused && optimize)
                warm_ms.add(exec);
        }
        tokens.push_back(number(*report, "throughput_tokens_per_s"));
    }
    result.failed += transport_failures.load();
    result.check(result.failed == 0,
                 std::to_string(result.failed) + " requests failed");

    // Output checks: every optimize plan has one spec per op, and a
    // sample of payloads equals an in-process run with timings stripped.
    temp::api::TempService reference(service_options);
    std::uint64_t digest = kFnvOffset;
    int compared = 0;
    std::vector<bool> seen(catalog.size(), false);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Outcome &out = outcomes[i];
        const int e = arrivals[i].entry;
        if (!out.answered || (e >= 0 && seen[static_cast<std::size_t>(e)]))
            continue;
        temp::api::ParsedRequest parsed;
        std::string error;
        const std::string &json =
            e >= 0 ? catalog[static_cast<std::size_t>(e)].json
                   : arrivals[i].json;
        if (!temp::api::parseRequest(json, &parsed, &error)) {
            result.check(false, "request does not parse: " + error);
            continue;
        }
        if (e >= 0)
            seen[static_cast<std::size_t>(e)] = true;
        if (const auto *opt =
                std::get_if<temp::api::OptimizeRequest>(&parsed.request)) {
            JsonValue response;
            temp::common::parseJson(out.response, &response, &error);
            const JsonValue *solver = response.find("result");
            const JsonValue *specs =
                solver != nullptr ? solver->find("per_op_specs") : nullptr;
            const int ops =
                temp::model::ComputeGraph::transformer(opt->model).opCount();
            result.check(specs != nullptr &&
                             static_cast<int>(specs->items.size()) == ops,
                         "optimize plan without one spec per op");
            const JsonValue *step =
                solver != nullptr ? solver->find("step_time_s") : nullptr;
            if (e >= 0 && specs != nullptr && step != nullptr)
                digest = fnv1a(digest, canonical(*specs) + canonical(*step));
        }
        if (compared >= kPayloadChecks)
            continue;
        ++compared;
        std::string served, local;
        const std::string in_process =
            temp::api::toJson(reference.run(parsed.request));
        result.check(payloadOf(out.response, &served) &&
                         payloadOf(in_process, &local) && served == local,
                     "served payload differs from in-process run");
    }
    result.plan_digest = digest;

    const long n = static_cast<long>(latency_ms.size());
    result.info["offered_rps"] = std::to_string(offered_rps);
    result.info["answered_rps"] = std::to_string(ratio(n, loop_s));
    result.info["requests"] = std::to_string(arrivals.size());
    result.info["catalog"] = std::to_string(catalog.size());
    result.info["payloads_compared"] = std::to_string(compared);
    result.info["generator_late_ms_p50"] = std::to_string(late_ms.median());
    result.info["generator_late_ms_p99"] = std::to_string(late_ms.quantile(0.99));
    result.info["dispatcher"] =
        "accepted=" + std::to_string(stats.accepted) +
        " coalesced=" + std::to_string(stats.coalesced) +
        " executed=" + std::to_string(stats.executed) +
        " shed=" + std::to_string(stats.shed);

    if (!config.trace) {
        result.set("solves_per_s", ratio(stats.executed, loop_s), "1/s",
                   stats.executed);
        result.set("goodput_rps", ratio(within_limit, loop_s), "1/s", n);
        result.set("latency_p50_ms", latency_ms.quantile(0.50), "ms", n);
        result.set("latency_p90_ms", latency_ms.quantile(0.90), "ms", n);
        result.set("latency_p99_ms", latency_ms.quantile(0.99), "ms", n);
        result.set("plan_tokens_per_s", temp::geomean(tokens),
                   "sim-tokens/s", static_cast<long>(tokens.size()),
                   "simulated");
        return;
    }

    const long q = static_cast<long>(queue_ms.size());
    result.set("serve.queue_wait_ms_p50", queue_ms.median(), "ms", q);
    result.set("serve.queue_wait_ms_p99", queue_ms.quantile(0.99), "ms", q);
    result.set("serve.coalesce_ratio", ratio(stats.coalesced, stats.accepted),
               "ratio", stats.accepted, "count");
    result.set("serve.executed", static_cast<double>(stats.executed), "count",
               1, "count");
    result.set("serve.shed", static_cast<double>(stats.shed), "count", 1,
               "count");
    result.set("api.exec_ms_p50", exec_ms.median(), "ms", q);
    result.set("api.exec_ms_p99", exec_ms.quantile(0.99), "ms", q);
    result.set("api.framework_hit_ratio", ratio(reused, executed_here),
               "ratio", executed_here, "count");
    std::vector<ProbedSolve> probed;
    for (const char *name : {"GPT-3 6.7B", "Llama3 70B"})
        probed.push_back(probeColdSolve(temp::model::modelByName(name),
                                        temp::hw::WaferConfig::paperDefault(),
                                        catalogOptions(kSetupSolverSeed * 100,
                                                       eval_threads)));
    reportProbedSolves(probed, config.threads, result);
    // This workload's own framework-reusing optimize requests replace
    // the probes' single warm repeat.
    result.set("api.warm_exec_ms_p50", warm_ms.median(), "ms",
               static_cast<long>(warm_ms.size()));
    reportNoScenarioLayer(result);
}

}  // namespace perfbench
