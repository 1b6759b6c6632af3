/**
 * @file
 * fault_storm: TempService::run(ScenarioRequest) replaying long seeded
 * timelines on the 4x8 paper wafer with the genetic engine. A timeline
 * mixes set_faults (seeded rates drawn from a small pool, so later
 * draws revisit earlier fault states after a clear_faults),
 * clear_faults, reoptimize, model_switch among three models and
 * wafer_join/wafer_leave. A closed loop of min(nproc, 4) clients, each
 * replaying timelines one after another on its own service, so healthy
 * re-solves hit that service's memo and every fault epoch builds its
 * degraded context afresh.
 *
 * It writes the caches zoo_cold fills: each fault epoch flushes the
 * schedule cache and the route pool, builds a degraded context and runs
 * warm-seeded re-solves that cap uniform seeding. A change that makes
 * route tables or caches costlier to rebuild shows here even when
 * zoo_cold gets faster.
 */
#include <atomic>
#include <mutex>
#include <random>
#include <string>

#include "api/service.hpp"
#include "bench.hpp"
#include "common/stats.hpp"
#include "model/model_zoo.hpp"

namespace perfbench {

namespace {

constexpr int kBlocks = 3;
constexpr int kDrawPool = 4;
/// Timelines plan_tokens_per_s is taken over. Fixed, so plan quality
/// does not depend on how many replays fit in the run; several, because
/// each timeline's seeded fault rates move its throughput.
constexpr long kQualityTimelines = 8;

const char *const kModels[] = {"Llama2 7B", "GPT-3 6.7B", "Llama3 70B"};

/// One client's replays, beside its ClientLog of events. The replay
/// counters feed only the traced run, which has one client.
struct StormLog : ClientLog
{
    long replays = 0;
    Samples exec_ms;
    long reused_frameworks = 0;
    long recovery_sims = 0;
    long degraded_resolves = 0;
    long contexts_reused = 0;
    long fallbacks = 0;
};

struct Draw
{
    double link_rate = 0.0;
    double core_rate = 0.0;
    std::uint64_t fault_seed = 1;
};

/**
 * One seeded timeline of kBlocks blocks. A block stacks three
 * set_faults draws from the timeline's draw pool with a model switch
 * after the first two and a pod join or leave in between, then a spot
 * re-optimisation and a clear_faults that repairs the wafer (at most
 * three storms accumulate, which keeps every fault state feasible).
 * Later blocks redraw from the same pool, so they revisit earlier
 * fault states. The seed draws the faults; the model rotation and the
 * pod changes are fixed, so every seed weighs the models alike.
 */
std::vector<temp::scenario::Event>
makeTimeline(std::mt19937_64 &rng)
{
    using Kind = temp::scenario::Event::Kind;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    Draw pool[kDrawPool];
    for (Draw &draw : pool) {
        draw.link_rate = 0.02 + 0.06 * unit(rng);
        draw.core_rate = 0.05 + 0.15 * unit(rng);
        draw.fault_seed = rng() % 1000 + 1;
    }
    std::vector<temp::scenario::Event> events;
    int model = 0;
    auto add = [&](Kind kind) -> temp::scenario::Event & {
        temp::scenario::Event &event = events.emplace_back();
        event.kind = kind;
        event.at_s = 10.0 * static_cast<double>(events.size());
        return event;
    };
    auto storm = [&] {
        const Draw &draw = pool[rng() % kDrawPool];
        temp::scenario::Event &event = add(Kind::SetFaults);
        event.link_fault_rate = draw.link_rate;
        event.core_fault_rate = draw.core_rate;
        event.fault_seed = draw.fault_seed;
    };
    auto switchModel = [&] {
        model = (model + 1) % 3;
        add(Kind::ModelSwitch).model =
            temp::model::modelByName(kModels[model]);
    };
    for (int block = 0; block < kBlocks; ++block) {
        storm();
        switchModel();
        storm();
        switchModel();
        add(block % 3 == 2 ? Kind::WaferLeave : Kind::WaferJoin);
        storm();
        add(Kind::Reoptimize);
        add(Kind::ClearFaults);
    }
    return events;
}

}  // namespace

void
runFaultStorm(const RunConfig &config, Result &result)
{
    // The seed draws the timelines; the solver seed is fixed, so every
    // seed starts from the same prepared service.
    const temp::core::FrameworkOptions options =
        solveOptions(kSetupSolverSeed, kSolveThreads);
    auto requestFor = [&](std::vector<temp::scenario::Event> events) {
        temp::api::ScenarioRequest request;
        request.model = temp::model::modelByName(kModels[0]);
        request.options = options;
        request.events = std::move(events);
        return request;
    };

    // Set-up: every client prepares its own service at once: a fresh
    // service plus the initial healthy solve of every model the
    // timelines switch between. The last set-up's services serve the
    // run. The traced run has one client: the tracer is
    // single-threaded.
    const int clients = config.trace ? 1 : config.threads;
    std::mutex check_mutex;
    auto prepared = [&] {
        auto service =
            std::make_unique<temp::api::TempService>(inlineService());
        for (const char *name : kModels) {
            temp::api::OptimizeRequest healthy;
            healthy.model = temp::model::modelByName(name);
            healthy.options = options;
            const bool feasible = service->run(healthy).solver.feasible;
            std::lock_guard<std::mutex> lock(check_mutex);
            result.check(feasible,
                         std::string("initial healthy solve infeasible: ") +
                             name);
        }
        return service;
    };
    std::vector<std::unique_ptr<temp::api::TempService>> services;
    auto prepare = [&](std::unique_ptr<temp::api::TempService> &service) {
        service = prepared();
    };
    Samples setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        services.clear();
        services.resize(static_cast<std::size_t>(clients));
        const double t0 = now();
        runClients(services, prepare);
        setup.add(now() - t0);
    }
    result.set("setup_s", setup.median(), "s", setup.size());

    // Timeline i is drawn from (seed, i) alone, so it does not depend on
    // which client replays it. Clients take timelines from a shared
    // counter until the deadline; the first kQualityTimelines always
    // run, and their replay digests and plans are the ones reported.
    auto timeline = [&](long i) {
        std::seed_seq seq{config.seed, static_cast<std::uint64_t>(i)};
        std::mt19937_64 rng(seq);
        return requestFor(makeTimeline(rng));
    };
    std::vector<std::uint64_t> quality_digests(kQualityTimelines);
    std::vector<std::vector<double>> quality_tokens(kQualityTimelines);
    std::vector<StormLog> logs(static_cast<std::size_t>(clients));
    std::atomic<long> next_timeline{0};
    const double t_start = now();
    auto client = [&](StormLog &log) {
        temp::api::TempService &service =
            *services[static_cast<std::size_t>(&log - logs.data())];
        for (long i = next_timeline++;
             i < kQualityTimelines || now() - t_start < config.seconds;
             i = next_timeline++) {
            const temp::api::Response response = service.run(timeline(i));
            ++log.replays;
            log.exec_ms.add(response.wall_time_s * 1e3);
            log.reused_frameworks += response.framework_reused ? 1 : 0;
            const temp::scenario::ScenarioReport &report = response.scenario;
            if (i < kQualityTimelines)
                quality_digests[static_cast<std::size_t>(i)] =
                    report.replay_digest;
            log.fallbacks += report.fallback_events;
            for (const temp::scenario::EventReport &event : report.events) {
                ++log.attempted;
                const bool failed =
                    !response.ok || event.degradation == "infeasible" ||
                    event.budget_exhausted || !(event.throughput_after > 0.0) ||
                    (event.resolved && event.fallback_to_last_feasible);
                if (failed) {
                    ++log.failed;
                    continue;
                }
                if (i < kQualityTimelines)
                    quality_tokens[static_cast<std::size_t>(i)].push_back(
                        event.throughput_after);
                if (!event.resolved)
                    continue;
                log.latency_ms.add(event.recovery_wall_s * 1e3);
                log.within_limit +=
                    event.recovery_wall_s * 1e3 <= config.limit_ms ? 1 : 0;
                log.recovery_sims += event.step_sims;
                if (event.degradation == "degraded") {
                    ++log.degraded_resolves;
                    log.contexts_reused += event.context_reused ? 1 : 0;
                }
            }
        }
    };
    runClients(logs, client);
    const double loop_s = now() - t_start;
    const ClientLog all = mergeLogs(logs, result);
    long replays = 0;
    for (const StormLog &log : logs)
        replays += log.replays;
    result.check(result.failed == 0,
                 std::to_string(result.failed) + " events failed");

    // Output check: the first timeline replayed untimed on a freshly
    // prepared service gives the identical replay digest.
    const temp::api::ScenarioRequest first = timeline(0);
    result.check(prepared()->run(first).scenario.replay_digest ==
                     quality_digests[0],
                 "replay digest differs on a fresh service");
    std::uint64_t digest = kFnvOffset;
    std::vector<double> tokens;
    for (long i = 0; i < kQualityTimelines; ++i) {
        const auto k = static_cast<std::size_t>(i);
        digest = fnv1a(digest, std::to_string(quality_digests[k]) + ";");
        tokens.insert(tokens.end(), quality_tokens[k].begin(),
                      quality_tokens[k].end());
    }
    result.plan_digest = digest;
    result.info["clients"] = std::to_string(clients);
    result.info["replays"] = std::to_string(replays);
    result.info["events_per_timeline"] = std::to_string(first.events.size());
    result.info["eval_threads"] = std::to_string(kSolveThreads);

    const Samples &latency_ms = all.latency_ms;
    const long n = static_cast<long>(latency_ms.size());
    if (!config.trace) {
        result.set("solves_per_s", ratio(n, loop_s), "1/s", n);
        result.set("goodput_rps", ratio(all.within_limit, loop_s), "1/s", n);
        result.set("latency_p50_ms", latency_ms.quantile(0.50), "ms", n);
        result.set("latency_p90_ms", latency_ms.quantile(0.90), "ms", n);
        result.set("latency_p99_ms", latency_ms.quantile(0.99), "ms", n);
        result.set("plan_tokens_per_s", temp::geomean(tokens),
                   "sim-tokens/s", static_cast<long>(tokens.size()),
                   "simulated");
        return;
    }

    // The traced run has one client, whose log holds every replay.
    const StormLog &traced = logs.front();
    result.set("scenario.recovery_step_sims",
               ratio(static_cast<double>(traced.recovery_sims), n), "count",
               n, "count");
    result.set("scenario.context_reuse_ratio",
               ratio(traced.contexts_reused, traced.degraded_resolves),
               "ratio", traced.degraded_resolves, "count");
    result.set("scenario.fallback_events",
               static_cast<double>(traced.fallbacks), "count", replays,
               "count");
    result.set("core.degraded_context_builds",
               ratio(static_cast<double>(traced.degraded_resolves -
                                         traced.contexts_reused),
                     replays),
               "count", replays, "count");
    result.set("api.exec_ms_p50", traced.exec_ms.median(), "ms", replays);
    result.set("api.exec_ms_p99", traced.exec_ms.quantile(0.99), "ms", replays);
    result.set("api.framework_hit_ratio",
               ratio(traced.reused_frameworks, replays), "ratio", replays,
               "count");
    std::vector<ProbedSolve> probed;
    for (const char *name : kModels)
        probed.push_back(probeColdSolve(temp::model::modelByName(name),
                                        temp::hw::WaferConfig::paperDefault(),
                                        options));
    reportProbedSolves(probed, config.threads, result);
    reportNoServeLayer(result);
}

}  // namespace perfbench
