/**
 * @file
 * zoo_cold: a closed loop of min(nproc, 4) clients, each running cold
 * OptimizeRequests through TempService::run one after another, each on
 * a fresh service so no memo is shared. Inputs: every zoo model on the
 * 4x8 paper wafer plus GPT-3 76B and Llama3 405B on an 8x8 wafer (the
 * paper's search-time setting and a larger route/candidate working
 * set). The seed picks each pass's solver.seed and solve order.
 *
 * Nearly all of the time is in solver/eval/sim/cost/net/tatp/tcme; the
 * api layer does one framework lookup per request.
 */
#include <algorithm>
#include <atomic>
#include <random>
#include <string>

#include "api/service.hpp"
#include "bench.hpp"
#include "common/stats.hpp"
#include "model/graph.hpp"
#include "model/model_zoo.hpp"

namespace perfbench {

namespace {

struct ZooInput
{
    temp::model::ModelConfig model;
    temp::hw::WaferConfig wafer;
    std::string label;
    /// The model does not fit the wafer's HBM with any plan the solver
    /// finds: its answer is a plan flagged OOM.
    bool oom_expected = false;
};

/**
 * The zoo models too large for the 4x8 wafer's HBM (144 GB per die):
 * the solver answers them with an OOM-flagged plan (Llama3 405B peaks
 * at 852 GiB per die, GPT-3 504B at 685, Grok-1 341B at 348;
 * `temp_cli optimize` reports the same). Every other input must fit.
 */
constexpr const char *kTooLargeFor4x8[] = {"Llama3 405B", "Grok-1 341B",
                                           "GPT-3 504B"};

std::vector<ZooInput>
zooInputs()
{
    std::vector<ZooInput> inputs;
    const temp::hw::WaferConfig paper = temp::hw::WaferConfig::paperDefault();
    for (const temp::model::ModelConfig &m : temp::model::allModels())
        inputs.push_back({m, paper, m.name + " @4x8",
                          std::find(std::begin(kTooLargeFor4x8),
                                    std::end(kTooLargeFor4x8),
                                    m.name) != std::end(kTooLargeFor4x8)});
    const temp::hw::WaferConfig big = paper.withGrid(8, 8);
    for (const char *name : {"GPT-3 76B", "Llama3 405B"})
        inputs.push_back({temp::model::modelByName(name), big,
                          std::string(name) + " @8x8", false});
    return inputs;
}

struct ZooLog : ClientLog
{
    long oom_answers = 0;
};

/// One cold solve on a fresh service.
temp::api::Response
coldSolve(const temp::api::OptimizeRequest &request)
{
    temp::api::TempService service(inlineService());
    return service.run(request);
}

}  // namespace

void
runZooCold(const RunConfig &config, Result &result)
{
    const std::vector<ZooInput> inputs = zooInputs();
    // Every pass solves with its own solver.seed, so a run averages
    // over several genetic-search paths instead of riding on one.
    auto optionsFor = [&](int pass) {
        return solveOptions(config.seed * 1000 + static_cast<std::uint64_t>(pass),
                            kSolveThreads);
    };
    auto requestFor = [&](const ZooInput &input, int pass) {
        temp::api::OptimizeRequest request;
        request.model = input.model;
        request.wafer = input.wafer;
        request.options = optionsFor(pass);
        return request;
    };
    // Each pass's solve order, drawn from (seed, pass) alone so it does
    // not depend on which client runs the pass.
    auto orderFor = [&](int pass) {
        std::vector<std::size_t> order(inputs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::seed_seq seq{config.seed, static_cast<std::uint64_t>(pass)};
        std::mt19937_64 rng(seq);
        std::shuffle(order.begin(), order.end(), rng);
        return order;
    };

    // The traced run has one client: the tracer is single-threaded.
    const int clients = config.trace ? 1 : config.threads;

    // Set-up: every client warms up with one untimed cold solve on a
    // fresh service (pages in code and allocator arenas), all at once.
    temp::api::OptimizeRequest warmup = requestFor(inputs.front(), 0);
    warmup.options = solveOptions(kSetupSolverSeed, kSolveThreads);
    Samples setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::vector<ZooLog> warm(static_cast<std::size_t>(clients));
        auto warmClient = [&](ZooLog &) { coldSolve(warmup); };
        const double t0 = now();
        runClients(warm, warmClient);
        setup.add(now() - t0);
    }
    result.set("setup_s", setup.median(), "s", setup.size());

    // Clients take passes from a shared counter and stop at the
    // deadline, checked before each solve; pass 0 always runs to the
    // end. Its plans are the reference the output checks replay and the
    // plans plan_tokens_per_s rates: a fixed set, so plan quality
    // depends on the seed and the code, not on how many passes fit in
    // the run.
    std::vector<temp::solver::SolverResult> reference(inputs.size());
    std::vector<ZooLog> logs(static_cast<std::size_t>(clients));
    std::vector<ProbedSolve> probed;
    std::atomic<int> next_pass{0};
    const double t_start = now();
    auto client = [&](ZooLog &log) {
        for (int pass = next_pass++;
             pass == 0 || now() - t_start < config.seconds;
             pass = next_pass++) {
            for (std::size_t idx : orderFor(pass)) {
                if (pass != 0 && now() - t_start >= config.seconds)
                    break;
                const ZooInput &input = inputs[idx];
                const double t0 = now();
                const temp::api::Response response =
                    coldSolve(requestFor(input, pass));
                const double wall_s = now() - t0;
                ++log.attempted;
                const temp::solver::SolverResult &solve = response.solver;
                const int ops = temp::model::ComputeGraph::transformer(
                                    input.model)
                                    .opCount();
                const bool ok =
                    response.ok && solve.feasible &&
                    (!solve.report.oom || input.oom_expected) &&
                    !solve.budget_exhausted &&
                    solve.report.throughput_tokens_per_s > 0.0 &&
                    static_cast<int>(solve.per_op_specs.size()) == ops;
                if (!ok) {
                    log.fail("infeasible, OOM or failed solve: " +
                             input.label);
                    continue;
                }
                log.oom_answers += solve.report.oom ? 1 : 0;
                log.latency_ms.add(wall_s * 1e3);
                log.within_limit += wall_s * 1e3 <= config.limit_ms ? 1 : 0;
                if (pass == 0)
                    reference[idx] = solve;
                if (config.trace) {
                    ProbedSolve p;
                    p.label = input.label;
                    p.model = input.model;
                    p.wafer = input.wafer;
                    p.cold_ms = wall_s * 1e3;
                    p.cold = solve;
                    p.probe = probeSolve(input.model, input.wafer,
                                         optionsFor(pass));
                    probed.push_back(std::move(p));
                }
            }
        }
    };
    runClients(logs, client);
    const double loop_s = now() - t_start;
    const ClientLog all = mergeLogs(logs, result);
    long oom_answers = 0;
    for (const ZooLog &log : logs)
        oom_answers += log.oom_answers;

    // Output checks on pass 0: every plan re-simulated on a fresh
    // framework gives a bit-identical step time, and the first three
    // inputs of its order, solved cold again, give bit-identical plans.
    std::uint64_t digest = kFnvOffset;
    std::vector<double> tokens;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const temp::solver::SolverResult &solve = reference[i];
        if (solve.per_op_specs.empty())
            continue;
        digest = foldPlan(digest, solve.per_op_specs, solve.step_time_s);
        tokens.push_back(solve.report.throughput_tokens_per_s);
        temp::api::TempService fresh(inlineService());
        auto fw = fresh.framework(inputs[i].wafer, optionsFor(0));
        const temp::sim::PerfReport replay = fw->simulator().simulate(
            temp::model::ComputeGraph::transformer(inputs[i].model),
            solve.per_op_specs);
        result.check(replay.step_time == solve.step_time_s,
                     "re-simulated step time differs: " + inputs[i].label);
    }
    const std::vector<std::size_t> first_order = orderFor(0);
    for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t idx = first_order[k];
        if (reference[idx].per_op_specs.empty())
            continue;
        const temp::solver::SolverResult again =
            coldSolve(requestFor(inputs[idx], 0)).solver;
        result.check(again.per_op_specs == reference[idx].per_op_specs &&
                         again.step_time_s == reference[idx].step_time_s,
                     "repeat cold solve changed its plan: " +
                         inputs[idx].label);
    }
    result.plan_digest = digest;
    result.info["inputs"] = std::to_string(inputs.size());
    result.info["clients"] = std::to_string(clients);
    result.info["passes_started"] = std::to_string(next_pass.load() - clients);
    result.info["oom_answers"] = std::to_string(oom_answers);
    result.info["eval_threads"] = std::to_string(kSolveThreads);

    const Samples &latency_ms = all.latency_ms;
    const long solved = static_cast<long>(latency_ms.size());
    if (!config.trace) {
        result.set("solves_per_s", ratio(solved, loop_s), "1/s", solved);
        result.set("goodput_rps", ratio(all.within_limit, loop_s), "1/s",
                   solved);
        result.set("latency_p50_ms", latency_ms.quantile(0.50), "ms", solved);
        result.set("latency_p90_ms", latency_ms.quantile(0.90), "ms", solved);
        result.set("latency_p99_ms", latency_ms.quantile(0.99), "ms", solved);
        result.set("plan_tokens_per_s", temp::geomean(tokens),
                   "sim-tokens/s", static_cast<long>(tokens.size()),
                   "simulated");
        return;
    }

    // Traced run: the solve-stack layers from the probes. The api
    // layer's execution time is the cold solve itself; no framework is
    // ever reused and nothing passes through serve or scenario.
    reportProbedSolves(probed, config.threads, result);
    result.set("api.exec_ms_p50", latency_ms.quantile(0.50), "ms", solved);
    result.set("api.exec_ms_p99", latency_ms.quantile(0.99), "ms", solved);
    result.set("api.framework_hit_ratio", 0.0, "ratio", solved, "count");
    reportNoServeLayer(result);
    reportNoScenarioLayer(result);
}

}  // namespace perfbench
