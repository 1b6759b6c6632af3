/**
 * @file
 * The traced run's view of one cold solve, layer by layer. Every span
 * wraps a call the benchmark makes into a module's public functions;
 * nothing inside the program is instrumented. Under one
 * probe.cold_solve span:
 *
 *  - core.framework_build   TempService::framework (fresh service)
 *  - solver.strategy_space  solver::enumerateStrategies
 *  - eval.matrix_fill       CostEvaluator::evaluateBatch, full matrix
 *  - eval.uniform_seed      StepEvaluator::evaluateBatch, uniform plans
 *  - solver.dp_refine       TempFramework::optimize on the warm memos
 *
 * The three phase calls cost what the untimed cold solve costs and
 * return its plan (reportProbedSolves checks the plan and reports the
 * gap as trace.uncovered_share). Then, under probe.layer_replays, the
 * lower layers are replayed call by call over what the solve produced:
 * TrainingSimulator::simulate over its plans, WaferCostModel::opCost
 * and buildLayout over its matrix cells, CollectiveScheduler::schedule,
 * TrafficOptimizer::optimize and ContentionModel::evaluateSequence over
 * its lowered schedules, ChainMapper::orderAsChain over its candidates'
 * TATP groups and Router::safeRouteRef sweeps over the wafer.
 *
 * Every duration reported here is read back from its span (Span::close),
 * so the per-layer metrics and the trace file come from one clock.
 */
#include <algorithm>
#include <memory>

#include "api/service.hpp"
#include "bench.hpp"
#include "model/graph.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"
#include "solver/strategy_space.hpp"
#include "tatp/chain_mapper.hpp"
#include "tcme/optimizer.hpp"

namespace perfbench {

namespace {

using temp::parallel::ParallelSpec;

/// Caps a per-call replay so a traced run stays within its time.
constexpr std::size_t kMaxCalls = 400;

/// Every k-th index of [0, n) so at most kMaxCalls are visited.
std::size_t
strideFor(std::size_t n)
{
    return std::max<std::size_t>(1, (n + kMaxCalls - 1) / kMaxCalls);
}

/// Route-pool sweeps over every (src, dst) pair of a standalone router:
/// warm lookups, then the first sweep after a fault-revision change.
void
sweepRoutes(const temp::hw::WaferConfig &wafer_config, LayerProbe &probe)
{
    const temp::hw::Wafer wafer(wafer_config);
    const temp::hw::MeshTopology &mesh = wafer.topology();
    temp::hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    const temp::net::Router router(mesh, &faults);
    const int dies = mesh.dieCount();
    const double pairs = static_cast<double>(dies) * dies;
    auto sweep = [&] {
        long hops = 0;
        Span span("net.route_sweep");
        for (int s = 0; s < dies; ++s)
            for (int d = 0; d < dies; ++d)
                hops += router.safeRouteRef(s, d).hops();
        const double ns = span.close() * 1e9 / pairs;
        return hops >= 0 ? ns : 0.0;
    };
    sweep();  // fill the pool
    for (int rep = 0; rep < 5; ++rep)
        probe.route_lookup_ns.add(sweep());
    for (int rep = 0; rep < 3; ++rep) {
        // Toggling a link bumps the fault revision, which invalidates
        // the pool; the next sweep refills it.
        faults.failLink(rep % mesh.linkCount());
        probe.route_lookup_cold_ns.add(sweep());
        faults.restoreLink(rep % mesh.linkCount());
        sweep();
    }
}

}  // namespace

LayerProbe
probeSolve(const temp::model::ModelConfig &model,
           const temp::hw::WaferConfig &wafer,
           const temp::core::FrameworkOptions &options)
{
    static long next_request = 0;
    Tracer::instance().setRequest(++next_request);
    LayerProbe probe;
    temp::api::TempService service(inlineService());
    Span solve_span("probe.cold_solve");

    std::shared_ptr<temp::core::TempFramework> fw;
    {
        Span span("core.framework_build");
        fw = service.framework(wafer, options);
        probe.framework_build_ms = span.close() * 1e3;
    }
    const temp::model::ComputeGraph graph =
        temp::model::ComputeGraph::transformer(model);
    std::vector<ParallelSpec> candidates;
    {
        Span span("solver.strategy_space");
        candidates = temp::solver::enumerateStrategies(
            fw->wafer().usableDieCount(), graph.config(),
            options.solver.space);
        probe.strategy_space_ms = span.close() * 1e3;
    }

    temp::eval::CostEvaluator &evaluator = fw->evaluator();
    temp::eval::StepEvaluator &steps = fw->stepEvaluator();
    const temp::eval::EvalStats eval_before = evaluator.stats();
    std::vector<temp::eval::EvalRequest> cells;
    for (int i = 0; i < graph.opCount(); ++i)
        for (const ParallelSpec &spec : candidates)
            cells.push_back({i, spec, true});
    {
        Span span("eval.matrix_fill");
        evaluator.evaluateBatch(graph, cells);
        probe.matrix_fill_ms = span.close() * 1e3;
    }
    const temp::eval::EvalStats fill = evaluator.stats() - eval_before;
    probe.matrix_measurements = fill.measurements;
    probe.matrix_queries = fill.measurements + fill.cache_hits;

    std::vector<std::vector<ParallelSpec>> uniform;
    for (const ParallelSpec &spec : candidates)
        uniform.emplace_back(static_cast<std::size_t>(graph.opCount()), spec);
    const temp::eval::StepStats steps_before = steps.stats();
    std::vector<temp::sim::PerfReport> uniform_reports;
    {
        Span span("eval.uniform_seed");
        uniform_reports = steps.evaluateBatch(graph, uniform);
        probe.uniform_seed_ms = span.close() * 1e3;
    }
    const temp::eval::StepStats seeded = steps.stats() - steps_before;
    probe.uniform_step_sims = seeded.sims;
    probe.uniform_step_queries = seeded.sims + seeded.cache_hits;

    temp::solver::SolverResult solve;
    {
        Span span("solver.dp_refine");
        solve = fw->optimize(model);
        probe.dp_refine_ms = span.close() * 1e3;
    }
    probe.traced_total_ms = solve_span.close() * 1e3;
    const Span replay_span("probe.layer_replays");
    probe.refine_step_sims = solve.step_sims;
    probe.refine_step_queries = solve.step_sims + solve.step_cache_hits;
    probe.quanta_used = solve.quanta_used;
    probe.step_time_s = solve.step_time_s;
    probe.plan = solve.per_op_specs;

    // A warm repeat through the service: the framework is reused and
    // every memo hits.
    {
        temp::api::OptimizeRequest request;
        request.model = model;
        request.wafer = wafer;
        request.options = options;
        const temp::api::Response warm = service.run(request);
        probe.warm_exec_ms = warm.wall_time_s * 1e3;
    }

    const temp::eval::EvalStats eval_total = evaluator.stats();
    const temp::eval::StepStats step_total = steps.stats();
    probe.schedule_lowerings =
        eval_total.schedule_lowerings + step_total.schedule_lowerings;
    probe.schedule_hits =
        eval_total.schedule_cache_hits + step_total.schedule_cache_hits;
    const temp::common::CacheStats pool =
        fw->simulator().costModel().routePoolStats();
    probe.route_pool_hits = pool.hits;
    probe.route_pool_misses = pool.misses;

    // --- sim: per-call simulate over the solve's plans (the final plan
    // and the feasible uniform plans).
    const temp::sim::TrainingSimulator &simulator = fw->simulator();
    {
        Span span("sim.simulate_replay");
        std::vector<const std::vector<ParallelSpec> *> plans{&probe.plan};
        for (std::size_t s = 0; s < uniform.size() && plans.size() < 8; ++s)
            if (uniform_reports[s].feasible)
                plans.push_back(&uniform[s]);
        for (const std::vector<ParallelSpec> *plan : plans) {
            Span call("sim.simulate");
            simulator.simulate(graph, *plan);
            probe.simulate_ms.add(call.close() * 1e3);
        }
    }

    // --- parallel + cost: buildLayout per candidate, opCost per cell.
    const temp::cost::WaferCostModel &cost = simulator.costModel();
    std::vector<temp::parallel::GroupLayout> layouts;
    {
        Span span("parallel.layout_replay");
        for (const ParallelSpec &spec : candidates) {
            Span call("parallel.build_layout");
            layouts.push_back(cost.buildLayout(graph, spec));
            probe.layout_build_us.add(call.close() * 1e6);
        }
    }
    {
        Span span("cost.op_cost_replay");
        const std::size_t stride = strideFor(cells.size());
        for (std::size_t c = 0; c < cells.size(); c += stride) {
            const std::size_t cand = c % candidates.size();
            Span call("cost.op_cost");
            cost.opCost(graph.op(cells[c].op_id), layouts[cand], true);
            probe.op_cost_us.add(call.close() * 1e6);
        }
    }

    // --- tatp: chain ordering of every candidate layout's TATP groups.
    {
        Span span("tatp.chain_order_replay");
        const temp::tatp::ChainMapper mapper(fw->wafer().topology());
        for (const temp::parallel::GroupLayout &layout : layouts)
            for (const std::vector<temp::hw::DieId> &group :
                 layout.groups(temp::parallel::Axis::TATP)) {
                Span call("tatp.order_as_chain");
                mapper.orderAsChain(group);
                probe.chain_order_us.add(call.close() * 1e6);
            }
    }

    // --- net + tcme: lower every resident schedule task again, then
    // optimise and time each lowered schedule.
    {
        Span span("net.schedule_replay");
        const std::vector<temp::net::CollectiveTask> tasks =
            cost.exportScheduleTasks();
        const temp::net::CollectiveScheduler scheduler(cost.router());
        const temp::tcme::TrafficOptimizer optimizer(cost.router());
        const temp::net::ContentionModel contention(
            fw->wafer(), wafer.d2d.latency_s);
        const std::size_t stride = strideFor(tasks.size());
        for (std::size_t t = 0; t < tasks.size(); t += stride) {
            Span lower("net.schedule");
            temp::net::CommSchedule schedule = scheduler.schedule(tasks[t]);
            probe.schedule_lower_us.add(lower.close() * 1e6);
            Span optimize("tcme.optimize");
            optimizer.optimize(schedule);
            probe.tcme_optimize_us.add(optimize.close() * 1e6);
            schedule.finalize();
            Span evaluate("net.evaluate_sequence");
            contention.evaluateSequence(schedule);
            probe.contention_us.add(evaluate.close() * 1e6);
        }
    }
    {
        Span span("net.route_replay");
        sweepRoutes(wafer, probe);
    }
    return probe;
}

namespace {

/// Matrix fill at one thread over matrix fill at @p threads threads,
/// for (@p model, @p wafer) on fresh frameworks (median of @p reps).
double
measureFillScaling(const temp::model::ModelConfig &model,
                   const temp::hw::WaferConfig &wafer, int threads, int reps)
{
    auto fill_ms = [&](int eval_threads) {
        Samples ms;
        for (int rep = 0; rep < reps; ++rep) {
            temp::core::TempFramework fw(wafer,
                                         solveOptions(1, eval_threads));
            const temp::model::ComputeGraph graph =
                temp::model::ComputeGraph::transformer(model);
            std::vector<temp::eval::EvalRequest> cells;
            for (int i = 0; i < graph.opCount(); ++i)
                for (const ParallelSpec &spec :
                     temp::solver::enumerateStrategies(
                         fw.wafer().usableDieCount(), graph.config(),
                         fw.options().solver.space))
                    cells.push_back({i, spec, true});
            Span span("eval.fill_scaling_fill");
            fw.evaluator().evaluateBatch(graph, cells);
            ms.add(span.close() * 1e3);
        }
        return ms.median();
    };
    return ratio(fill_ms(1), fill_ms(threads));
}

}  // namespace

ProbedSolve
probeColdSolve(const temp::model::ModelConfig &model,
               const temp::hw::WaferConfig &wafer,
               const temp::core::FrameworkOptions &options)
{
    ProbedSolve solve;
    solve.label = model.name;
    solve.model = model;
    solve.wafer = wafer;
    temp::api::OptimizeRequest request;
    request.model = model;
    request.wafer = wafer;
    request.options = options;
    {
        // One span and nothing under it: the untraced reference.
        temp::api::TempService service(inlineService());
        Span span("probe.untraced_cold_solve");
        solve.cold = service.run(request).solver;
        solve.cold_ms = span.close() * 1e3;
    }
    solve.probe = probeSolve(model, wafer, options);
    return solve;
}

void
reportProbedSolves(const std::vector<ProbedSolve> &solves, int threads,
                   Result &result)
{
    const long n = static_cast<long>(solves.size());
    double phases_ms = 0.0, traced_ms = 0.0, cold_ms = 0.0;
    Samples build, space, fill, seed, refine, warm;
    Samples simulate, op_cost, layout, lower, route, route_cold, contention,
        chain, tcme;
    double measurements = 0, queries = 0, step_sims = 0, step_queries = 0,
           refine_sims = 0, quanta = 0, lowerings = 0, sched_hits = 0,
           pool_hits = 0, pool_misses = 0;
    auto append = [](Samples &into, const Samples &from) {
        into.values.insert(into.values.end(), from.values.begin(),
                           from.values.end());
    };
    for (const ProbedSolve &s : solves) {
        const LayerProbe &p = s.probe;
        result.check(p.plan == s.cold.per_op_specs &&
                         p.step_time_s == s.cold.step_time_s,
                     "decomposed solve differs from cold solve: " + s.label);
        phases_ms += p.strategy_space_ms + p.matrix_fill_ms +
                     p.uniform_seed_ms + p.dp_refine_ms;
        traced_ms += p.traced_total_ms;
        cold_ms += s.cold_ms;
        build.add(p.framework_build_ms);
        space.add(p.strategy_space_ms);
        fill.add(p.matrix_fill_ms);
        seed.add(p.uniform_seed_ms);
        refine.add(p.dp_refine_ms);
        warm.add(p.warm_exec_ms);
        measurements += p.matrix_measurements;
        queries += p.matrix_queries;
        step_sims += p.uniform_step_sims + p.refine_step_sims;
        step_queries += p.uniform_step_queries + p.refine_step_queries;
        refine_sims += p.refine_step_sims;
        quanta += p.quanta_used;
        lowerings += p.schedule_lowerings;
        sched_hits += p.schedule_hits;
        pool_hits += p.route_pool_hits;
        pool_misses += p.route_pool_misses;
        append(simulate, p.simulate_ms);
        append(op_cost, p.op_cost_us);
        append(layout, p.layout_build_us);
        append(lower, p.schedule_lower_us);
        append(route, p.route_lookup_ns);
        append(route_cold, p.route_lookup_cold_ns);
        append(contention, p.contention_us);
        append(chain, p.chain_order_us);
        append(tcme, p.tcme_optimize_us);
    }
    // Share of the untraced cold solves the eval/solver phase spans do
    // not cover (framework build, api bookkeeping, anything unnamed),
    // and how much longer the traced decomposition ran than the
    // untraced solve of the same inputs.
    result.set("trace.uncovered_share", 1.0 - ratio(phases_ms, cold_ms),
               "ratio", n);
    result.set("trace.overhead_share", ratio(traced_ms, cold_ms) - 1.0,
               "ratio", n);
    result.set("eval.fill_scaling",
               solves.empty() ? 0.0
                              : measureFillScaling(solves.front().model,
                                                   solves.front().wafer,
                                                   threads, 3),
               "ratio", 1);

    const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
    auto count = [&](const char *name, double total) {
        result.set(name, total * per, "count", n, "count");
    };
    auto share = [&](const char *name, double num, double den) {
        result.set(name, ratio(num, den), "ratio", n, "count");
    };
    auto timing = [&](const char *name, const Samples &s, const char *unit) {
        result.set(name, s.median(), unit, static_cast<long>(s.size()));
    };
    timing("core.framework_build_ms", build, "ms");
    timing("solver.strategy_space_ms", space, "ms");
    timing("solver.dp_refine_ms", refine, "ms");
    count("solver.refine_step_sims", refine_sims);
    count("solver.quanta_used", quanta);
    timing("eval.matrix_fill_ms", fill, "ms");
    count("eval.matrix_measurements", measurements);
    share("eval.matrix_hit_ratio", queries - measurements, queries);
    timing("eval.uniform_seed_ms", seed, "ms");
    count("eval.step_sims", step_sims);
    share("eval.step_hit_ratio", step_queries - step_sims, step_queries);
    timing("sim.simulate_ms", simulate, "ms");
    timing("cost.op_cost_us", op_cost, "us");
    timing("parallel.layout_build_us", layout, "us");
    timing("net.schedule_lower_us", lower, "us");
    share("net.schedule_hit_ratio", sched_hits, sched_hits + lowerings);
    timing("net.route_lookup_ns", route, "ns");
    timing("net.route_lookup_cold_ns", route_cold, "ns");
    share("net.route_pool_hit_ratio", pool_hits, pool_hits + pool_misses);
    timing("net.contention_us", contention, "us");
    timing("tatp.chain_order_us", chain, "us");
    timing("tcme.optimize_us", tcme, "us");
    timing("api.warm_exec_ms_p50", warm, "ms");
}

}  // namespace perfbench
