#include "core/framework.hpp"

namespace temp::core {

TempFramework::TempFramework(hw::WaferConfig wafer_config,
                             FrameworkOptions options)
    : options_(options),
      wafer_(std::make_unique<hw::Wafer>(wafer_config)),
      sim_(std::make_unique<sim::TrainingSimulator>(*wafer_, options.policy,
                                                    options.training)),
      pool_(std::make_unique<ThreadPool>(options.eval_threads)),
      exact_(std::make_unique<eval::ExactEvaluator>(
          sim_->costModel(), pool_.get(), /*memoize_breakdowns=*/false)),
      evaluator_(std::make_unique<eval::CachingEvaluator>(*exact_)),
      steps_(std::make_unique<eval::StepEvaluator>(*sim_, pool_.get()))
{
    // Cache governance: thread the entry and byte budgets through
    // every memo layer this framework owns. All budgets default to 0
    // (unbounded), so the historical behaviour — and the bit-exactness
    // guarantees its tests assert — are untouched unless a budget is
    // configured.
    if (options.cache.boundsFramework()) {
        evaluator_->setMaxEntries(options.cache.max_eval_entries);
        evaluator_->setMaxBytes(options.cache.max_eval_bytes);
        steps_->setMaxEntries(options.cache.max_step_entries);
        steps_->setMaxBytes(options.cache.max_step_bytes);
        exact_->setCacheBudget(options.cache);
        sim_->setCacheBudget(options.cache);
    }
}

persist::MemoBlock
TempFramework::exportMemos() const
{
    persist::MemoBlock block;
    evaluator_->forEachCached(
        [&](const std::string &key, const cost::OpCostBreakdown &b) {
            block.breakdowns.emplace_back(key, b);
        });
    steps_->forEachCached(
        [&](const std::string &key, const sim::PerfReport &report) {
            block.step_reports.emplace_back(key, report);
        });
    return block;
}

void
TempFramework::importMemos(const persist::MemoBlock &block) const
{
    for (const auto &[key, breakdown] : block.breakdowns)
        evaluator_->importCached(key, breakdown);
    for (const auto &[key, report] : block.step_reports)
        steps_->importCached(key, report);
}

std::vector<std::pair<std::string, common::CacheStats>>
TempFramework::cacheStats() const
{
    common::CacheStats layouts = exact_->layoutCache().cacheStats();
    layouts += sim_->layoutCache().cacheStats();
    return {
        {"eval_breakdowns", evaluator_->cacheStats()},
        {"step_reports", steps_->cacheStats()},
        {"layouts", layouts},
        {"schedules", sim_->costModel().scheduleCacheStats()},
        {"schedule_phases", sim_->costModel().phaseCacheStats()},
        {"tatp_streams", sim_->costModel().streamCacheStats()},
        {"routes", sim_->costModel().routePoolStats()},
        {"sim_cells", sim_->cellCacheStats()},
    };
}

solver::SolverResult
TempFramework::optimize(const model::ModelConfig &model) const
{
    return optimize(model, solver::SolveBudget{});
}

solver::SolverResult
TempFramework::optimize(const model::ModelConfig &model,
                        const solver::SolveBudget &budget) const
{
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    solver::DlsSolver solver(*sim_, options_.solver, evaluator_.get(),
                             steps_.get());
    return solver.solve(graph, nullptr, budget);
}

DegradedContext::DegradedContext(const hw::WaferConfig &config,
                                 const hw::FaultMap &faults,
                                 const FrameworkOptions &options,
                                 ThreadPool *pool)
    // Step 1 of Fig. 20(a): fault localisation = the FaultMap itself.
    // Steps 2-3 (re-balance partitioning, re-route communication) run
    // in optimize() against this derate-/fault-aware stack. The
    // degraded wafer has its own cost model, so the shared healthy
    // evaluator cannot serve it; this context-local evaluator (sharing
    // the framework pool) keeps the caching + parallel fill — and,
    // unlike the historical per-call locals, keeps its memos across
    // calls.
    : options_(options), fingerprint_(faults.contentFingerprint()),
      wafer_(config, faults),
      sim_(wafer_, options.policy, options.training),
      exact_(sim_.costModel(), pool, /*memoize_breakdowns=*/false),
      eval_(exact_), steps_(sim_, pool)
{
    // Same governance the healthy framework applies in its ctor: a
    // long-lived degraded context must honour the configured budgets.
    if (options.cache.boundsFramework()) {
        eval_.setMaxEntries(options.cache.max_eval_entries);
        eval_.setMaxBytes(options.cache.max_eval_bytes);
        steps_.setMaxEntries(options.cache.max_step_entries);
        steps_.setMaxBytes(options.cache.max_step_bytes);
        exact_.setCacheBudget(options.cache);
        sim_.setCacheBudget(options.cache);
    }
}

solver::SolverResult
DegradedContext::optimize(const model::ModelConfig &model,
                          const solver::SolveHints *hints,
                          const solver::SolveBudget &budget)
{
    const model::ComputeGraph graph =
        model::ComputeGraph::transformer(model);
    solver::DlsSolver solver(sim_, options_.solver, &eval_, &steps_);
    return solver.solve(graph, hints, budget);
}

std::shared_ptr<DegradedContext>
TempFramework::degradedContext(const hw::FaultMap &faults) const
{
    return std::make_shared<DegradedContext>(wafer_->config(), faults,
                                             options_, pool_.get());
}

solver::SolverResult
TempFramework::optimizeWithFaults(const model::ModelConfig &model,
                                  const hw::FaultMap &faults) const
{
    return optimizeWithFaults(model, faults, solver::SolveBudget{});
}

solver::SolverResult
TempFramework::optimizeWithFaults(const model::ModelConfig &model,
                                  const hw::FaultMap &faults,
                                  const solver::SolveBudget &budget) const
{
    // The one-shot path: build a context, solve cold, discard — the
    // historical behaviour of FaultRequest. Long-lived callers (the
    // scenario engine) hold the context instead.
    return degradedContext(faults)->optimize(model, nullptr, budget);
}

baselines::TunedBaseline
TempFramework::evaluateBaseline(baselines::BaselineKind kind,
                                tcme::MappingEngineKind engine,
                                const model::ModelConfig &model) const
{
    parallel::TrainingOptions opts = options_.training;
    if (kind == baselines::BaselineKind::Megatron1)
        opts.zero1_optimizer = false;  // predates the distributed optimizer
    sim::TrainingSimulator engine_sim(*wafer_, tcme::MappingPolicy{engine},
                                      opts);
    baselines::BaselineGenerator generator(engine_sim, pool_.get());
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    return generator.tune(kind, graph);
}

sim::PerfReport
TempFramework::evaluateStrategy(const model::ModelConfig &model,
                                const parallel::ParallelSpec &spec) const
{
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    return sim_->simulate(graph, spec);
}

}  // namespace temp::core
