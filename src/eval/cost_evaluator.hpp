/**
 * @file
 * The unified cost-evaluation layer.
 *
 * Every search phase of the Dual-Level Wafer Solver — the DP matrix
 * fill, GA fitness, the exhaustive baseline and the surrogate's sampled
 * cells — reduces to the same primitive: (operator, strategy) ->
 * OpCostBreakdown. This layer owns that primitive so callers stop
 * hand-rolling buildLayout + opCost loops:
 *
 *  - ExactEvaluator wraps WaferCostModel and memoizes both GroupLayout
 *    construction (per spec) and breakdowns (per op/spec/include_step)
 *    behind hash-keyed caches; evaluateBatch fans the misses out over a
 *    ThreadPool with deterministic result placement. Each
 *    TrainingSimulator owns one, so the DP matrix, GA seeding and the
 *    step simulations share a single layout memo and breakdown memo.
 *  - SurrogateEvaluator (surrogate_evaluator.hpp) measures a sampled
 *    subset through an underlying evaluator and predicts the rest.
 *
 * Caches key on a content fingerprint of the graph (not its address),
 * so one evaluator safely serves many graphs/models.
 */
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bounded_cache.hpp"
#include "common/budget.hpp"
#include "common/thread_pool.hpp"
#include "cost/cost_model.hpp"

namespace temp::eval {

/// One (operator, strategy) evaluation request.
struct EvalRequest
{
    int op_id = 0;
    parallel::ParallelSpec spec;
    /// Include per-step gradient-sync collectives (the additive matrix
    /// wants them; the simulator merges them across the layer instead).
    bool include_step = true;
};

/// Evaluation-layer counters. Honest accounting: a breakdown is
/// *measured* exactly once; every further request for it is a cache hit.
struct EvalStats
{
    long measurements = 0;   ///< unique breakdowns computed
    long cache_hits = 0;     ///< requests served from the memo
    long layouts_built = 0;  ///< unique GroupLayout constructions
    long layout_hits = 0;    ///< layout lookups served from the memo
    /**
     * Collective-schedule accounting one layer down: lowerings run vs.
     * served from the shared net::ScheduleCache across the breakdowns
     * this evaluator handled. A breakdown served from the breakdown
     * memo charges its schedule work as hits — recomputing it would
     * have hit the schedule cache on every lookup.
     */
    long schedule_lowerings = 0;
    long schedule_cache_hits = 0;
    /**
     * Entries the evaluator's own memos (breakdowns + layouts) dropped
     * to honour a cache budget. Zero under the default unbounded
     * budgets; nonzero eviction with unchanged results is the bounded
     * mode working as designed (evicted keys recount as misses).
     */
    long evictions = 0;

    EvalStats operator-(const EvalStats &other) const
    {
        return {measurements - other.measurements,
                cache_hits - other.cache_hits,
                layouts_built - other.layouts_built,
                layout_hits - other.layout_hits,
                schedule_lowerings - other.schedule_lowerings,
                schedule_cache_hits - other.schedule_cache_hits,
                evictions - other.evictions};
    }
};

/// Content fingerprint of a graph for cache keys (FNV-1a over the model
/// configuration and graph shape).
std::uint64_t graphFingerprint(const model::ComputeGraph &graph);

/// Cache key of one request under a graph fingerprint.
std::string evalKey(std::uint64_t graph_fp, const EvalRequest &request);

/// Cache key of one spec's layout under a graph fingerprint.
std::string layoutKey(std::uint64_t graph_fp,
                      const parallel::ParallelSpec &spec);

/// Appends one spec's content encoding to a cache key (shared by the
/// matrix, layout and full-step key builders).
void appendSpecKey(std::string &key, const parallel::ParallelSpec &spec);

/**
 * Thread-safe memo of (graph, spec) -> GroupLayout for one cost model.
 * An ExactEvaluator owns one and shares it between the matrix fill and
 * the training simulator, so a layout is built once per fault epoch
 * instead of once per phase (the GA alone calls the simulator hundreds
 * of times with recurring specs).
 */
class LayoutCache
{
  public:
    explicit LayoutCache(const cost::WaferCostModel &model);

    /// Returns the (possibly cached) layout of a spec for a graph.
    /// @p counted false leaves builds() and hits() untouched.
    std::shared_ptr<const parallel::GroupLayout> layoutFor(
        const model::ComputeGraph &graph,
        const parallel::ParallelSpec &spec, bool counted = true);

    long builds() const { return builds_.load(); }
    long hits() const { return hits_.load(); }

    /// Entry budget (0 = unbounded). Evicted layouts rebuild (and
    /// recount as builds) on return; callers hold shared_ptrs, so
    /// in-flight layouts survive their own eviction.
    void setMaxEntries(long max_entries)
    {
        cache_.setCapacity(max_entries);
    }

    /// Byte budget over the layouts' honest heap estimates
    /// (0 = unbounded).
    void setMaxBytes(long max_bytes) { cache_.setMaxBytes(max_bytes); }

    /// Governance counters for CacheStatsRequest reporting.
    common::CacheStats cacheStats() const { return cache_.stats(); }

    /// Drops every layout (counters are kept); a fault change moves
    /// where layouts place their groups.
    void clear() { cache_.clear(); }

  private:
    const cost::WaferCostModel &model_;
    common::BoundedCache<std::string,
                         std::shared_ptr<const parallel::GroupLayout>>
        cache_;
    std::atomic<long> builds_{0};
    std::atomic<long> hits_{0};
};

/// The evaluation interface every backend implements.
class CostEvaluator
{
  public:
    virtual ~CostEvaluator() = default;

    /// Evaluates one request.
    virtual cost::OpCostBreakdown evaluate(const model::ComputeGraph &graph,
                                           const EvalRequest &request) = 0;

    /**
     * Evaluates a batch; result[i] always corresponds to requests[i]
     * regardless of thread count (deterministic ordering — cells are
     * independent, so values are bit-exact across pool sizes). The
     * default implementation is the serial loop.
     *
     * Solve-budget contract: a matrix batch is atomic — it always
     * completes (the DP needs the whole matrix, so the budgeted solve
     * path treats the fill as mandatory preamble) and charges no
     * quanta (quanta meter full-step fitness queries). The optional
     * @p gauge is polled once *after* the batch, so a wall-clock cap
     * or cancel token that expired during the fill latches at this
     * quantum boundary instead of one batch later.
     */
    virtual std::vector<cost::OpCostBreakdown> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<EvalRequest> &requests,
        common::BudgetGauge *gauge = nullptr);

    /// Cumulative counters (zero for stateless backends).
    virtual EvalStats stats() const { return {}; }
};

/**
 * The exact backend: WaferCostModel with memoized layouts and
 * breakdowns, parallel batch evaluation over an optional ThreadPool.
 * The memos bake the wafer's fault state in, so a setFaults() on the
 * live wafer flushes both.
 */
class ExactEvaluator : public CostEvaluator
{
  public:
    /**
     * @param model The wafer cost model to wrap.
     * @param pool Optional pool for evaluateBatch (nullptr = serial).
     */
    explicit ExactEvaluator(const cost::WaferCostModel &model,
                            ThreadPool *pool = nullptr);

    /// Unregisters the fault-epoch listener (see constructor).
    ~ExactEvaluator() override;

    ExactEvaluator(const ExactEvaluator &) = delete;
    ExactEvaluator &operator=(const ExactEvaluator &) = delete;

    cost::OpCostBreakdown evaluate(const model::ComputeGraph &graph,
                                   const EvalRequest &request) override;

    std::vector<cost::OpCostBreakdown> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<EvalRequest> &requests,
        common::BudgetGauge *gauge = nullptr) override;

    EvalStats stats() const override;

    /**
     * The training simulator's lookups: the memoized layout of a spec,
     * and the memoized breakdown of one request, computed on a miss
     * from the caller's layout and execution. They share the memos
     * (and budgets) with evaluate()/evaluateBatch() but move no
     * stats() counter: a step simulation's work is accounted by
     * StepStats, and counting it here as well would count its schedule
     * work twice.
     */
    std::shared_ptr<const parallel::GroupLayout> stepLayout(
        const model::ComputeGraph &graph,
        const parallel::ParallelSpec &spec)
    {
        return layouts_.layoutFor(graph, spec, /*counted=*/false);
    }
    cost::OpCostBreakdown stepCell(std::uint64_t graph_fp,
                                   const EvalRequest &request,
                                   const model::Operator &op,
                                   const parallel::OpExecution &exec,
                                   const parallel::GroupLayout &layout);

    /// Applies the evaluator-level budgets: breakdown memo
    /// (max_eval_entries/bytes) and layout memo (max_layout_*).
    void setCacheBudget(const common::CacheBudget &budget);

    /// Governance counters of the breakdown memo.
    common::CacheStats breakdownCacheStats() const
    {
        return cache_.stats();
    }

    /// Visits every resident (key, breakdown) pair — the persist
    /// layer's export hook. Keys are evalKey() content keys, so the
    /// visited pairs are valid in any process with the same options.
    template <typename Fn>
    void forEachCached(Fn &&fn) const
    {
        cache_.forEach(std::forward<Fn>(fn));
    }

    /**
     * Seeds the memo with one persisted entry (warm start). A resident
     * value wins over the import, so a live memo is never overwritten;
     * imports count as neither measurements nor hits — the honest
     * counters track only what *this* process computed or served.
     */
    void importCached(const std::string &key,
                      const cost::OpCostBreakdown &breakdown)
    {
        cache_.insert(key, breakdown);
    }

    const LayoutCache &layoutCache() const { return layouts_; }

  private:
    /// Counts one memo-served breakdown and returns its served copy.
    cost::OpCostBreakdown serve(const cost::OpCostBreakdown &cached);

    const cost::WaferCostModel &model_;
    ThreadPool *pool_;
    LayoutCache layouts_;
    common::BoundedCache<std::string, cost::OpCostBreakdown> cache_;
    std::atomic<long> measurements_{0};
    std::atomic<long> cache_hits_{0};
    std::atomic<long> schedule_lowerings_{0};
    std::atomic<long> schedule_cache_hits_{0};
    /// Registration id of the wafer epoch listener that flushes both
    /// memos on setFaults().
    std::uint64_t epoch_listener_id_ = 0;
};

/**
 * Rewrites a memo-served breakdown's schedule accounting: none of its
 * lowerings re-ran, so they all count as (would-be) schedule-cache
 * hits. Keeps "repeat solves report schedule_lowerings == 0" honest
 * all the way up to SolverResult.
 */
void markScheduleServed(cost::OpCostBreakdown &breakdown);

}  // namespace temp::eval
