/**
 * @file
 * End-to-end single-wafer training-step simulator.
 *
 * Walks the representative transformer layer under per-operator
 * parallel specs, times every operator with the wafer cost model
 * (Eq. 2), adds inter-operator resharding (Eq. 3), jointly times the
 * layer's merged gradient-sync collectives, accounts memory against
 * HBM capacity, and scales by the layer count (Eq. 4).
 */
#pragma once

#include "cost/cost_model.hpp"
#include "eval/cost_evaluator.hpp"
#include "sim/perf_report.hpp"

namespace temp::sim {

/// Simulates training steps of a model on one wafer.
class TrainingSimulator
{
  public:
    TrainingSimulator(const hw::Wafer &wafer, tcme::MappingPolicy policy,
                      parallel::TrainingOptions options =
                          parallel::TrainingOptions());

    /// Unregisters the fault-epoch listener (see constructor).
    ~TrainingSimulator();

    TrainingSimulator(const TrainingSimulator &) = delete;
    TrainingSimulator &operator=(const TrainingSimulator &) = delete;

    /**
     * Simulates one training step.
     *
     * Real systems train a global batch as a sequence of microbatches
     * (gradient accumulation), so stored activations scale with the
     * *micro*batch. The simulator picks the smallest power-of-two
     * accumulation factor whose activations fit in HBM (static state
     * permitting) and composes the full step from the microbatch
     * simulation — gradient synchronisation happens once per step.
     *
     * @param graph The model's representative layer (+ repeat count).
     * @param per_op_specs One spec per operator, or a single spec
     *        applied uniformly to all operators.
     */
    PerfReport simulate(const model::ComputeGraph &graph,
                        const std::vector<parallel::ParallelSpec>
                            &per_op_specs) const;

    /// Uniform-spec convenience overload.
    PerfReport simulate(const model::ComputeGraph &graph,
                        const parallel::ParallelSpec &spec) const;

    const cost::WaferCostModel &costModel() const { return cost_model_; }
    const hw::Wafer &wafer() const { return wafer_; }

    /**
     * The simulator's persistent layout memo. Layouts are content-keyed
     * on (graph, spec), so repeated simulations — the GA fitness loop
     * alone issues hundreds with recurring specs — build each layout
     * once across calls instead of once per call. Thread-safe, which
     * also makes concurrent simulate() calls safe (the cell memo is
     * thread-safe too; the rest of the simulator is stateless).
     */
    const eval::LayoutCache &layoutCache() const { return layout_cache_; }

    /**
     * Applies the memo budgets this simulator is subject to: the
     * layout cache (eval.cache.max_layouts / max_layout_bytes), the
     * cell memo (eval.cache.max_entries / max_bytes, the budget of the
     * matrix cells it mirrors) and the cost model's network caches.
     */
    void setCacheBudget(const common::CacheBudget &budget);

    /// Governance counters of the per-op cell memo (see simulateMicro).
    common::CacheStats cellCacheStats() const { return cells_.stats(); }

  private:
    /// Simulates one microbatch pass (no accumulation logic).
    /// @param recompute Activation checkpointing: only the layer input
    ///        is stored; backward re-runs the forward (+~1/3 compute).
    PerfReport simulateMicro(const model::ComputeGraph &graph,
                             const std::vector<parallel::ParallelSpec>
                                 &per_op_specs,
                             bool recompute = false) const;

    /// Composes a full step from a microbatch report.
    PerfReport composeAccum(const PerfReport &micro, int accum,
                            double full_tokens) const;

    const hw::Wafer &wafer_;
    cost::WaferCostModel cost_model_;
    mutable eval::LayoutCache layout_cache_;
    /**
     * Per-op cells of simulateMicro: opCost(exec, op, layout,
     * include_step=false) keyed by eval::evalKey. A step simulation
     * re-costs every op, and successive candidate plans share most of
     * their (op, spec) cells, so each cell is costed once per fault
     * epoch. Thread-safe (StepEvaluator batches simulate concurrently).
     */
    mutable common::BoundedCache<std::string, cost::OpCostBreakdown>
        cells_;
    /// Registration id of the wafer epoch listener that flushes the
    /// layout cache and the cell memo on setFaults().
    std::uint64_t epoch_listener_id_ = 0;
};

}  // namespace temp::sim
