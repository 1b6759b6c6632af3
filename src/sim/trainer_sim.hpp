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
    /**
     * @param pool Optional pool for the owned evaluator's
     *        evaluateBatch (the matrix fill); simulate() never uses it.
     */
    TrainingSimulator(const hw::Wafer &wafer, tcme::MappingPolicy policy,
                      parallel::TrainingOptions options =
                          parallel::TrainingOptions(),
                      ThreadPool *pool = nullptr);

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
     * The simulator's evaluator: the one layout memo and breakdown
     * memo over its cost model. The matrix fill goes through it, and
     * simulate() reads its layouts and include_step=false cells from
     * it, so a layout is built once per fault epoch whichever phase
     * needs it first, and successive candidate plans cost each shared
     * (op, spec) cell once. Thread-safe, which also makes concurrent
     * simulate() calls safe (the rest of the simulator is stateless).
     */
    eval::ExactEvaluator &evaluator() const { return evaluator_; }

    /**
     * Applies the memo budgets this simulator is subject to: the
     * evaluator's breakdown and layout memos (eval.cache.*) and the
     * cost model's network caches.
     */
    void setCacheBudget(const common::CacheBudget &budget);

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
    mutable eval::ExactEvaluator evaluator_;
};

}  // namespace temp::sim
