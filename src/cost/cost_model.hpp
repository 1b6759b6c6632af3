/**
 * @file
 * The wafer-centric cost model (Sec. VII-A).
 *
 * Implements the paper's Eq. (2)-(4):
 *   T_intra(Op)  = Collective(Op) + max(Comp(Op), P2P(Op))
 *   T_inter(a,b) = P2P(a, b)                 (resharding transfers)
 *   T_total      = sum T_intra + sum T_inter
 *
 * Collective times come from lowering the partitioner's tasks onto the
 * fabric (all groups concurrently, so cross-group and cross-axis
 * contention is captured) and evaluating them under the link-level
 * contention model; the TATP stream is the overlappable P2P term.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bounded_cache.hpp"
#include "cost/compute_model.hpp"
#include "cost/power_model.hpp"
#include "hw/wafer.hpp"
#include "model/graph.hpp"
#include "net/collective.hpp"
#include "net/schedule_cache.hpp"
#include "parallel/partitioner.hpp"
#include "tatp/chain_mapper.hpp"
#include "tatp/executor.hpp"
#include "tcme/mapping_policy.hpp"
#include "tcme/optimizer.hpp"

namespace temp::cost {

/// Full timing/energy breakdown for one operator instance.
struct OpCostBreakdown
{
    bool feasible = true;  ///< false when faults partition a route

    double fwd_time = 0.0;        ///< forward wall time
    double bwd_time = 0.0;        ///< backward wall time
    double step_comm_time = 0.0;  ///< exposed share of grad-sync comm

    double comp_time = 0.0;        ///< pure compute, fwd+bwd
    double collective_time = 0.0;  ///< blocking collectives, fwd+bwd
    double stream_comm_time = 0.0; ///< TATP per-round comm (overlappable)
    double exposed_comm = 0.0;     ///< communication not hidden
    double tail_latency = 0.0;     ///< multi-hop stream penalty

    double d2d_link_bytes = 0.0;  ///< fabric occupancy (energy)
    double dram_bytes = 0.0;      ///< per-wafer DRAM traffic
    double flops = 0.0;           ///< per-wafer executed FLOPs
    double bw_utilization = 0.0;  ///< during communication phases

    /**
     * Schedule-cache accounting of computing this breakdown: collective
     * lowerings performed vs. served from the shared ScheduleCache.
     * Mirrors matrix_measurements/step_sims honesty one layer down.
     * Note: the lowerings/hits *split* depends on what other threads
     * populated first, so it is not bit-stable across thread counts —
     * only the sum is. Never compare these fields for determinism.
     */
    long schedule_lowerings = 0;
    long schedule_cache_hits = 0;

    /// Wall time of the operator in one training step.
    double total() const { return fwd_time + bwd_time + step_comm_time; }
};

/// The cost model: (operator, layout) -> OpCostBreakdown.
class WaferCostModel
{
  public:
    /**
     * @param wafer Physical substrate (faults included).
     * @param policy Mapping engine behaviour (axis order, optimizer).
     * @param options Training recipe.
     */
    WaferCostModel(const hw::Wafer &wafer, tcme::MappingPolicy policy,
                   parallel::TrainingOptions options =
                       parallel::TrainingOptions());

    /// Unregisters the fault-epoch listener (see constructor).
    ~WaferCostModel();

    WaferCostModel(const WaferCostModel &) = delete;
    WaferCostModel &operator=(const WaferCostModel &) = delete;

    /// Analyses and costs one operator under the layout's spec.
    /// @param include_step When false, per-step gradient-sync
    ///        collectives are left out (the simulator merges them
    ///        across the whole layer and times them jointly).
    OpCostBreakdown opCost(const model::Operator &op,
                           const parallel::GroupLayout &layout,
                           bool include_step = true) const;

    /// Costs an already-analysed execution (avoids re-partitioning).
    OpCostBreakdown opCost(const parallel::OpExecution &exec,
                           const model::Operator &op,
                           const parallel::GroupLayout &layout,
                           bool include_step = true) const;

    /**
     * Lowers a set of collective tasks (all groups concurrently),
     * applies the policy's traffic optimisation, and times the result
     * under link-level contention. Lowerings and the phase's cost are
     * served from the shared ScheduleCache (content-keyed, fault-epoch
     * invalidated); the task order is part of the phase key.
     *
     * @param link_bytes Optional accumulator of bytes x hops (energy).
     * @param sched_stats Optional accumulator of this call's cache
     *        lookups (lowerings vs. hits).
     */
    net::PhaseTiming timeCollectiveTasks(
        const std::vector<net::CollectiveTask> &tasks,
        double *link_bytes = nullptr,
        net::ScheduleCacheStats *sched_stats = nullptr) const;

    /// Eq. (3): inter-operator resharding time between adjacent ops.
    double interOpTime(const model::Operator &producer,
                       const parallel::ParallelSpec &from,
                       const parallel::ParallelSpec &to) const;

    /**
     * Estimates per-axis communication volumes for a whole graph under a
     * spec (drives GMap/TCME axis ordering) without building layouts.
     */
    tcme::AxisVolumes estimateAxisVolumes(
        const model::ComputeGraph &graph,
        const parallel::ParallelSpec &spec) const;

    /// Builds the layout for a spec per the mapping policy.
    parallel::GroupLayout buildLayout(const model::ComputeGraph &graph,
                                      const parallel::ParallelSpec &spec)
        const;

    const hw::Wafer &wafer() const { return wafer_; }
    const parallel::Partitioner &partitioner() const { return partitioner_; }
    const ComputeModel &computeModel() const { return compute_; }
    const PowerModel &powerModel() const { return power_; }
    const net::Router &router() const { return router_; }
    const tcme::MappingPolicy &policy() const { return policy_; }

    /**
     * The shared collective-schedule cache: one per cost model, and the
     * framework owns one cost model, so the DP matrix fill, refiner
     * fitness simulations, surrogate sampling and baselines all hit the
     * same lowered schedules.
     */
    const net::ScheduleCache &scheduleCache() const
    {
        return schedule_cache_;
    }

    /// Cumulative schedule-cache counters since construction.
    net::ScheduleCacheStats scheduleStats() const
    {
        return schedule_cache_.stats();
    }

    /**
     * Applies the network-layer entry budgets (schedule cache, TATP
     * stream memo and route pool; 0 = unbounded). Const for the same
     * reason the caches are mutable: governance does not change what
     * a cost query computes, only what stays resident.
     */
    void setCacheBudgets(const common::CacheBudget &budget) const
    {
        // Negative budgets clamp to 0 (unbounded): a size_t wrap
        // would silently produce a never-evicting "bounded" cache
        // that still pays the exclusive-lock hit path.
        schedule_cache_.setMaxEntries(static_cast<std::size_t>(
            std::max(0L, budget.max_schedule_entries)));
        schedule_cache_.setMaxBytes(
            std::max(0L, budget.max_schedule_bytes));
        streams_.setCapacity(budget.max_schedule_entries);
        streams_.setMaxBytes(budget.max_schedule_bytes);
        router_.setPoolBudget(static_cast<std::size_t>(
            std::max(0L, budget.max_route_entries)));
        router_.setPoolMaxBytes(std::max(0L, budget.max_route_bytes));
    }

    /// Content signatures of every resident schedule (perfbench's
    /// layer probe lowers them again, one call at a time).
    std::vector<net::CollectiveTask> exportScheduleTasks() const
    {
        return schedule_cache_.exportTasks();
    }

    /// Governance counters of the shared schedule cache.
    common::CacheStats scheduleCacheStats() const
    {
        return schedule_cache_.cacheStats();
    }

    /// Governance counters of the schedule cache's phase-cost store.
    common::CacheStats phaseCacheStats() const
    {
        return schedule_cache_.phaseStats();
    }

    /// Governance counters of the router's route pool.
    common::CacheStats routePoolStats() const
    {
        return router_.poolStats();
    }

    /// Governance counters of the TATP stream memo (see streamShape).
    common::CacheStats streamCacheStats() const { return streams_.stats(); }

    /// Fraction of grad-sync communication hidden behind backward
    /// compute (bucketed overlap, as Megatron/FSDP implement).
    static constexpr double kGradSyncOverlap = 0.5;

  private:
    /// What timeStream reads of a stream's physical chains.
    struct StreamShape
    {
        tatp::ChainHops worst;   ///< the chain with the largest max_hop
        std::size_t chains = 0;  ///< one per TATP group
        /// Round 0 under contention (+inf when a route is missing).
        double fwd_round_s = 0.0;
        double bwd_round_s = 0.0;
    };

    /// Hashes a flat word key (the stream memo's).
    struct WordsHash
    {
        std::size_t operator()(const std::vector<std::uint64_t> &words)
            const;
    };

    /// Times the TATP stream of an execution (all groups concurrently).
    void timeStream(const parallel::OpExecution &exec,
                    const parallel::GroupLayout &layout,
                    OpCostBreakdown &out) const;

    /**
     * Orders the TATP groups into chains and times round 0 of the
     * stream over them under contention. A pure function of (groups
     * in order, stream degree, per-round bytes, fault epoch), so it
     * is computed once per key and served from streams_ after.
     */
    StreamShape streamShape(
        const parallel::TatpStream &stream,
        const std::vector<std::vector<hw::DieId>> &groups) const;

    const hw::Wafer &wafer_;
    tcme::MappingPolicy policy_;
    parallel::Partitioner partitioner_;
    ComputeModel compute_;
    PowerModel power_;
    net::Router router_;
    net::CollectiveScheduler scheduler_;
    /// Thread-safe; mutable because opCost() is const but memoizes.
    mutable net::ScheduleCache schedule_cache_;
    net::ContentionModel contention_;
    tatp::ChainMapper chain_mapper_;
    tatp::TatpExecutor tatp_executor_;
    tcme::TrafficOptimizer optimizer_;
    /**
     * streamShape memo. The key words are the fault epoch, the bit
     * pattern of bytes_per_round, the degree, the group count, then
     * each group's size and dies; a result computed under one epoch
     * can never be served under another, even when its insert races
     * a setFaults(). Thread-safe; mutable like schedule_cache_.
     */
    mutable common::BoundedCache<std::vector<std::uint64_t>, StreamShape,
                                 WordsHash>
        streams_;
    /// Registration id of the wafer epoch listener that eagerly
    /// flushes the schedule cache, stream memo and route pool on
    /// setFaults().
    std::uint64_t epoch_listener_id_ = 0;
};

}  // namespace temp::cost
