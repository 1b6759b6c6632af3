/**
 * @file
 * Tests for the network hot path's schedule layer: ScheduleCache
 * hit/miss accounting, bit-exact cached vs. uncached timings,
 * fault-epoch invalidation (injected faults must not reuse stale
 * routes), the phase-cost memo (one task or several, order-sensitive,
 * budget- and epoch-governed), flat-arena CommSchedule invariants, and
 * determinism of the whole stack across eval_threads.
 */
#include <gtest/gtest.h>

#include <vector>

#include "core/framework.hpp"
#include "cost/cost_model.hpp"
#include "hw/wafer.hpp"
#include "model/model_zoo.hpp"
#include "net/collective.hpp"
#include "net/schedule_cache.hpp"
#include "tcme/optimizer.hpp"

namespace temp::net {
namespace {

CollectiveTask
allReduceTask(std::vector<DieId> group, double bytes, int tag = 0)
{
    CollectiveTask task;
    task.kind = CollectiveKind::AllReduce;
    task.group = std::move(group);
    task.bytes = bytes;
    task.tag = tag;
    return task;
}

/**
 * A phase costed by hand, outside any cache: lower every task, combine
 * them in order, optimize, evaluate (what the cost model's memo must
 * reproduce bit for bit).
 */
struct FreshPhase
{
    PhaseTiming timing;
    double link_bytes = 0.0;
    int optimizer_moves = 0;  ///< reroutes + merges
};

FreshPhase
freshPhase(const hw::Wafer &wafer, const std::vector<CollectiveTask> &tasks)
{
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    tcme::TrafficOptimizer optimizer(router);
    ContentionModel contention(wafer, wafer.config().d2d.latency_s);

    std::vector<CommSchedule> lowered;
    for (const CollectiveTask &task : tasks) {
        lowered.push_back(scheduler.schedule(task));
        lowered.back().finalize();
    }
    std::vector<const CommSchedule *> parts;
    for (const CommSchedule &schedule : lowered)
        parts.push_back(&schedule);
    CommSchedule phase = CommSchedule::combine(parts);
    const tcme::OptimizationStats moved = optimizer.optimize(phase);
    return {contention.evaluateSequence(phase), phase.linkBytes(),
            moved.reroutes + moved.merges};
}

void
expectSameTiming(const PhaseTiming &a, const PhaseTiming &b)
{
    EXPECT_EQ(a.time_s, b.time_s);
    EXPECT_EQ(a.serial_time_s, b.serial_time_s);
    EXPECT_EQ(a.bottleneck_link, b.bottleneck_link);
    EXPECT_EQ(a.bottleneck_bytes, b.bottleneck_bytes);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.link_bytes, b.link_bytes);
    EXPECT_EQ(a.max_hops, b.max_hops);
    EXPECT_EQ(a.bandwidth_utilization, b.bandwidth_utilization);
}

/// Multi-task phases whose groups share links on the 4x8 paper wafer
/// (rows, a column, a block), so combining them makes them contend.
std::vector<std::vector<CollectiveTask>>
contendingPhases()
{
    CollectiveTask gather = allReduceTask({0, 8, 16, 24}, 24e6, 1001);
    gather.kind = CollectiveKind::AllGather;
    return {
        {allReduceTask({0, 1, 2, 3}, 16e6, 1000), gather},
        {allReduceTask({0, 1, 2, 3}, 16e6, 1000), gather,
         allReduceTask({1, 2, 9, 10}, 8e6, 1002)},
        {allReduceTask({0, 1, 2, 3, 4, 5, 6, 7}, 64e6, 1000),
         allReduceTask({8, 9, 10, 11, 12, 13, 14, 15}, 64e6, 1000),
         allReduceTask({0, 8, 16, 24}, 32e6, 1001),
         allReduceTask({3, 11, 19, 27}, 32e6, 1001)},
    };
}

TEST(ScheduleCache, CountsLoweringsAndHitsHonestly)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    ScheduleCache cache(scheduler);

    const CollectiveTask task = allReduceTask({0, 1, 2, 3}, 4e6);
    bool hit = true;
    const auto first = cache.lowered(task, wafer.faultEpoch(), &hit);
    EXPECT_FALSE(hit);
    const auto second = cache.lowered(task, wafer.faultEpoch(), &hit);
    EXPECT_TRUE(hit);
    // Hits share the lowered instance, they do not re-lower.
    EXPECT_EQ(first.get(), second.get());

    const ScheduleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.lowerings, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
    EXPECT_EQ(cache.size(), 1u);

    // A different signature (bytes) is its own entry.
    cache.lowered(allReduceTask({0, 1, 2, 3}, 8e6), wafer.faultEpoch());
    EXPECT_EQ(cache.stats().lowerings, 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ScheduleCache, CachedScheduleTimesBitExactly)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    ScheduleCache cache(scheduler);
    ContentionModel contention(wafer, 200e-9);

    for (int size : {2, 4, 8, 16}) {
        std::vector<DieId> group;
        for (int i = 0; i < size; ++i)
            group.push_back(i);
        const CollectiveTask task = allReduceTask(group, 1e6 * size);

        const CommSchedule fresh = scheduler.schedule(task);
        const auto cached = cache.lowered(task, wafer.faultEpoch());
        const auto served = cache.lowered(task, wafer.faultEpoch());

        const PhaseTiming t_fresh = contention.evaluateSequence(fresh);
        const PhaseTiming t_cached = contention.evaluateSequence(*cached);
        const PhaseTiming t_served = contention.evaluateSequence(*served);
        EXPECT_EQ(t_fresh.time_s, t_cached.time_s);
        EXPECT_EQ(t_fresh.time_s, t_served.time_s);
        EXPECT_EQ(t_fresh.total_bytes, t_cached.total_bytes);
        EXPECT_EQ(t_fresh.bottleneck_link, t_cached.bottleneck_link);
        EXPECT_EQ(fresh.linkBytes(), cached->linkBytes());
    }
}

TEST(ScheduleCache, FaultInjectionBumpsEpochAndInvalidates)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    ScheduleCache cache(scheduler);

    const std::uint64_t healthy_epoch = wafer.faultEpoch();
    const CollectiveTask task = allReduceTask({0, 1, 2, 3}, 4e6);
    const auto healthy = cache.lowered(task, healthy_epoch);
    EXPECT_TRUE(healthy->feasible);

    // Fail the 1->2 channel (both directions), which the healthy ring
    // crosses.
    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    faults.failLink(wafer.topology().linkId(2, 1));
    wafer.setFaults(faults);
    EXPECT_GT(wafer.faultEpoch(), healthy_epoch);

    // The stale schedule must not be served: the lookup re-lowers
    // against the degraded fabric and the detour shows up as longer
    // routes.
    bool hit = true;
    const auto degraded = cache.lowered(task, wafer.faultEpoch(), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().lowerings, 2);
    EXPECT_TRUE(degraded->feasible);
    EXPECT_GT(degraded->linkBytes(), healthy->linkBytes());
    for (const Flow &flow : degraded->flows())
        for (LinkId link : flow.route.links())
            EXPECT_TRUE(wafer.linkUsable(link));

    // Same epoch again: served from the rebuilt cache.
    cache.lowered(task, wafer.faultEpoch(), &hit);
    EXPECT_TRUE(hit);
}

TEST(ScheduleCache, CostModelReactsToLiveFaultInjection)
{
    // End-to-end: the cost model's shared cache and its wafer-bound
    // contention snapshot must both observe setFaults() on a live
    // wafer.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const std::vector<CollectiveTask> tasks{
        allReduceTask({0, 1, 2, 3}, 64e6)};

    const PhaseTiming healthy = model.timeCollectiveTasks(tasks);
    const net::ScheduleCacheStats before = model.scheduleStats();
    EXPECT_GT(before.lowerings, 0);

    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    faults.failLink(wafer.topology().linkId(2, 1));
    wafer.setFaults(faults);

    const PhaseTiming degraded = model.timeCollectiveTasks(tasks);
    const net::ScheduleCacheStats after = model.scheduleStats();
    // Epoch bump forced a re-lowering instead of a stale hit...
    EXPECT_GT(after.lowerings, before.lowerings);
    // ...and the detour costs more wall time than the healthy ring.
    EXPECT_GT(degraded.time_s, healthy.time_s);
}

TEST(ScheduleCache, StoredSingleTaskCostEqualsFreshOptimizeAndEvaluate)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    // A one-task phase by hand: lower, optimize a copy, evaluate. The
    // phase memo stores it like any other phase.
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    tcme::TrafficOptimizer optimizer(router);
    ContentionModel contention(wafer, wafer.config().d2d.latency_s);

    int optimized_away = 0;  // tasks the optimizer rerouted or merged
    int tasks = 0;
    for (CollectiveKind kind :
         {CollectiveKind::AllReduce, CollectiveKind::AllGather}) {
        for (int size : {2, 4, 8, 16}) {
            CollectiveTask task = allReduceTask({}, 2e6 * size);
            task.kind = kind;
            for (int i = 0; i < size; ++i)
                task.group.push_back((i * 5) % wafer.dieCount());
            ++tasks;

            CommSchedule fresh = scheduler.schedule(task);
            fresh.finalize();
            const tcme::OptimizationStats moved =
                optimizer.optimize(fresh);
            const PhaseTiming expected =
                contention.evaluateSequence(fresh);
            if (moved.reroutes + moved.merges > 0)
                ++optimized_away;

            // The first call computes the phase's cost, the second
            // reads it from the phase memo.
            for (int call = 0; call < 2; ++call) {
                double link_bytes = 0.0;
                const PhaseTiming timing =
                    model.timeCollectiveTasks({task}, &link_bytes);
                EXPECT_EQ(timing.time_s, expected.time_s) << size;
                EXPECT_EQ(timing.total_bytes, expected.total_bytes);
                EXPECT_EQ(timing.link_bytes, expected.link_bytes);
                EXPECT_EQ(timing.bottleneck_link,
                          expected.bottleneck_link);
                EXPECT_EQ(timing.bandwidth_utilization,
                          expected.bandwidth_utilization);
                EXPECT_EQ(link_bytes, fresh.linkBytes());
            }
        }
    }
    // The optimizer must have changed some schedule, or this test
    // could not tell the optimized cost from the unoptimized one.
    EXPECT_GT(optimized_away, 0);
    EXPECT_EQ(model.scheduleStats().lowerings, tasks);
    EXPECT_EQ(model.scheduleStats().hits, tasks);
    const common::CacheStats phases = model.phaseCacheStats();
    EXPECT_EQ(phases.misses, tasks);
    EXPECT_EQ(phases.hits, tasks);
    EXPECT_EQ(phases.entries, tasks);
}

TEST(ScheduleCache, EvictedOrFlushedSingleTaskCostRecomputes)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    common::CacheBudget budget;
    budget.max_schedule_entries = 1;
    model.setCacheBudgets(budget);

    const std::vector<CollectiveTask> a{allReduceTask({0, 1, 2, 3}, 8e6)};
    const std::vector<CollectiveTask> b{
        allReduceTask({4, 5, 6, 7, 12, 13}, 8e6)};
    const PhaseTiming first = model.timeCollectiveTasks(a);
    EXPECT_EQ(model.scheduleStats().lowerings, 1);

    // Evicted by b under the 1-entry budget (which bounds the schedule
    // and the phase store each): a re-lowers, recounts as a lowering,
    // and its phase recomputes the same cost.
    (void)model.timeCollectiveTasks(b);
    const PhaseTiming evicted = model.timeCollectiveTasks(a);
    EXPECT_EQ(model.scheduleStats().lowerings, 3);
    EXPECT_EQ(model.scheduleStats().hits, 0);
    EXPECT_EQ(model.phaseCacheStats().misses, 3);
    EXPECT_EQ(model.phaseCacheStats().entries, 1);
    EXPECT_EQ(evicted.time_s, first.time_s);
    EXPECT_EQ(evicted.link_bytes, first.link_bytes);

    // Flushed by a fault-epoch change (to the same healthy state): the
    // same again.
    wafer.setFaults(
        hw::FaultMap(wafer.dieCount(), wafer.topology().linkCount()));
    EXPECT_EQ(model.scheduleCacheStats().entries, 0);
    EXPECT_EQ(model.phaseCacheStats().entries, 0);
    const PhaseTiming flushed = model.timeCollectiveTasks(a);
    EXPECT_EQ(model.scheduleStats().lowerings, 4);
    EXPECT_EQ(flushed.time_s, first.time_s);
    EXPECT_EQ(flushed.link_bytes, first.link_bytes);

    // Resident again: served, not recomputed.
    EXPECT_EQ(model.timeCollectiveTasks(a).time_s, first.time_s);
    EXPECT_EQ(model.scheduleStats().lowerings, 4);
    EXPECT_EQ(model.scheduleStats().hits, 1);
    EXPECT_EQ(model.phaseCacheStats().misses, 4);
    EXPECT_EQ(model.phaseCacheStats().hits, 1);
}

TEST(ScheduleCache, MultiTaskPhaseFromMemoEqualsFreshCombineOptimizeEvaluate)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});

    int optimizer_moves = 0;
    int phases = 0;
    for (const std::vector<CollectiveTask> &tasks : contendingPhases()) {
        const FreshPhase fresh = freshPhase(wafer, tasks);
        optimizer_moves += fresh.optimizer_moves;
        ++phases;
        // First call computes, second is served from the memo; both
        // equal the hand-made phase bit for bit.
        for (int call = 0; call < 2; ++call) {
            double link_bytes = 0.0;
            expectSameTiming(model.timeCollectiveTasks(tasks, &link_bytes),
                             fresh.timing);
            EXPECT_EQ(link_bytes, fresh.link_bytes);
        }
    }
    // The optimizer changed some phase, so an unoptimized memo value
    // would have been caught.
    EXPECT_GT(optimizer_moves, 0);
    EXPECT_EQ(model.phaseCacheStats().misses, phases);
    EXPECT_EQ(model.phaseCacheStats().hits, phases);
}

TEST(ScheduleCache, TaskOrderIsPartOfThePhaseKey)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});

    for (const std::vector<CollectiveTask> &tasks : contendingPhases()) {
        const std::vector<CollectiveTask> reversed(tasks.rbegin(),
                                                   tasks.rend());
        const common::CacheStats before = model.phaseCacheStats();
        expectSameTiming(model.timeCollectiveTasks(tasks),
                         freshPhase(wafer, tasks).timing);
        expectSameTiming(model.timeCollectiveTasks(reversed),
                         freshPhase(wafer, reversed).timing);
        // Two entries, neither served from the other.
        const common::CacheStats after = model.phaseCacheStats();
        EXPECT_EQ(after.misses - before.misses, 2);
        EXPECT_EQ(after.hits, before.hits);
        EXPECT_EQ(after.entries - before.entries, 2);
    }
    // The reversed lookups lowered nothing new: order changes only the
    // phase key, not the per-task schedule lookups.
    const ScheduleCacheStats stats = model.scheduleStats();
    EXPECT_EQ(stats.lowerings, 7);  // distinct tasks over all phases
}

TEST(ScheduleCache, PhaseCostsAreBitIdenticalUnderAOneEntryBudget)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel unbounded(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    cost::WaferCostModel bounded(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    common::CacheBudget budget;
    budget.max_schedule_entries = 1;
    bounded.setCacheBudgets(budget);

    // Cycle through the phases three times, so the bounded model
    // evicts and recomputes every phase on every pass.
    const std::vector<std::vector<CollectiveTask>> phases =
        contendingPhases();
    for (int pass = 0; pass < 3; ++pass) {
        for (const std::vector<CollectiveTask> &tasks : phases) {
            double bytes_unbounded = 0.0;
            double bytes_bounded = 0.0;
            expectSameTiming(
                bounded.timeCollectiveTasks(tasks, &bytes_bounded),
                unbounded.timeCollectiveTasks(tasks, &bytes_unbounded));
            EXPECT_EQ(bytes_bounded, bytes_unbounded);
            EXPECT_LE(bounded.phaseCacheStats().entries, 1);
        }
    }
    EXPECT_EQ(bounded.phaseCacheStats().misses, 3 * 3);
    EXPECT_GT(bounded.phaseCacheStats().evictions, 0);
    EXPECT_EQ(unbounded.phaseCacheStats().misses, 3);
}

TEST(ScheduleCache, PhaseRecomputesUnderANewFaultEpoch)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const std::vector<CollectiveTask> tasks = contendingPhases()[1];

    const PhaseTiming healthy = model.timeCollectiveTasks(tasks);
    EXPECT_EQ(model.phaseCacheStats().entries, 1);

    // Fail the 1->2 channel, which the first ring crosses: the eager
    // flush drops the phase, and the next query recomputes it over the
    // re-lowered detour instead of serving the healthy cost.
    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    faults.failLink(wafer.topology().linkId(2, 1));
    wafer.setFaults(faults);
    EXPECT_EQ(model.phaseCacheStats().entries, 0);

    const PhaseTiming degraded = model.timeCollectiveTasks(tasks);
    expectSameTiming(degraded, freshPhase(wafer, tasks).timing);
    EXPECT_NE(degraded.link_bytes, healthy.link_bytes);
    EXPECT_EQ(model.phaseCacheStats().misses, 2);
    EXPECT_EQ(model.phaseCacheStats().hits, 0);
}


TEST(CommSchedule, FlatArenaRoundsPartitionTheFlowArena)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);

    const CommSchedule s = scheduler.ringAllReduce(
        {0, 1, 2, 3, 4, 5, 6, 7}, 32e6);
    std::size_t spanned = 0;
    for (int r = 0; r < s.roundCount(); ++r) {
        const auto round = s.round(r);
        // Rounds are contiguous, ordered slices of flows().
        EXPECT_EQ(round.data(), s.flows().data() + spanned);
        spanned += round.size();
    }
    EXPECT_EQ(spanned, s.flowCount());

    // combine() interleaves per round and preserves totals.
    const CommSchedule a = scheduler.p2p(0, 3, 1e6);
    const CommSchedule b = scheduler.ringAllGather({4, 5, 6, 7}, 2e6);
    const CommSchedule *parts[] = {&a, &b};
    const CommSchedule merged = CommSchedule::combine(parts);
    EXPECT_EQ(merged.roundCount(), b.roundCount());
    EXPECT_EQ(merged.flowCount(), a.flowCount() + b.flowCount());
    EXPECT_DOUBLE_EQ(merged.payload_bytes,
                     a.payload_bytes + b.payload_bytes);
    EXPECT_DOUBLE_EQ(merged.linkBytes(), a.linkBytes() + b.linkBytes());
}

TEST(ScheduleCache, SolveIsDeterministicAcrossEvalThreads)
{
    // The flat-arena schedules and the shared cache must not leak any
    // thread-count dependence into results: identical per-op specs and
    // bit-identical step time for 1-thread and 4-thread frameworks,
    // and the schedule accounting's total lookup count matches too
    // (the lowerings/hits split is attribution, the sum is work).
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    core::FrameworkOptions serial;
    serial.eval_threads = 1;
    serial.solver.ga_population = 8;
    serial.solver.ga_generations = 4;
    core::FrameworkOptions wide = serial;
    wide.eval_threads = 4;

    const core::TempFramework f1(hw::WaferConfig::paperDefault(), serial);
    const core::TempFramework f4(hw::WaferConfig::paperDefault(), wide);
    const solver::SolverResult r1 = f1.optimize(model);
    const solver::SolverResult r4 = f4.optimize(model);

    ASSERT_TRUE(r1.feasible);
    ASSERT_TRUE(r4.feasible);
    EXPECT_EQ(r1.per_op_specs, r4.per_op_specs);
    EXPECT_DOUBLE_EQ(r1.step_time_s, r4.step_time_s);
    EXPECT_GT(r1.schedule_lowerings, 0);
    EXPECT_GT(r1.schedule_cache_hits, 0);
    EXPECT_EQ(r1.schedule_lowerings + r1.schedule_cache_hits,
              r4.schedule_lowerings + r4.schedule_cache_hits);
    // Cold-solve acceptance: most lookups are served by the cache.
    const double hit_rate =
        static_cast<double>(r1.schedule_cache_hits) /
        static_cast<double>(r1.schedule_lowerings +
                            r1.schedule_cache_hits);
    EXPECT_GT(hit_rate, 0.5);
}

TEST(ScheduleCache, SolveIsBitIdenticalAcrossThreadsAndAOneEntryBudget)
{
    // The phase memo is filled by whichever worker asks first and, at
    // a 1-entry budget, evicted and recomputed constantly: neither may
    // move the answer.
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    core::FrameworkOptions base;
    base.solver.ga_population = 8;
    base.solver.ga_generations = 4;

    std::vector<solver::SolverResult> results;
    for (int threads : {1, 4}) {
        for (long entries : {0L, 1L}) {
            core::FrameworkOptions options = base;
            options.eval_threads = threads;
            options.cache.max_schedule_entries = entries;
            const core::TempFramework framework(
                hw::WaferConfig::paperDefault(), options);
            results.push_back(framework.optimize(model));
            ASSERT_TRUE(results.back().feasible);
        }
    }
    for (const solver::SolverResult &result : results) {
        EXPECT_EQ(result.per_op_specs, results.front().per_op_specs);
        EXPECT_EQ(result.step_time_s, results.front().step_time_s);
    }
}

}  // namespace
}  // namespace temp::net
