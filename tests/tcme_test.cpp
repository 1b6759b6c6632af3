/**
 * @file
 * Unit tests for TCME: the traffic-conscious communication optimizer
 * (Fig. 11) and the mapping-engine policies.
 */
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>

#include "common/rng.hpp"
#include "hw/topology.hpp"
#include "hw/wafer.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"
#include "tcme/mapping_policy.hpp"
#include "tcme/optimizer.hpp"

namespace temp::tcme {
namespace {

using hw::DieId;
using hw::MeshTopology;
using net::Flow;
using parallel::Axis;

Flow
makeFlow(const net::Router &router, DieId src, DieId dst, double bytes,
         int tag = 0)
{
    Flow f;
    f.src = src;
    f.dst = dst;
    f.bytes = bytes;
    f.route = router.route(src, dst);
    f.tag = tag;
    return f;
}

TEST(Optimizer, ReroutesContendingFlowsOntoIdleLinks)
{
    // The Fig. 5(b) scenario on a 2 x 4 mesh: two flows forced through
    // link 1->2 by XY routing while the second row sits idle.
    MeshTopology mesh(2, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);

    std::vector<Flow> flows;
    flows.push_back(makeFlow(router, mesh.dieAt(0, 0), mesh.dieAt(0, 2),
                             1e9, 1));
    flows.push_back(makeFlow(router, mesh.dieAt(0, 1), mesh.dieAt(0, 3),
                             1e9, 2));

    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_DOUBLE_EQ(stats.initial_max_load, 2e9);
    EXPECT_LT(stats.final_max_load, 2e9);
    EXPECT_GE(stats.reroutes, 1);
    EXPECT_GE(stats.improvement(), 1.9);

    // Verify with the contention model: the optimized phase is faster.
    net::ContentionModel model(mesh, 4e12, 0.0);
    EXPECT_NEAR(model.evaluate(flows).time_s, 1e9 / 4e12, 1e-9);
}

TEST(Optimizer, MergesDuplicatePayloadsIntoMulticast)
{
    // One source sends the same payload to three dies down a line; the
    // unicasts pile 3x the load on the first link. Merging folds them
    // into a tree with one copy per link.
    MeshTopology mesh(1, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);

    std::vector<Flow> flows;
    for (DieId dst : {1, 2, 3})
        flows.push_back(makeFlow(router, 0, dst, 1e9, 7));

    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_GE(stats.merges, 1);
    EXPECT_DOUBLE_EQ(stats.initial_max_load, 3e9);
    EXPECT_DOUBLE_EQ(stats.final_max_load, 1e9);
    // Tree has 3 links, each carrying the payload once.
    EXPECT_EQ(flows.size(), 3u);
    for (const Flow &f : flows)
        EXPECT_EQ(f.route.hops(), 1);
}

TEST(Optimizer, LeavesContentionFreePhasesAlone)
{
    MeshTopology mesh(2, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);
    std::vector<Flow> flows;
    flows.push_back(makeFlow(router, mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                             1e9, 1));
    flows.push_back(makeFlow(router, mesh.dieAt(1, 0), mesh.dieAt(1, 1),
                             1e9, 2));
    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_EQ(stats.reroutes, 0);
    EXPECT_DOUBLE_EQ(stats.final_max_load, stats.initial_max_load);
}

TEST(Optimizer, RespectsDisabledFeatures)
{
    MeshTopology mesh(1, 4);
    net::Router router(mesh);
    TrafficOptimizer::Config config;
    config.enable_merging = false;
    config.enable_rerouting = false;
    TrafficOptimizer opt(router, config);

    std::vector<Flow> flows;
    for (DieId dst : {1, 2, 3})
        flows.push_back(makeFlow(router, 0, dst, 1e9, 7));
    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_EQ(stats.merges, 0);
    EXPECT_EQ(stats.reroutes, 0);
    EXPECT_DOUBLE_EQ(stats.final_max_load, stats.initial_max_load);
}

TEST(Optimizer, OptimizesWholeSchedules)
{
    MeshTopology mesh(2, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);
    net::CommSchedule sched;
    for (int r = 0; r < 2; ++r) {
        sched.addFlow(
            makeFlow(router, mesh.dieAt(0, 0), mesh.dieAt(0, 2), 1e9, 1));
        sched.addFlow(
            makeFlow(router, mesh.dieAt(0, 1), mesh.dieAt(0, 3), 1e9, 2));
        sched.sealRound();
    }
    const OptimizationStats stats = opt.optimize(sched);
    EXPECT_EQ(stats.phases, 2);
    EXPECT_LT(stats.final_max_load, stats.initial_max_load);
}

/**
 * The optimizer as it ran before it read parts: combine the parts,
 * then rebuild the combined arena round by round through a scratch
 * copy of each round. The parts-based optimizer must reproduce it.
 */
net::CommSchedule
referenceOptimize(const TrafficOptimizer &opt,
                  std::span<const net::CommSchedule *const> parts,
                  OptimizationStats *total)
{
    net::CommSchedule phase = net::CommSchedule::combine(parts);
    std::vector<Flow> rebuilt;
    std::vector<std::uint32_t> round_end;
    std::vector<Flow> scratch;
    for (int r = 0; r < phase.roundCount(); ++r) {
        const std::span<const Flow> round =
            std::as_const(phase).round(r);
        scratch.assign(round.begin(), round.end());
        const OptimizationStats s = opt.optimizePhase(scratch);
        total->reroutes += s.reroutes;
        total->merges += s.merges;
        total->iterations += s.iterations;
        ++total->phases;
        rebuilt.insert(rebuilt.end(), scratch.begin(), scratch.end());
        round_end.push_back(static_cast<std::uint32_t>(rebuilt.size()));
    }
    phase.assign(std::move(rebuilt), std::move(round_end));
    return phase;
}

/// Flow for flow (src, dst, bytes, tag, route links), round for round.
void
expectSameSchedule(const net::CommSchedule &a, const net::CommSchedule &b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
    ASSERT_EQ(a.roundCount(), b.roundCount());
    for (int r = 0; r < a.roundCount(); ++r)
        EXPECT_EQ(a.roundEnd(r), b.roundEnd(r)) << "round " << r;
    ASSERT_EQ(a.flowCount(), b.flowCount());
    for (std::size_t i = 0; i < a.flowCount(); ++i) {
        const Flow &x = a.flows()[i];
        const Flow &y = b.flows()[i];
        EXPECT_EQ(x.src, y.src) << "flow " << i;
        EXPECT_EQ(x.dst, y.dst) << "flow " << i;
        EXPECT_EQ(x.bytes, y.bytes) << "flow " << i;
        EXPECT_EQ(x.tag, y.tag) << "flow " << i;
        EXPECT_EQ(x.route.valid(), y.route.valid()) << "flow " << i;
        EXPECT_EQ(x.route.links(), y.route.links()) << "flow " << i;
    }
}

/// 2-5 seeded tasks of every kind over random die sets, with few
/// distinct sizes and tags so duplicate payloads (merges) occur.
std::vector<net::CollectiveTask>
randomPhase(const hw::Wafer &wafer, Rng &rng)
{
    std::vector<DieId> dies(static_cast<std::size_t>(wafer.dieCount()));
    for (std::size_t d = 0; d < dies.size(); ++d)
        dies[d] = static_cast<DieId>(d);
    std::vector<net::CollectiveTask> tasks(
        static_cast<std::size_t>(rng.uniformInt(2, 5)));
    for (net::CollectiveTask &task : tasks) {
        task.kind = static_cast<net::CollectiveKind>(rng.uniformInt(
            0, static_cast<int>(net::CollectiveKind::P2P)));
        rng.shuffle(dies);
        const int size = task.kind == net::CollectiveKind::P2P
                             ? 2
                             : rng.uniformInt(2, 8);
        task.group.assign(dies.begin(), dies.begin() + size);
        task.bytes = rng.pick(std::vector<double>{4e6, 16e6, 64e6});
        task.tag = 1000 + rng.uniformInt(0, 2);
    }
    return tasks;
}

TEST(Optimizer, PartsBasedOptimizeEqualsOptimizingTheCombinedSchedule)
{
    Rng fault_rng(11);
    const hw::WaferConfig base = hw::WaferConfig::paperDefault();
    std::vector<std::unique_ptr<hw::Wafer>> wafers;
    for (const hw::WaferConfig &config : {base, base.withGrid(8, 8)}) {
        wafers.push_back(std::make_unique<hw::Wafer>(config));
        auto faulted = std::make_unique<hw::Wafer>(config);
        // Random link faults, plus die 0 cut off so that the tasks
        // that include it cannot route.
        const hw::MeshTopology &mesh = faulted->topology();
        hw::FaultMap faults =
            hw::FaultMap::randomLinkFaults(mesh, 0.1, fault_rng);
        for (hw::LinkId link = 0; link < mesh.linkCount(); ++link)
            if (mesh.link(link).src == 0 || mesh.link(link).dst == 0)
                faults.failLink(link);
        faulted->setFaults(std::move(faults));
        wafers.push_back(std::move(faulted));
    }

    int moves = 0;
    int infeasible = 0;
    for (const auto &wafer_ptr : wafers) {
        const hw::Wafer &wafer = *wafer_ptr;
        net::Router router(wafer.topology(), &wafer.faults());
        const net::CollectiveScheduler scheduler(router);
        const TrafficOptimizer opt(router);
        Rng rng(29);
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<net::CommSchedule> lowered;
            for (const net::CollectiveTask &task : randomPhase(wafer, rng)) {
                lowered.push_back(scheduler.schedule(task));
                lowered.back().finalize();
            }
            std::vector<const net::CommSchedule *> parts;
            for (const net::CommSchedule &schedule : lowered)
                parts.push_back(&schedule);
            const std::vector<net::CommSchedule> before = lowered;

            OptimizationStats expected_stats;
            const net::CommSchedule expected =
                referenceOptimize(opt, parts, &expected_stats);
            OptimizationStats stats;
            const net::CommSchedule got = opt.optimize(parts, &stats);
            expectSameSchedule(got, expected);
            EXPECT_TRUE(got.soaReady());
            EXPECT_EQ(stats.phases, expected_stats.phases);
            EXPECT_EQ(stats.reroutes, expected_stats.reroutes);
            EXPECT_EQ(stats.merges, expected_stats.merges);
            EXPECT_EQ(stats.iterations, expected_stats.iterations);
            moves += stats.reroutes + stats.merges;
            infeasible += got.feasible ? 0 : 1;

            // The parts are read, never rewritten.
            for (std::size_t i = 0; i < lowered.size(); ++i)
                expectSameSchedule(lowered[i], before[i]);

            // One part: the same as optimizing a copy of it in place.
            const std::span<const net::CommSchedule *const> first(
                parts.data(), 1);
            net::CommSchedule copy = lowered.front();
            opt.optimize(copy);
            OptimizationStats unused;
            expectSameSchedule(opt.optimize(first),
                               referenceOptimize(opt, first, &unused));
            expectSameSchedule(opt.optimize(first), copy);
        }
    }
    // The seeds exercise the optimizer's rewrites and infeasible parts.
    EXPECT_GT(moves, 0);
    EXPECT_GT(infeasible, 0);
}

TEST(Optimizer, EmptyPhaseIsNoop)
{
    MeshTopology mesh(2, 2);
    net::Router router(mesh);
    TrafficOptimizer opt(router);
    std::vector<Flow> flows;
    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_DOUBLE_EQ(stats.initial_max_load, 0.0);
    EXPECT_EQ(stats.iterations, 0);
}

TEST(Policy, SMapOrderIsFixed)
{
    const auto order = MappingPolicy::smapOrder();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(Axis::Count));
    EXPECT_EQ(order.front(), Axis::DP);
    EXPECT_EQ(order.back(), Axis::TATP);
}

TEST(Policy, GMapOrdersByVolume)
{
    AxisVolumes volumes{};
    volumes[static_cast<std::size_t>(Axis::TP)] = 100.0;
    volumes[static_cast<std::size_t>(Axis::DP)] = 10.0;
    const auto order = MappingPolicy::gmapOrder(volumes);
    EXPECT_EQ(order.front(), Axis::TP);
}

TEST(Policy, TcmePinsTatpInnermost)
{
    AxisVolumes volumes{};
    volumes[static_cast<std::size_t>(Axis::TP)] = 1e12;
    volumes[static_cast<std::size_t>(Axis::TATP)] = 1.0;
    const auto order = MappingPolicy::tcmeOrder(volumes);
    EXPECT_EQ(order.front(), Axis::TATP);
    EXPECT_EQ(order[1], Axis::TP);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(Axis::Count));
}

TEST(Policy, ContentionOptOnlyForTcme)
{
    EXPECT_TRUE(MappingPolicy{MappingEngineKind::TCME}
                    .contentionOptimization());
    EXPECT_FALSE(MappingPolicy{MappingEngineKind::SMap}
                     .contentionOptimization());
    EXPECT_FALSE(MappingPolicy{MappingEngineKind::GMap}
                     .contentionOptimization());
}

TEST(Policy, EngineNames)
{
    EXPECT_STREQ(mappingEngineName(MappingEngineKind::SMap), "SMap");
    EXPECT_STREQ(mappingEngineName(MappingEngineKind::TCME), "TCME");
}

}  // namespace
}  // namespace temp::tcme
