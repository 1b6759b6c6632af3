/**
 * @file
 * Unit tests for the network layer: routing, link loads, the contention
 * model, collective schedules and multicast trees.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "hw/fault.hpp"
#include "hw/topology.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"

namespace temp::net {
namespace {

using hw::DieId;
using hw::LinkId;
using hw::MeshTopology;

/// Walks a route and returns the die sequence it visits.
std::vector<DieId>
visitedDies(const MeshTopology &mesh, const Route &route)
{
    std::vector<DieId> dies{route.src};
    for (LinkId link : route.links)
        dies.push_back(mesh.link(link).dst);
    return dies;
}

TEST(Router, XYRouteHasManhattanLength)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const DieId src = mesh.dieAt(0, 0);
    const DieId dst = mesh.dieAt(3, 5);
    const Route route = router.route(src, dst, RoutePolicy::XY);
    EXPECT_EQ(route.hops(), mesh.hopDistance(src, dst));
    // XY: column moves first.
    const auto dies = visitedDies(mesh, route);
    EXPECT_EQ(dies.front(), src);
    EXPECT_EQ(dies.back(), dst);
    EXPECT_EQ(mesh.coordOf(dies[1]).row, 0);
    EXPECT_EQ(mesh.coordOf(dies[1]).col, 1);
}

TEST(Router, YXRouteMovesRowsFirst)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const Route route =
        router.route(mesh.dieAt(0, 0), mesh.dieAt(3, 5), RoutePolicy::YX);
    EXPECT_EQ(route.hops(), 8);
    const auto dies = visitedDies(mesh, route);
    EXPECT_EQ(mesh.coordOf(dies[1]).row, 1);
    EXPECT_EQ(mesh.coordOf(dies[1]).col, 0);
}

TEST(Router, SelfRouteIsEmpty)
{
    MeshTopology mesh(2, 2);
    Router router(mesh);
    EXPECT_TRUE(router.route(0, 0).empty());
}

TEST(Router, RouteViaWaypointConcatenates)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const DieId src = mesh.dieAt(0, 0);
    const DieId way = mesh.dieAt(2, 0);
    const DieId dst = mesh.dieAt(0, 2);
    const Route route = router.routeVia(src, way, dst);
    EXPECT_EQ(route.hops(), 2 + 4);  // down 2, then XY back up and across
    EXPECT_EQ(route.src, src);
    EXPECT_EQ(route.dst, dst);
}

TEST(Router, ShortestPathAvoidsFailedLinks)
{
    MeshTopology mesh(3, 3);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    // Cut the direct horizontal link 0->1 (and reverse).
    faults.failLink(mesh.linkId(0, 1));
    faults.failLink(mesh.linkId(1, 0));
    Router router(mesh, &faults);
    const auto path = router.shortestPath(0, 1);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->hops(), 3);  // detour through the next row
    for (LinkId link : path->links)
        EXPECT_FALSE(faults.linkFailed(link));
}

TEST(Router, ShortestPathReportsPartition)
{
    MeshTopology mesh(1, 2);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    faults.failLink(mesh.linkId(0, 1));
    faults.failLink(mesh.linkId(1, 0));
    Router router(mesh, &faults);
    EXPECT_FALSE(router.shortestPath(0, 1).has_value());
}

TEST(Router, CandidateRoutesAreDistinctAndValid)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const DieId src = mesh.dieAt(1, 1);
    const DieId dst = mesh.dieAt(2, 4);
    const auto candidates = router.candidateRoutes(src, dst);
    EXPECT_GE(candidates.size(), 2u);
    for (const Route &r : candidates) {
        EXPECT_EQ(r.src, src);
        EXPECT_EQ(r.dst, dst);
        const auto dies = visitedDies(mesh, r);
        EXPECT_EQ(dies.back(), dst);
    }
    // All candidates have distinct link sequences.
    for (std::size_t i = 0; i < candidates.size(); ++i)
        for (std::size_t j = i + 1; j < candidates.size(); ++j)
            EXPECT_NE(candidates[i].links, candidates[j].links);
}

TEST(LinkLoad, AddRemoveAndMax)
{
    MeshTopology mesh(2, 2);
    Router router(mesh);
    LinkLoadMap loads(mesh.linkCount());
    const Route route = router.route(0, 3);
    loads.add(route, 100.0);
    EXPECT_DOUBLE_EQ(loads.maxLoad(), 100.0);
    EXPECT_EQ(loads.activeLinkCount(), 2);
    loads.remove(route, 100.0);
    EXPECT_DOUBLE_EQ(loads.maxLoad(), 0.0);
}

TEST(Contention, SingleFlowTime)
{
    MeshTopology mesh(1, 8);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 200e-9);
    Flow flow;
    flow.src = 0;
    flow.dst = 7;
    flow.bytes = 4e9;  // 4 GB over 4 TB/s = 1 ms
    flow.route = router.route(0, 7);
    const PhaseTiming t = model.evaluate({flow});
    EXPECT_NEAR(t.time_s, 1e-3 + 7 * 200e-9, 1e-9);
    EXPECT_EQ(t.max_hops, 7);
}

TEST(Contention, SharedLinkDoublesTime)
{
    // The Fig. 5(b) scenario: two flows forced through one link take >2x
    // the contention-free time.
    MeshTopology mesh(1, 4);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 0.0);

    Flow a;
    a.src = 0;
    a.dst = 2;
    a.bytes = 1e9;
    a.route = router.route(0, 2);
    Flow b;
    b.src = 1;
    b.dst = 3;
    b.bytes = 1e9;
    b.route = router.route(1, 3);

    const double solo = model.evaluate({a}).time_s;
    const double both = model.evaluate({a, b}).time_s;
    EXPECT_NEAR(both / solo, 2.0, 1e-9);
    // Bottleneck is the shared link 1->2.
    const PhaseTiming t = model.evaluate({a, b});
    EXPECT_EQ(t.bottleneck_link, mesh.linkId(1, 2));
    EXPECT_DOUBLE_EQ(t.bottleneck_bytes, 2e9);
}

TEST(Contention, DisjointFlowsRunConcurrently)
{
    MeshTopology mesh(2, 4);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 0.0);
    Flow a;
    a.src = mesh.dieAt(0, 0);
    a.dst = mesh.dieAt(0, 1);
    a.bytes = 1e9;
    a.route = router.route(a.src, a.dst);
    Flow b;
    b.src = mesh.dieAt(1, 0);
    b.dst = mesh.dieAt(1, 1);
    b.bytes = 1e9;
    b.route = router.route(b.src, b.dst);
    const double solo = model.evaluate({a}).time_s;
    const double both = model.evaluate({a, b}).time_s;
    EXPECT_NEAR(both, solo, 1e-12);
}

TEST(Contention, EmptyPhaseIsFree)
{
    MeshTopology mesh(2, 2);
    ContentionModel model(mesh, 4e12, 200e-9);
    EXPECT_DOUBLE_EQ(model.evaluate(std::vector<Flow>{}).time_s, 0.0);
}

TEST(Contention, SequenceSumsRounds)
{
    MeshTopology mesh(1, 2);
    Router router(mesh);
    ContentionModel model(mesh, 1e12, 0.0);
    Flow f;
    f.src = 0;
    f.dst = 1;
    f.bytes = 1e9;
    f.route = router.route(0, 1);
    const PhaseTiming t = model.evaluateSequence({{f}, {f}, {f}});
    EXPECT_NEAR(t.time_s, 3e-3, 1e-12);
    EXPECT_DOUBLE_EQ(t.total_bytes, 3e9);
}

TEST(Collective, RingAllGatherRoundsAndVolume)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{0, 1, 2, 3};
    const CommSchedule s = sched.ringAllGather(group, 1e6);
    EXPECT_EQ(s.roundCount(), 3);  // N-1 rounds
    for (int r = 0; r < s.roundCount(); ++r)
        EXPECT_EQ(s.round(r).size(), 4u);  // every member forwards
    EXPECT_DOUBLE_EQ(s.payload_bytes, 1e6 * 4 * 3);
}

TEST(Collective, AllReduceMovesTwiceTheScatterVolume)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{0, 1, 2, 3};
    const CommSchedule rs = sched.ringReduceScatter(group, 4e6);
    const CommSchedule ar = sched.ringAllReduce(group, 4e6);
    EXPECT_EQ(ar.roundCount(), 2 * rs.roundCount());
    // Exactly the reduce-scatter followed by the same-sized all-gather:
    // flow for flow, and the payload rounds like their sum.
    EXPECT_EQ(ar.payload_bytes, rs.payload_bytes + rs.payload_bytes);
    ASSERT_EQ(ar.flowCount(), 2 * rs.flowCount());
    for (std::size_t f = 0; f < ar.flowCount(); ++f) {
        const Flow &a = ar.flows()[f];
        const Flow &b = rs.flows()[f % rs.flowCount()];
        EXPECT_EQ(a.src, b.src);
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_TRUE(a.route.sameLinks(b.route));
    }
    for (int r = 0; r < rs.roundCount(); ++r)
        EXPECT_EQ(ar.roundEnd(r + rs.roundCount()),
                  ar.roundEnd(r) + rs.flowCount());
}

TEST(Collective, ContiguousRingAllGatherMatchesLowerBound)
{
    // A ring mapped onto a contiguous physical ring (2 x 4 sub-grid,
    // boustrophedon order) achieves the analytic lower bound.
    MeshTopology mesh(2, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    // Physical ring: (0,0)(0,1)(0,2)(0,3)(1,3)(1,2)(1,1)(1,0).
    std::vector<DieId> ring{mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                            mesh.dieAt(0, 2), mesh.dieAt(0, 3),
                            mesh.dieAt(1, 3), mesh.dieAt(1, 2),
                            mesh.dieAt(1, 1), mesh.dieAt(1, 0)};
    const double bw = 4e12;
    const double lat = 200e-9;
    ContentionModel model(mesh, bw, lat);
    const CommSchedule s = sched.ringAllGather(ring, 8e6);
    const double t = model.evaluateSequence(s).time_s;
    const double bound = collectiveLowerBoundTime(CollectiveKind::AllGather,
                                                  8, 8e6, bw, lat);
    EXPECT_NEAR(t, bound, 1e-12);
}

TEST(Collective, InterleavedRingOrderContends)
{
    // A ring order that interleaves dies (0,2,1,3 on a chain) forces two
    // same-direction flows through link 1->2 every round, doubling the
    // bandwidth term relative to the in-order ring (Challenge 2).
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    ContentionModel model(mesh, 4e12, 0.0);

    std::vector<DieId> in_order{0, 1, 2, 3};
    std::vector<DieId> interleaved{0, 2, 1, 3};
    const double t_good =
        model.evaluateSequence(sched.ringAllGather(in_order, 8e6))
            .time_s;
    const double t_bad =
        model.evaluateSequence(sched.ringAllGather(interleaved, 8e6))
            .time_s;
    EXPECT_NEAR(t_bad / t_good, 2.0, 1e-9);
}

TEST(Collective, MultiHopRingPaysTailLatency)
{
    // Small shards on a linear chain: the wrap-around transfer traverses
    // N-1 hops, so per-round latency is dominated by the longest flow
    // (the Fig. 5(a) tail-latency effect).
    MeshTopology mesh(1, 8);
    Router router(mesh);
    CollectiveScheduler sched(router);
    ContentionModel model(mesh, 4e12, 200e-9);

    // 64 KiB shards: bandwidth term 16 ns, latency term dominates.
    const CommSchedule s = sched.ringAllGather({0, 1, 2, 3, 4, 5, 6, 7},
                                               64.0 * 1024.0);
    const PhaseTiming t = model.evaluateSequence(s);
    EXPECT_EQ(t.max_hops, 7);
    // Each of the 7 rounds pays the 7-hop wrap latency.
    EXPECT_GT(t.time_s, 7 * 7 * 200e-9);
}

TEST(Collective, BroadcastBuildsMulticastTree)
{
    MeshTopology mesh(2, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                             mesh.dieAt(0, 2), mesh.dieAt(0, 3)};
    const CommSchedule s = sched.broadcast(group, 1e6);
    ASSERT_EQ(s.roundCount(), 1);
    // Chain multicast: three links, each carrying the payload once.
    EXPECT_EQ(s.round(0).size(), 3u);
    for (const Flow &f : s.round(0))
        EXPECT_DOUBLE_EQ(f.bytes, 1e6);
}

TEST(Collective, MulticastTreeDeduplicatesSharedPrefix)
{
    MeshTopology mesh(1, 5);
    Router router(mesh);
    // Root 0, leaves 3 and 4: routes share links 0->1->2->3.
    const MulticastTree tree = buildMulticastTree(router, 0, {3, 4});
    EXPECT_EQ(tree.links.size(), 4u);
    EXPECT_EQ(tree.depth, 4);
}

TEST(Collective, P2PSchedule)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    const CommSchedule s = sched.p2p(0, 3, 5e6, 42);
    ASSERT_EQ(s.roundCount(), 1);
    ASSERT_EQ(s.round(0).size(), 1u);
    EXPECT_EQ(s.round(0)[0].tag, 42);
    EXPECT_EQ(s.round(0)[0].route.hops(), 3);
}

TEST(Collective, DegenerateGroupsAreFree)
{
    MeshTopology mesh(2, 2);
    Router router(mesh);
    CollectiveScheduler sched(router);
    EXPECT_TRUE(sched.ringAllGather({0}, 1e6).empty());
    EXPECT_TRUE(sched.ringAllReduce({2}, 1e6).empty());
    EXPECT_TRUE(sched.p2p(1, 1, 1e6).empty());
}

TEST(Collective, LowerBoundFormulas)
{
    const double bw = 1e12;
    EXPECT_NEAR(collectiveLowerBoundTime(CollectiveKind::AllReduce, 4, 4e9,
                                         bw, 0.0),
                2.0 * 3.0 / 4.0 * 4e-3, 1e-12);
    EXPECT_NEAR(collectiveLowerBoundTime(CollectiveKind::AllGather, 4, 1e9,
                                         bw, 0.0),
                3e-3, 1e-12);
    EXPECT_DOUBLE_EQ(
        collectiveLowerBoundTime(CollectiveKind::AllReduce, 1, 1e9, bw, 0.0),
        0.0);
}

TEST(CommSchedule, LinkBytesCountsHops)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    const CommSchedule s = sched.p2p(0, 3, 1e6);
    EXPECT_DOUBLE_EQ(s.linkBytes(), 3e6);
}

}  // namespace
}  // namespace temp::net
