#include "tcme/optimizer.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>

#include "common/logging.hpp"

namespace temp::tcme {

using net::Flow;
using net::LinkLoadMap;
using net::Route;

TrafficOptimizer::TrafficOptimizer(const net::Router &router)
    : TrafficOptimizer(router, Config())
{
}

TrafficOptimizer::TrafficOptimizer(const net::Router &router, Config config)
    : router_(router), config_(config)
{
}

net::CommSchedule
TrafficOptimizer::optimize(std::span<const net::CommSchedule *const> parts,
                           OptimizationStats *stats) const
{
    net::CommSchedule out;
    std::size_t flow_count = 0;
    std::size_t round_count = 0;
    for (const net::CommSchedule *part : parts) {
        flow_count += part->flowCount();
        round_count = std::max(
            round_count, static_cast<std::size_t>(part->roundCount()));
        out.payload_bytes += part->payload_bytes;
        out.feasible = out.feasible && part->feasible;
    }

    // Each round is assembled from the parts into a reused scratch
    // vector, optimised there, and moved into the new arena: path
    // merging can change a round's flow count, so rounds cannot be
    // rewritten in place. Each flow is copied once, out of its part.
    OptimizationStats total;
    std::vector<net::Flow> rebuilt;
    rebuilt.reserve(flow_count);
    std::vector<std::uint32_t> round_end;
    round_end.reserve(round_count);
    std::vector<net::Flow> scratch;
    for (std::size_t r = 0; r < round_count; ++r) {
        scratch.clear();
        for (const net::CommSchedule *part : parts) {
            if (static_cast<int>(r) >= part->roundCount())
                continue;
            const std::span<const net::Flow> round =
                part->round(static_cast<int>(r));
            scratch.insert(scratch.end(), round.begin(), round.end());
        }
        const OptimizationStats s = optimizePhase(scratch);
        total.initial_max_load = std::max(total.initial_max_load,
                                          s.initial_max_load);
        total.final_max_load = std::max(total.final_max_load,
                                        s.final_max_load);
        total.iterations += s.iterations;
        total.reroutes += s.reroutes;
        total.merges += s.merges;
        ++total.phases;
        rebuilt.insert(rebuilt.end(), std::make_move_iterator(scratch.begin()),
                       std::make_move_iterator(scratch.end()));
        round_end.push_back(static_cast<std::uint32_t>(rebuilt.size()));
    }
    out.assign(std::move(rebuilt), std::move(round_end));
    // The optimized schedule goes straight to contention evaluation;
    // hand it the SoA deposit path.
    out.finalize();
    if (stats != nullptr)
        *stats = total;
    return out;
}

OptimizationStats
TrafficOptimizer::optimize(net::CommSchedule &schedule) const
{
    const net::CommSchedule *part = &schedule;
    OptimizationStats stats;
    schedule = optimize(std::span(&part, 1), &stats);
    return stats;
}

OptimizationStats
TrafficOptimizer::optimizePhase(std::vector<Flow> &flows) const
{
    OptimizationStats stats;
    stats.phases = 1;
    if (flows.empty())
        return stats;

    // Phase 1 happened upstream (flows carry initial routes). Build the
    // load picture.
    LinkLoadMap loads(router_.topology().linkCount());
    for (const Flow &flow : flows)
        loads.add(flow.route, flow.bytes);

    // Phase 2: bottleneck identification.
    hw::LinkId mcl = loads.maxLoadLink();
    double cur = loads.load(mcl);
    stats.initial_max_load = cur;
    double prev = 2.0 * cur;

    // Phases 3-5: iterate while the bottleneck keeps improving.
    while (cur < prev && cur > 0.0) {
        if (stats.iterations >= config_.max_iters)
            break;
        prev = cur;
        ++stats.iterations;

        if (config_.enable_merging)
            stats.merges += mergeDuplicates(flows, loads, mcl);
        if (config_.enable_rerouting)
            stats.reroutes += rerouteCongested(flows, loads, mcl);

        mcl = loads.maxLoadLink();
        cur = loads.load(mcl);
    }
    stats.final_max_load = loads.maxLoad();
    return stats;
}

int
TrafficOptimizer::mergeDuplicates(std::vector<Flow> &flows,
                                  LinkLoadMap &loads, hw::LinkId mcl) const
{
    // Duplicate payloads: same source, tag and size crossing the
    // bottleneck toward different destinations (e.g. a broadcast that
    // was lowered to unicasts). Fold them into one multicast tree.
    struct Key
    {
        hw::DieId src;
        int tag;
        long long bytes_q;
        bool operator<(const Key &o) const
        {
            if (src != o.src)
                return src < o.src;
            if (tag != o.tag)
                return tag < o.tag;
            return bytes_q < o.bytes_q;
        }
    };
    std::map<Key, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow &f = flows[i];
        const auto &links = f.route.links();
        const bool crosses =
            std::find(links.begin(), links.end(), mcl) != links.end();
        if (!crosses)
            continue;
        buckets[Key{f.src, f.tag,
                    static_cast<long long>(f.bytes)}].push_back(i);
    }

    int merges = 0;
    std::vector<std::size_t> to_remove;
    std::vector<Flow> to_add;
    for (const auto &[key, idxs] : buckets) {
        if (idxs.size() < 2)
            continue;
        // Build a multicast tree covering all destinations.
        std::vector<hw::DieId> leaves;
        for (std::size_t i : idxs)
            leaves.push_back(flows[i].dst);
        const net::MulticastTree tree =
            net::buildMulticastTree(router_, key.src, leaves);
        if (!tree.complete)
            continue;  // faults block a fault-free tree; keep unicasts
        // Tree payload: one copy per tree link instead of one per flow.
        const double bytes = flows[idxs[0]].bytes;
        double before = 0.0;
        for (std::size_t i : idxs)
            before += bytes * flows[i].route.hops();
        const double after = bytes * static_cast<double>(tree.links.size());
        if (after >= before)
            continue;  // no savings; keep unicasts

        for (std::size_t i : idxs) {
            loads.remove(flows[i].route, flows[i].bytes);
            to_remove.push_back(i);
        }
        for (hw::LinkId link : tree.links) {
            Flow branch;
            const hw::Link &l = router_.topology().link(link);
            branch.src = l.src;
            branch.dst = l.dst;
            branch.bytes = bytes;
            branch.tag = key.tag;
            branch.route = router_.linkRoute(link);
            loads.add(branch.route, branch.bytes);
            to_add.push_back(std::move(branch));
        }
        ++merges;
    }

    if (!to_remove.empty()) {
        std::sort(to_remove.begin(), to_remove.end(), std::greater<>());
        for (std::size_t i : to_remove)
            flows.erase(flows.begin() + i);
        flows.insert(flows.end(), to_add.begin(), to_add.end());
    }
    return merges;
}

int
TrafficOptimizer::rerouteCongested(std::vector<Flow> &flows,
                                   LinkLoadMap &loads, hw::LinkId mcl) const
{
    // Collect flows crossing the bottleneck, largest first (moving big
    // flows helps most).
    std::vector<std::size_t> hot;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const auto &links = flows[i].route.links();
        if (std::find(links.begin(), links.end(), mcl) != links.end())
            hot.push_back(i);
    }
    std::sort(hot.begin(), hot.end(), [&](std::size_t a, std::size_t b) {
        return flows[a].bytes > flows[b].bytes;
    });

    int reroutes = 0;
    for (std::size_t i : hot) {
        Flow &flow = flows[i];
        loads.remove(flow.route, flow.bytes);

        // Current route's worst-link load once this flow is added back.
        auto route_peak = [&](const net::RouteRef &r) {
            double peak = 0.0;
            for (hw::LinkId link : r.links())
                peak = std::max(peak, loads.load(link) + flow.bytes);
            return peak;
        };

        // Candidates come from the router's pooled memo, so the reroute
        // loop allocates nothing per flow.
        const std::shared_ptr<const std::vector<net::RouteRef>> candidates =
            router_.candidateRouteRefs(flow.src, flow.dst);
        net::RouteRef best = flow.route;
        double best_peak = route_peak(flow.route);
        for (const net::RouteRef &cand : *candidates) {
            const double peak = route_peak(cand);
            if (peak < best_peak) {
                best_peak = peak;
                best = cand;
            }
        }
        if (!best.sameLinks(flow.route)) {
            flow.route = best;
            ++reroutes;
        }
        loads.add(flow.route, flow.bytes);
    }
    return reroutes;
}

}  // namespace temp::tcme
