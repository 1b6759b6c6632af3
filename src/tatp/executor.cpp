#include "tatp/executor.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace temp::tatp {

TatpExecutor::TatpExecutor(hw::D2dConfig d2d) : d2d_(d2d) {}

double
TatpExecutor::hopTransferTime(double bytes, int hops) const
{
    if (bytes <= 0.0 || hops <= 0)
        return 0.0;
    const double per_hop =
        bytes / d2d_.effectiveBandwidth(bytes) + d2d_.latency_s;
    return hops * per_hop;
}

TatpTiming
TatpExecutor::timePass(double flops_per_round, double bytes_per_round,
                       int rounds, const ChainHops &chain,
                       double flops_per_s) const
{
    TatpTiming timing;
    if (rounds <= 0)
        return timing;
    if (flops_per_s <= 0.0)
        panic("TatpExecutor::timePass: non-positive compute rate");

    const double comp_round = flops_per_round / flops_per_s;
    // Per round, every chain step relays one sub-tensor in each
    // direction; the slowest (longest) step gates the round. Adjacent
    // (1-hop) relays pipeline across rounds, so their propagation
    // latency is a one-time fill, not a per-round charge; multi-hop
    // relays store-and-forward inside the round and cannot pipeline.
    double comm_round = 0.0;
    double fill = 0.0;
    if (rounds > 1) {
        const int worst_hop = std::max(1, chain.max_hop);
        if (worst_hop == 1) {
            comm_round = bytes_per_round /
                         d2d_.effectiveBandwidth(bytes_per_round);
            fill = hopTransferTime(bytes_per_round, 1);
        } else {
            comm_round = hopTransferTime(bytes_per_round, worst_hop);
        }
    }
    const double comm_round_ideal =
        rounds > 1 ? bytes_per_round /
                         d2d_.effectiveBandwidth(bytes_per_round)
                   : 0.0;

    timing.round_time_s =
        std::max(comp_round, comm_round) + kRoundOverheadS;
    timing.time_s = rounds * timing.round_time_s + fill;
    timing.comp_time_s = rounds * comp_round;
    timing.comm_time_s = rounds * comm_round;
    timing.exposed_comm_s =
        rounds * std::max(0.0, comm_round - comp_round);
    timing.tail_latency_s =
        rounds * std::max(0.0, std::max(comp_round, comm_round) -
                                   std::max(comp_round, comm_round_ideal));
    // Relay waves: sub-tensor k travels k hops down and N-1-k hops up,
    // so total sub-tensor-hops = N(N-1); scale by the chain's average
    // physical hops per step.
    const double n = rounds;
    const double avg_step_hops =
        chain.steps == 0 ? 1.0
                         : static_cast<double>(chain.total_hops) /
                               static_cast<double>(chain.steps);
    timing.link_bytes =
        bytes_per_round * n * (n - 1.0) * std::max(1.0, avg_step_hops);
    timing.overlap_efficiency =
        timing.time_s > 0.0 ? timing.comp_time_s / timing.time_s : 1.0;
    return timing;
}

TatpTiming
TatpExecutor::timeNaiveRingPass(double flops_per_round,
                                double bytes_per_round, int rounds,
                                const RingInfo &ring,
                                double flops_per_s) const
{
    TatpTiming timing;
    if (rounds <= 0)
        return timing;

    const double comp_round = flops_per_round / flops_per_s;
    double comm_round = 0.0;
    if (rounds > 1) {
        const int worst_hop =
            std::max({1, ring.chain.max_hop, ring.wrap_hops});
        comm_round = hopTransferTime(bytes_per_round, worst_hop);
    }
    const double comm_round_ideal =
        rounds > 1 ? hopTransferTime(bytes_per_round, 1) : 0.0;

    timing.round_time_s =
        std::max(comp_round, comm_round) + kRoundOverheadS;
    timing.time_s = rounds * timing.round_time_s;
    timing.comp_time_s = rounds * comp_round;
    timing.comm_time_s = rounds * comm_round;
    timing.exposed_comm_s =
        rounds * std::max(0.0, comm_round - comp_round);
    timing.tail_latency_s =
        rounds * std::max(0.0, std::max(comp_round, comm_round) -
                                   std::max(comp_round, comm_round_ideal));
    const double n = rounds;
    const double ring_hops = static_cast<double>(ring.chain.total_hops +
                                                 ring.wrap_hops);
    const double steps = std::max<std::size_t>(1, ring.chain.hops.size() + 1);
    timing.link_bytes = bytes_per_round * n * (n - 1.0) *
                        std::max(1.0, ring_hops / steps);
    timing.overlap_efficiency =
        timing.time_s > 0.0 ? timing.comp_time_s / timing.time_s : 1.0;
    return timing;
}

net::CommSchedule
TatpExecutor::streamFlows(const parallel::TatpStream &stream,
                          const std::vector<ChainInfo> &groups,
                          const net::Router &router, bool backward) const
{
    return lowerRounds(stream, groups, router, backward, stream.degree);
}

net::CommSchedule
TatpExecutor::firstRoundFlows(const parallel::TatpStream &stream,
                              const std::vector<ChainInfo> &groups,
                              const net::Router &router,
                              bool backward) const
{
    return lowerRounds(stream, groups, router, backward, 1);
}

net::CommSchedule
TatpExecutor::lowerRounds(const parallel::TatpStream &stream,
                          const std::vector<ChainInfo> &groups,
                          const net::Router &router, bool backward,
                          int rounds) const
{
    net::CommSchedule sched;
    if (!stream.active || stream.degree <= 1)
        return sched;

    const double bytes =
        stream.bytes_per_round * (backward ? 2.0 : 1.0);

    for (int t = 0; t < rounds; ++t) {
        const std::vector<TransferTask> transfers =
            BidirectionalOrchestrator::roundTransfers(stream.degree, t);
        for (const ChainInfo &group : groups) {
            if (static_cast<int>(group.chain.size()) != stream.degree)
                panic("TatpExecutor: chain size %zu != stream degree %d",
                      group.chain.size(), stream.degree);
            for (const TransferTask &x : transfers) {
                net::Flow flow;
                flow.src = group.chain[x.from_slot];
                flow.dst = group.chain[x.to_slot];
                flow.bytes = bytes;
                flow.route = router.safeRouteRef(flow.src, flow.dst);
                if (!flow.route.valid())
                    sched.feasible = false;
                flow.tag = parallel::axisTag(parallel::Axis::TATP);
                sched.addFlow(std::move(flow));
                sched.payload_bytes += bytes;
            }
        }
        sched.sealRound();
    }
    return sched;
}

}  // namespace temp::tatp
