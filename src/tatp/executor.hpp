/**
 * @file
 * TATP stream execution timing and flow generation.
 *
 * Transfers on the wafer are store-and-forward at message granularity
 * (each die's DMA receives a sub-tensor, then forwards it), so a
 * transfer spanning h physical hops costs h x (bytes/bw + latency) —
 * which is exactly why non-contiguous chains and naive-ring wrap
 * transfers produce the paper's O(N)-hop tail latency (Fig. 5a), and
 * why the bidirectional 1-hop relay eliminates it.
 */
#pragma once

#include "hw/config.hpp"
#include "net/collective.hpp"
#include "parallel/partitioner.hpp"
#include "tatp/chain_mapper.hpp"
#include "tatp/orchestrator.hpp"

namespace temp::tatp {

/// Timing of one TATP pass (forward or backward) on one group.
struct TatpTiming
{
    double time_s = 0.0;          ///< end-to-end pass time
    double comp_time_s = 0.0;     ///< pure compute (all rounds)
    double comm_time_s = 0.0;     ///< per-round comm x rounds
    double exposed_comm_s = 0.0;  ///< comm not hidden behind compute
    double round_time_s = 0.0;    ///< max(comp, comm) per round
    /// Extra time caused by multi-hop chain steps vs. a contiguous chain.
    double tail_latency_s = 0.0;
    /// Payload bytes x hops deposited on the fabric (energy accounting).
    double link_bytes = 0.0;
    /// comp_time / time: 1.0 means full communication hiding.
    double overlap_efficiency = 0.0;
};

/// The hop figures of a chain that pass timing reads.
struct ChainHops
{
    int max_hop = 0;     ///< largest inter-slot hop count
    int total_hops = 0;  ///< sum of inter-slot hops
    int steps = 0;       ///< inter-slot steps (chain length - 1)

    static ChainHops of(const ChainInfo &chain)
    {
        return {chain.max_hop, chain.total_hops,
                static_cast<int>(chain.hops.size())};
    }
};

/// Times TATP streams and lowers them to flows for contention analysis.
class TatpExecutor
{
  public:
    explicit TatpExecutor(hw::D2dConfig d2d);

    /**
     * Times one bidirectional streaming pass.
     *
     * @param flops_per_round Per-die FLOPs per round.
     * @param bytes_per_round One sub-tensor's size.
     * @param rounds Stream degree N.
     * @param chain Physical chain quality (hop counts).
     * @param flops_per_s Effective per-die compute throughput.
     */
    TatpTiming timePass(double flops_per_round, double bytes_per_round,
                        int rounds, const ChainHops &chain,
                        double flops_per_s) const;

    TatpTiming timePass(double flops_per_round, double bytes_per_round,
                        int rounds, const ChainInfo &chain,
                        double flops_per_s) const
    {
        return timePass(flops_per_round, bytes_per_round, rounds,
                        ChainHops::of(chain), flops_per_s);
    }

    /**
     * Times one naive unidirectional ring pass (the TSPP strawman): the
     * wrap transfer spans ring.wrap_hops hops and every round waits for
     * the slowest transfer.
     */
    TatpTiming timeNaiveRingPass(double flops_per_round,
                                 double bytes_per_round, int rounds,
                                 const RingInfo &ring,
                                 double flops_per_s) const;

    /**
     * Lowers a stream onto concrete flows (per round, per group) for
     * the traffic-conscious optimizer's global contention analysis.
     *
     * @param stream Partitioner-produced stream descriptor.
     * @param groups One ordered chain per TATP group.
     * @param router Route builder for the (possibly faulty) mesh.
     * @param backward Doubles the per-round volume (dO and W^T streams).
     */
    net::CommSchedule streamFlows(const parallel::TatpStream &stream,
                                  const std::vector<ChainInfo> &groups,
                                  const net::Router &router,
                                  bool backward) const;

    /**
     * Lowers only round 0 of the stream: the same flows, in the same
     * order, as streamFlows(...).round(0), and the same feasibility,
     * since round 0 relays over every directed chain link a later
     * round uses. The cost model times this densest round alone.
     */
    net::CommSchedule firstRoundFlows(const parallel::TatpStream &stream,
                                      const std::vector<ChainInfo> &groups,
                                      const net::Router &router,
                                      bool backward) const;

    /// Store-and-forward time for one sub-tensor over h hops.
    double hopTransferTime(double bytes, int hops) const;

    /// Per-round software/DMA synchronisation overhead: issuing the
    /// round's transfer descriptors and synchronising the compute
    /// wavefront. This is what makes very high stream degrees (tiny
    /// rounds) lose throughput — the Fig. 9 decline beyond N ~ 16.
    static constexpr double kRoundOverheadS = 1.0e-6;

    const hw::D2dConfig &d2d() const { return d2d_; }

  private:
    /// Lowers the stream's first `rounds` rounds.
    net::CommSchedule lowerRounds(const parallel::TatpStream &stream,
                                  const std::vector<ChainInfo> &groups,
                                  const net::Router &router, bool backward,
                                  int rounds) const;

    hw::D2dConfig d2d_;
};

}  // namespace temp::tatp
