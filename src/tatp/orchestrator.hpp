/**
 * @file
 * Bidirectional tensor-stream orchestration (Alg. 1 / Fig. 8).
 *
 * The paper's pseudocode contains off-by-one index errors (sends
 * addressed to die -1 / die N); this implementation re-derives the
 * schedule from first principles and matches the paper's worked N=4
 * example (Fig. 8c) exactly:
 *
 *  - `subT[i]` starts on chain slot i;
 *  - at round t, slot s computes with `subT[(s+t) mod N]` when
 *    s < N/2, else with `subT[(s-t+N) mod N]`;
 *  - concurrently, slot s relays `subT[s+t]` downward to s-1 (when
 *    s >= 1 and s+t <= N-1) and `subT[s-t]` upward to s+1 (when
 *    s <= N-2 and s-t >= 0).
 *
 * Properties (validated by simulation in validate() and the tests):
 * every transfer is exactly one chain hop; each slot computes one
 * distinct sub-output per round; per round each directed chain link
 * carries exactly one sub-tensor; after N rounds every slot has used
 * all N sub-tensors. No wrap-around (torus) link is ever needed — the
 * whole point of TATP on a wafer (Sec. V).
 */
#pragma once

#include <string>
#include <vector>

namespace temp::tatp {

/// A compute assignment: chain slot s works on sub-tensor `subtensor`.
struct ComputeTask
{
    int slot = 0;
    int subtensor = 0;
};

/// A one-hop relay between adjacent chain slots.
struct TransferTask
{
    int from_slot = 0;
    int to_slot = 0;
    int subtensor = 0;
};

/// All activity of one round.
struct RoundSchedule
{
    std::vector<ComputeTask> computes;
    std::vector<TransferTask> transfers;
};

/// Result of the buffer-accurate feasibility simulation.
struct ValidationResult
{
    bool ok = false;
    /// Highest number of sub-tensors simultaneously buffered on any slot
    /// (including the slot's own resident shard).
    int peak_buffers = 0;
    /// Peak buffers on each slot.
    std::vector<int> per_slot_peak;
    std::string error;
};

/**
 * Generates and validates the bidirectional relay schedule for an
 * N-slot chain.
 */
class BidirectionalOrchestrator
{
  public:
    explicit BidirectionalOrchestrator(int n);

    int degree() const { return n_; }

    /// The N rounds of the schedule.
    const std::vector<RoundSchedule> &rounds() const { return rounds_; }

    /// The sub-tensor slot s computes with at round t.
    static int computeSubtensor(int n, int slot, int t);

    /**
     * The relays of round t alone, as rounds()[t].transfers holds them
     * (same order), without building the other rounds. Round 0 relays
     * over every directed chain link; later rounds use a subset.
     */
    static std::vector<TransferTask> roundTransfers(int n, int t);

    /**
     * Simulates buffer contents round by round: verifies that every
     * computed/sent sub-tensor is present when needed, that transfers
     * are one hop, and reports peak buffering (drives the comm-buffer
     * memory model).
     */
    ValidationResult validate() const;

    /// Peak buffers for a given degree (cached convenience wrapper).
    static int peakBuffersForDegree(int n);

  private:
    int n_;
    std::vector<RoundSchedule> rounds_;
};

/**
 * The naive unidirectional ring orchestration (Fig. 8b top): slot s
 * forwards its current sub-tensor to slot (s+1) mod N every round.
 * On a physical chain the wrap transfer N-1 -> 0 spans N-1 hops — the
 * tail-latency pathology TATP eliminates.
 */
class NaiveRingOrchestrator
{
  public:
    explicit NaiveRingOrchestrator(int n);

    int degree() const { return n_; }
    const std::vector<RoundSchedule> &rounds() const { return rounds_; }

  private:
    int n_;
    std::vector<RoundSchedule> rounds_;
};

}  // namespace temp::tatp
