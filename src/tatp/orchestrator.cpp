#include "tatp/orchestrator.hpp"

#include <algorithm>
#include <set>

#include "common/logging.hpp"

namespace temp::tatp {

int
BidirectionalOrchestrator::computeSubtensor(int n, int slot, int t)
{
    if (slot < n / 2)
        return (slot + t) % n;
    return (slot - t + n) % n;
}

std::vector<TransferTask>
BidirectionalOrchestrator::roundTransfers(int n, int t)
{
    std::vector<TransferTask> transfers;
    for (int s = 0; s < n; ++s) {
        // Downward relay wave: subT[k] departs slot k at t=0 and moves
        // one hop toward slot 0 per round.
        if (s >= 1 && s + t <= n - 1)
            transfers.push_back(TransferTask{s, s - 1, s + t});
        // Upward relay wave, mirror image.
        if (s <= n - 2 && s - t >= 0)
            transfers.push_back(TransferTask{s, s + 1, s - t});
    }
    return transfers;
}

BidirectionalOrchestrator::BidirectionalOrchestrator(int n) : n_(n)
{
    if (n < 1)
        fatal("BidirectionalOrchestrator: degree must be >= 1, got %d", n);

    rounds_.resize(n_);
    for (int t = 0; t < n_; ++t) {
        RoundSchedule &round = rounds_[t];
        for (int s = 0; s < n_; ++s)
            round.computes.push_back(
                ComputeTask{s, computeSubtensor(n_, s, t)});
        round.transfers = roundTransfers(n_, t);
    }
}

ValidationResult
BidirectionalOrchestrator::validate() const
{
    ValidationResult result;
    result.per_slot_peak.assign(n_, 1);

    // Last round at which each (slot, subtensor) pair is needed, either
    // for compute or as a relay source; afterwards the buffer may drop it.
    std::vector<std::vector<int>> last_use(n_, std::vector<int>(n_, -1));
    for (int t = 0; t < n_; ++t) {
        for (const ComputeTask &c : rounds_[t].computes)
            last_use[c.slot][c.subtensor] =
                std::max(last_use[c.slot][c.subtensor], t);
        for (const TransferTask &x : rounds_[t].transfers)
            last_use[x.from_slot][x.subtensor] =
                std::max(last_use[x.from_slot][x.subtensor], t);
    }

    std::vector<std::set<int>> buffers(n_);
    for (int s = 0; s < n_; ++s)
        buffers[s].insert(s);

    for (int t = 0; t < n_; ++t) {
        const RoundSchedule &round = rounds_[t];
        // Every compute operand must already be resident.
        for (const ComputeTask &c : round.computes) {
            if (!buffers[c.slot].count(c.subtensor)) {
                result.error = "round " + std::to_string(t) + ": slot " +
                               std::to_string(c.slot) + " misses subT[" +
                               std::to_string(c.subtensor) + "]";
                return result;
            }
        }
        // Transfers must be one hop and source-resident; they deliver at
        // the end of the round.
        std::vector<std::pair<int, int>> deliveries;
        for (const TransferTask &x : round.transfers) {
            if (std::abs(x.from_slot - x.to_slot) != 1) {
                result.error = "multi-hop transfer in round " +
                               std::to_string(t);
                return result;
            }
            if (!buffers[x.from_slot].count(x.subtensor)) {
                result.error = "round " + std::to_string(t) + ": slot " +
                               std::to_string(x.from_slot) +
                               " relays absent subT[" +
                               std::to_string(x.subtensor) + "]";
                return result;
            }
            deliveries.emplace_back(x.to_slot, x.subtensor);
        }
        for (const auto &[slot, sub] : deliveries)
            buffers[slot].insert(sub);
        // Evict sub-tensors with no remaining use.
        for (int s = 0; s < n_; ++s) {
            for (auto it = buffers[s].begin(); it != buffers[s].end();) {
                if (last_use[s][*it] <= t)
                    it = buffers[s].erase(it);
                else
                    ++it;
            }
            result.per_slot_peak[s] = std::max(
                result.per_slot_peak[s], static_cast<int>(buffers[s].size()));
        }
    }

    // Completeness: every slot must have computed all N sub-outputs,
    // one per round (balance is implied by construction).
    for (int s = 0; s < n_; ++s) {
        std::set<int> computed;
        for (int t = 0; t < n_; ++t)
            computed.insert(computeSubtensor(n_, s, t));
        if (static_cast<int>(computed.size()) != n_) {
            result.error = "slot " + std::to_string(s) +
                           " computed only " +
                           std::to_string(computed.size()) + " sub-outputs";
            return result;
        }
    }

    result.peak_buffers =
        *std::max_element(result.per_slot_peak.begin(),
                          result.per_slot_peak.end());
    result.ok = true;
    return result;
}

int
BidirectionalOrchestrator::peakBuffersForDegree(int n)
{
    if (n <= 1)
        return 1;
    const BidirectionalOrchestrator orch(n);
    const ValidationResult result = orch.validate();
    if (!result.ok)
        panic("peakBuffersForDegree(%d): invalid schedule: %s", n,
              result.error.c_str());
    return result.peak_buffers;
}

NaiveRingOrchestrator::NaiveRingOrchestrator(int n) : n_(n)
{
    if (n < 1)
        fatal("NaiveRingOrchestrator: degree must be >= 1, got %d", n);
    rounds_.resize(n_);
    for (int t = 0; t < n_; ++t) {
        RoundSchedule &round = rounds_[t];
        for (int s = 0; s < n_; ++s) {
            // Slot s computes with the sub-tensor that has rotated to it.
            round.computes.push_back(ComputeTask{s, (s - t % n_ + n_) % n_});
            // And forwards it around the logical ring (wrap included).
            if (t + 1 < n_) {
                round.transfers.push_back(
                    TransferTask{s, (s + 1) % n_, (s - t % n_ + n_) % n_});
            }
        }
    }
}

}  // namespace temp::tatp
