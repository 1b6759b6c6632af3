/**
 * @file
 * Traffic-conscious communication optimizer (Sec. VI-B, Fig. 11).
 *
 * Implements the paper's five-phase workflow over a schedule of flow
 * rounds:
 *  (1) communication pattern analysis & path initialisation — flows
 *      arrive with contention-agnostic routes (XY);
 *  (2) bottleneck identification & load recording — find the most
 *      congested link (mcl) and its load;
 *  (3) congested path identification & iterative optimisation — collect
 *      the flows crossing the mcl;
 *  (4) path merging & routing optimisation — merge duplicate payloads
 *      into multicast trees and reroute remaining flows over idle links
 *      (YX / one-bend detours);
 *  (5) global update & termination check — stop when the bottleneck
 *      stops improving or MAX_ITER is reached.
 */
#pragma once

#include <span>

#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"

namespace temp::tcme {

/// Outcome statistics of one optimisation run.
struct OptimizationStats
{
    double initial_max_load = 0.0;  ///< bottleneck bytes before
    double final_max_load = 0.0;    ///< bottleneck bytes after
    int iterations = 0;
    int reroutes = 0;   ///< flows moved to alternative routes
    int merges = 0;     ///< duplicate flows folded into multicast trees
    int phases = 0;     ///< rounds processed

    /// Bottleneck-load improvement factor (>= 1).
    double improvement() const
    {
        return final_max_load > 0.0 ? initial_max_load / final_max_load
                                    : 1.0;
    }
};

/// The Fig. 11(d) optimizer.
class TrafficOptimizer
{
  public:
    /// Tuning knobs; defaults follow the paper's algorithm sketch.
    struct Config
    {
        int max_iters = 16;
        bool enable_merging = true;
        bool enable_rerouting = true;
    };

    /// Constructs with default configuration.
    explicit TrafficOptimizer(const net::Router &router);

    TrafficOptimizer(const net::Router &router, Config config);

    /**
     * Optimises the concurrent run of several schedules: round r of
     * the result is round r of every part, in part order (the flows
     * CommSchedule::combine would give it), optimised as one phase.
     * Rounds execute back-to-back, so each is an independent
     * contention domain. The parts are left untouched, and the result
     * is finalized for contention evaluation.
     *
     * @param stats Optional out: the run's statistics.
     */
    net::CommSchedule optimize(
        std::span<const net::CommSchedule *const> parts,
        OptimizationStats *stats = nullptr) const;

    /// Optimises every round of one schedule in place.
    OptimizationStats optimize(net::CommSchedule &schedule) const;

    /// Optimises one phase (set of concurrent flows) in place.
    OptimizationStats optimizePhase(std::vector<net::Flow> &flows) const;

  private:
    /// Replaces duplicate-payload flows through the bottleneck with a
    /// multicast tree; returns the number of merges performed.
    int mergeDuplicates(std::vector<net::Flow> &flows,
                        net::LinkLoadMap &loads, hw::LinkId mcl) const;

    /// Reroutes bottleneck flows onto less-loaded candidate routes;
    /// returns the number of flows moved.
    int rerouteCongested(std::vector<net::Flow> &flows,
                         net::LinkLoadMap &loads, hw::LinkId mcl) const;

    const net::Router &router_;
    Config config_;
};

}  // namespace temp::tcme
