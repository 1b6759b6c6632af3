/**
 * @file
 * The engine-racing side of the level-2 refinement layer:
 *
 *  - BeamTabuRefiner: deterministic beam search over the genome
 *    encoding with a tabu set of genome hashes, so no plan is ever
 *    simulated twice within a run (every fitness batch is pure
 *    exploration).
 *  - PortfolioEngine: races member engines round-robin, one quantum
 *    slice per turn, under one shared budget gauge; the best member's
 *    incumbent wins, and per-member EngineAccounts report who did.
 *
 * Both observe the RefineRun quantum-slicing contract: budgets are
 * checked between slices only, so a budgeted run is the bit-exact
 * prefix of the unbudgeted one.
 */
#pragma once

#include <memory>
#include <vector>

#include "solver/search_engine.hpp"

namespace temp::solver {

/**
 * Deterministic beam search with tabu memory. Each round mutates every
 * beam member into a fixed number of neighbour proposals (drawn before
 * any fitness is known), drops proposals whose genome hash was already
 * scored this run, scores the survivors as ONE StepEvaluator batch,
 * then keeps the best `width` plans of beam ∪ proposals.
 *
 * Checkpoints capture only the incumbent (the tabu set is not
 * serialised), so beginFrom() degrades to a cold begin(): resume()
 * re-runs the identical deterministic search — bit-identical final
 * plan, recomputed rather than continued.
 */
class BeamTabuRefiner : public SearchEngine
{
  public:
    BeamTabuRefiner(int rounds, std::uint64_t seed);

    const char *name() const override { return "beamtabu"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;
    std::unique_ptr<RefineRun> beginFrom(
        const RefineContext &ctx, eval::StepEvaluator &steps,
        const RefineCheckpoint &checkpoint) const override;

    /// Beam width (plans kept per round).
    static constexpr int kWidth = 6;
    /// Neighbour proposals drawn per beam member per round.
    static constexpr int kProposals = 4;

  private:
    class Run;
    struct BeamState;
    BeamState seedState(const RefineContext &ctx,
                        eval::StepEvaluator &steps) const;
    void stepRound(const RefineContext &ctx, eval::StepEvaluator &steps,
                   BeamState &state) const;

    int rounds_;
    std::uint64_t seed_;
};

/**
 * Races member engines round-robin under one budget: each portfolio
 * slice advances exactly one member by one of *its* slices (a member's
 * lazily-issued seed batch counts as its first slice). The incumbent
 * is the best member outcome so far — ties break toward the
 * earlier-registered member — and accounts() reports one EngineAccount
 * per member that ran, with `winner` marking the incumbent's engine.
 *
 * Checkpoints cannot capture multi-member state, so beginFrom()
 * degrades to a cold begin(): resume() re-races deterministically and
 * lands on the bit-identical final plan.
 */
class PortfolioEngine : public SearchEngine
{
  public:
    explicit PortfolioEngine(
        std::vector<std::unique_ptr<SearchEngine>> members);

    const char *name() const override { return "portfolio"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;
    std::unique_ptr<RefineRun> beginFrom(
        const RefineContext &ctx, eval::StepEvaluator &steps,
        const RefineCheckpoint &checkpoint) const override;

  private:
    class Run;
    std::vector<std::unique_ptr<SearchEngine>> members_;
};

}  // namespace temp::solver
