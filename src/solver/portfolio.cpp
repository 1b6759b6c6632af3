#include "solver/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "solver/refine_util.hpp"

namespace temp::solver {

using detail::batchFitness;
using detail::drawOrder;
using detail::makeFixedRun;
using detail::validSeeds;

namespace {

/// FNV-1a over a genome's gene values — the tabu key. Collisions are
/// deterministic (same build, same hashes), so a collision at worst
/// deterministically skips one proposal; it never breaks bit-exactness
/// across runs.
std::uint64_t
genomeHash(const std::vector<int> &genome)
{
    std::uint64_t h = common::kFnvOffset;
    for (int g : genome)
        h = common::fnv1aStep(
            h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(g)));
    return h;
}

}  // namespace

// ---------------------------------------------------------------------
// BeamTabuRefiner
// ---------------------------------------------------------------------

BeamTabuRefiner::BeamTabuRefiner(int rounds, std::uint64_t seed)
    : rounds_(rounds), seed_(seed)
{
}

/// The beam's between-round state. The tabu set lives only for the
/// run (it is exactly "what this run has already scored"), which is
/// why checkpoints cannot continue a beam run — see the header.
struct BeamTabuRefiner::BeamState
{
    Rng rng;
    std::vector<std::vector<int>> beam;
    std::vector<double> beam_fitness;
    std::unordered_set<std::uint64_t> tabu;
    std::vector<int> best;
    double best_fitness = 0.0;
    long fitness_queries = 0;
    int rounds_done = 0;
};

BeamTabuRefiner::BeamState
BeamTabuRefiner::seedState(const RefineContext &ctx,
                           eval::StepEvaluator &steps) const
{
    BeamState state;
    state.rng = Rng(seed_);
    state.best = ctx.dp_assignment;
    state.best_fitness = ctx.dp_fitness;

    const std::size_t n_ops =
        static_cast<std::size_t>(ctx.graph.opCount());

    // Seed pool: the DP plan, the best uniform plans, and any warm
    // seeds — deduplicated through the tabu set, then scored as ONE
    // deterministic batch (the run's seed quantum).
    std::vector<std::vector<int>> pool;
    auto add = [&](std::vector<int> genome) {
        if (state.tabu.insert(genomeHash(genome)).second)
            pool.push_back(std::move(genome));
    };
    add(ctx.dp_assignment);
    for (std::size_t i = 0;
         i < ctx.uniform_order.size() &&
         i < static_cast<std::size_t>(kWidth);
         ++i)
        add(std::vector<int>(
            n_ops, static_cast<int>(ctx.uniform_order[i])));
    for (const std::vector<int> &seed : validSeeds(ctx))
        add(seed);

    const std::vector<double> scores = batchFitness(ctx, steps, pool);
    state.fitness_queries += static_cast<long>(pool.size());

    // Keep the best kWidth plans as the opening beam (stable order:
    // earlier pool entries win ties).
    std::vector<std::size_t> rank(pool.size());
    for (std::size_t i = 0; i < rank.size(); ++i)
        rank[i] = i;
    std::stable_sort(rank.begin(), rank.end(),
                     [&](std::size_t a, std::size_t b) {
                         return scores[a] < scores[b];
                     });
    const std::size_t keep =
        std::min<std::size_t>(static_cast<std::size_t>(kWidth),
                              rank.size());
    for (std::size_t i = 0; i < keep; ++i) {
        state.beam.push_back(pool[rank[i]]);
        state.beam_fitness.push_back(scores[rank[i]]);
    }
    if (!state.beam.empty() &&
        state.beam_fitness.front() < state.best_fitness) {
        state.best = state.beam.front();
        state.best_fitness = state.beam_fitness.front();
    }
    return state;
}

void
BeamTabuRefiner::stepRound(const RefineContext &ctx,
                           eval::StepEvaluator &steps,
                           BeamState &state) const
{
    Rng &rng = state.rng;
    const std::vector<int> order = drawOrder(ctx);
    const int n_ops = ctx.graph.opCount();

    // The same neighbour structure the annealer walks: biased single-op
    // re-draws plus occasional whole-sub-chain flips along the DP cuts.
    auto draw_strategy = [&]() -> int {
        if (rng.bernoulli(0.5))
            return order[rng.index(
                std::min<std::size_t>(8, order.size()))];
        return static_cast<int>(rng.index(ctx.candidates.size()));
    };
    auto mutate = [&](std::vector<int> &genome) {
        if (ctx.boundaries.size() > 2 && rng.bernoulli(0.25)) {
            const std::size_t b = rng.index(ctx.boundaries.size() - 1);
            const int s = draw_strategy();
            for (int i = ctx.boundaries[b]; i < ctx.boundaries[b + 1];
                 ++i)
                genome[i] = s;
            return;
        }
        genome[static_cast<std::size_t>(rng.index(
            static_cast<std::size_t>(n_ops)))] = draw_strategy();
        if (rng.bernoulli(0.3))
            genome[static_cast<std::size_t>(rng.index(
                static_cast<std::size_t>(n_ops)))] = draw_strategy();
    };

    // Every proposal of the round is drawn before any fitness is
    // known; tabu hits are dropped at draw time (the RNG stream still
    // advances identically — tabu contents are themselves
    // deterministic, so so is the drop pattern).
    std::vector<std::vector<int>> proposals;
    proposals.reserve(state.beam.size() *
                      static_cast<std::size_t>(kProposals));
    for (const std::vector<int> &member : state.beam) {
        for (int p = 0; p < kProposals; ++p) {
            std::vector<int> neighbour = member;
            mutate(neighbour);
            if (state.tabu.insert(genomeHash(neighbour)).second)
                proposals.push_back(std::move(neighbour));
        }
    }
    if (!proposals.empty()) {
        const std::vector<double> scores =
            batchFitness(ctx, steps, proposals);
        state.fitness_queries += static_cast<long>(proposals.size());

        // Beam ∪ proposals, keep the best kWidth (stable: the old beam
        // wins ties, preserving the incumbent's position).
        std::vector<std::vector<int>> merged = state.beam;
        std::vector<double> merged_fitness = state.beam_fitness;
        for (std::size_t p = 0; p < proposals.size(); ++p) {
            merged.push_back(std::move(proposals[p]));
            merged_fitness.push_back(scores[p]);
        }
        std::vector<std::size_t> rank(merged.size());
        for (std::size_t i = 0; i < rank.size(); ++i)
            rank[i] = i;
        std::stable_sort(rank.begin(), rank.end(),
                         [&](std::size_t a, std::size_t b) {
                             return merged_fitness[a] <
                                    merged_fitness[b];
                         });
        const std::size_t keep =
            std::min<std::size_t>(static_cast<std::size_t>(kWidth),
                                  rank.size());
        state.beam.clear();
        state.beam_fitness.clear();
        for (std::size_t i = 0; i < keep; ++i) {
            state.beam.push_back(merged[rank[i]]);
            state.beam_fitness.push_back(merged_fitness[rank[i]]);
        }
        if (!state.beam.empty() &&
            state.beam_fitness.front() < state.best_fitness) {
            state.best = state.beam.front();
            state.best_fitness = state.beam_fitness.front();
        }
    }
    ++state.rounds_done;
}

/// One in-flight beam run: a BeamState advanced one round per slice.
class BeamTabuRefiner::Run : public RefineRun
{
  public:
    Run(const BeamTabuRefiner &owner, const RefineContext &ctx,
        eval::StepEvaluator &steps, BeamState state)
        : owner_(owner), ctx_(ctx), steps_(steps),
          state_(std::move(state))
    {
    }

    const char *engine() const override { return owner_.name(); }
    int stepsDone() const override { return state_.rounds_done; }
    bool done() const override
    {
        return state_.rounds_done >= owner_.rounds_;
    }
    void step() override { owner_.stepRound(ctx_, steps_, state_); }
    RefineOutcome outcome() const override
    {
        return {state_.best, state_.best_fitness,
                state_.fitness_queries};
    }
    void writeCheckpoint(RefineCheckpoint *checkpoint) const override
    {
        // Incumbent-only capture: the tabu set is not serialisable
        // state (see class doc), so this checkpoint resumes cold.
        *checkpoint = RefineCheckpoint{};
        checkpoint->engine = owner_.name();
        checkpoint->steps_done = state_.rounds_done;
        checkpoint->fitness_queries = state_.fitness_queries;
        checkpoint->best = state_.best;
        checkpoint->best_fitness = state_.best_fitness;
    }

  private:
    const BeamTabuRefiner &owner_;
    const RefineContext &ctx_;
    eval::StepEvaluator &steps_;
    BeamState state_;
};

std::unique_ptr<RefineRun>
BeamTabuRefiner::begin(const RefineContext &ctx,
                       eval::StepEvaluator &steps) const
{
    return std::make_unique<Run>(*this, ctx, steps,
                                 seedState(ctx, steps));
}

std::unique_ptr<RefineRun>
BeamTabuRefiner::beginFrom(const RefineContext &ctx,
                           eval::StepEvaluator &steps,
                           const RefineCheckpoint & /*checkpoint*/) const
{
    // The tabu set cannot be reconstructed from a checkpoint, so a
    // continued run would diverge from the uninterrupted one. A cold
    // re-run is deterministic and lands on the bit-identical final
    // plan — slower, never wrong.
    return begin(ctx, steps);
}

// ---------------------------------------------------------------------
// PortfolioEngine
// ---------------------------------------------------------------------

PortfolioEngine::PortfolioEngine(
    std::vector<std::unique_ptr<SearchEngine>> members)
    : members_(std::move(members))
{
}

/// The race: one member slice per portfolio slice, round-robin over
/// members that still have work. Members begin lazily — the begin()
/// (its seed batch and the quanta that batch charges) IS the member's
/// first slice, so a tight budget that expires during member 0's
/// seeding never silently charges members 1..n.
class PortfolioEngine::Run : public RefineRun
{
  public:
    Run(const PortfolioEngine &owner, const RefineContext &ctx,
        eval::StepEvaluator &steps)
        : owner_(owner), ctx_(ctx), steps_(steps),
          runs_(owner.members_.size())
    {
    }

    const char *engine() const override { return owner_.name(); }
    int stepsDone() const override { return slices_; }
    bool done() const override
    {
        for (std::size_t i = 0; i < runs_.size(); ++i)
            if (runs_[i] == nullptr || !runs_[i]->done())
                return false;
        return true;
    }
    void step() override
    {
        const std::size_t n = runs_.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (cursor_ + k) % n;
            if (runs_[i] == nullptr) {
                runs_[i] = owner_.members_[i]->begin(ctx_, steps_);
            } else if (!runs_[i]->done()) {
                runs_[i]->step();
            } else {
                continue;
            }
            cursor_ = (i + 1) % n;
            ++slices_;
            return;
        }
    }
    RefineOutcome outcome() const override
    {
        RefineOutcome best{ctx_.dp_assignment, ctx_.dp_fitness, 0};
        long queries = 0;
        for (const std::unique_ptr<RefineRun> &run : runs_) {
            if (run == nullptr)
                continue;
            RefineOutcome member = run->outcome();
            queries += member.fitness_queries;
            // Strict < breaks ties toward the earlier member.
            if (member.fitness < best.fitness) {
                best.assignment = std::move(member.assignment);
                best.fitness = member.fitness;
            }
        }
        best.fitness_queries = queries;
        return best;
    }
    void writeCheckpoint(RefineCheckpoint *checkpoint) const override
    {
        // Incumbent-only: multi-member state has no checkpoint form,
        // so resume degrades to a cold re-race (see class doc).
        const RefineOutcome best = outcome();
        *checkpoint = RefineCheckpoint{};
        checkpoint->engine = owner_.name();
        checkpoint->steps_done = slices_;
        checkpoint->fitness_queries = best.fitness_queries;
        checkpoint->best = best.assignment;
        checkpoint->best_fitness = best.fitness;
    }
    std::vector<EngineAccount> accounts() const override
    {
        // One account per member that ran at least one slice; the
        // winner flag marks the member whose plan the portfolio
        // returns (none when the DP incumbent beat every member).
        std::size_t winner = runs_.size();
        double winner_fitness = ctx_.dp_fitness;
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            if (runs_[i] == nullptr)
                continue;
            const double f = runs_[i]->outcome().fitness;
            if (f < winner_fitness) {
                winner = i;
                winner_fitness = f;
            }
        }
        std::vector<EngineAccount> out;
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            if (runs_[i] == nullptr)
                continue;
            const RefineOutcome member = runs_[i]->outcome();
            EngineAccount account;
            account.engine = runs_[i]->engine();
            account.steps = runs_[i]->stepsDone();
            account.fitness_queries = member.fitness_queries;
            account.feasible = std::isfinite(member.fitness);
            account.best_fitness =
                account.feasible ? member.fitness : 0.0;
            account.winner = i == winner;
            out.push_back(std::move(account));
        }
        if (out.empty())
            return RefineRun::accounts();
        return out;
    }

  private:
    const PortfolioEngine &owner_;
    const RefineContext &ctx_;
    eval::StepEvaluator &steps_;
    std::vector<std::unique_ptr<RefineRun>> runs_;
    std::size_t cursor_ = 0;
    int slices_ = 0;
};

std::unique_ptr<RefineRun>
PortfolioEngine::begin(const RefineContext &ctx,
                       eval::StepEvaluator &steps) const
{
    if (members_.empty())
        return makeFixedRun(
            name(), 0,
            RefineOutcome{ctx.dp_assignment, ctx.dp_fitness, 0});
    return std::make_unique<Run>(*this, ctx, steps);
}

std::unique_ptr<RefineRun>
PortfolioEngine::beginFrom(const RefineContext &ctx,
                           eval::StepEvaluator &steps,
                           const RefineCheckpoint & /*checkpoint*/) const
{
    // Cold re-race: deterministic members make the re-run land on the
    // bit-identical final plan the uninterrupted race would have.
    return begin(ctx, steps);
}

}  // namespace temp::solver
