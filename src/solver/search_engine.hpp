/**
 * @file
 * The pluggable level-2 refinement layer of the Dual-Level Search.
 *
 * Level 1 (the per-sub-chain DP over the additive cost matrix) is exact
 * for what it models, but blind to cross-operator effects — merged
 * gradient-sync bucketing, contention, memory pressure. Level 2 refines
 * the DP plan against the *full* training-step simulation. The paper
 * uses a genetic algorithm there; this layer generalises the slot into
 * a SearchEngine interface so alternative metaheuristics (simulated
 * annealing today; beam search tomorrow) drop in behind one seam, all
 * scoring genomes through the shared, memoized, batch-parallel
 * eval::StepEvaluator.
 *
 * Engines are deterministic: every stochastic choice comes from a
 * seeded Rng drawn *before* fitness batches dispatch, and the
 * StepEvaluator's batches are bit-exact across thread counts, so a
 * (config, seed) pair reproduces the same plan on any machine width.
 *
 * Quantum slicing: every engine runs as a sequence of deterministic
 * quantum slices (a GA generation, an annealing round, a beam-tabu
 * round, a portfolio member slice) behind the RefineRun interface.
 * Budgets (common::BudgetGauge via RefineContext::gauge) are observed
 * only *between* slices, never inside one, so a budget-truncated run
 * is always the bit-exact prefix of the unbudgeted run — the same
 * boundary rule the refinePartial()/resume() checkpoints use.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "eval/step_evaluator.hpp"

namespace temp::solver {

struct SolverConfig;

/// Which level-2 refinement runs after the DP.
enum class SearchEngineKind
{
    /// DP-only: keep the level-1 plan (still fully simulated once).
    NoRefine,
    /// The paper's genetic refinement (Sec. VII-B, Fig. 12b).
    Genetic,
    /// Simulated annealing over the same genome encoding.
    Annealing,
    /// Deterministic beam search with a tabu set over genome hashes.
    BeamTabu,
    /// Races Genetic/Annealing/BeamTabu round-robin under one budget.
    Portfolio,
};

/// Printable engine name ("none", "genetic", "annealing", "beamtabu",
/// "portfolio").
const char *searchEngineName(SearchEngineKind kind);

/**
 * Parses an engine name; accepts the canonical names plus the aliases
 * "dp" (NoRefine), "ga" (Genetic), "anneal" (Annealing) and "beam"
 * (BeamTabu).
 * @return false when the name is unknown.
 */
bool searchEngineFromName(const std::string &name, SearchEngineKind *kind);

/// Tuning of the annealing engine (SolverConfig::annealing).
struct AnnealingConfig
{
    /// Temperature steps (one batched proposal round each).
    int iterations = 60;
    /// Neighbour proposals per round, evaluated as one StepEvaluator
    /// batch. All proposals of a round mutate the round's starting
    /// plan, so the batch is fixed before any fitness is known.
    int proposals = 8;
    /// Starting temperature as a fraction of the DP plan's step time.
    double initial_temp = 0.25;
    /// Geometric cooling factor per round.
    double cooling = 0.92;
};

/**
 * Fitness of a simulated plan: step time, with OOM plans heavily
 * penalised and infeasible plans infinite (the objective every engine
 * minimises — identical to the pre-refactor GA fitness).
 */
double stepFitness(const sim::PerfReport &report);

/// Everything level 1 hands to an engine (borrowed views; the solver
/// outlives the refine call).
struct RefineContext
{
    const model::ComputeGraph &graph;
    /// Candidate specs; genomes index into this.
    const std::vector<parallel::ParallelSpec> &candidates;
    /// Sub-chain boundaries (residual-free cuts, incl. 0 and opCount).
    const std::vector<int> &boundaries;
    /// Uniform-plan reports, indexed by candidate.
    const std::vector<sim::PerfReport> &uniform_reports;
    /// Candidates with feasible uniform plans, fastest (OOM-penalised)
    /// first.
    const std::vector<std::size_t> &uniform_order;
    /// The level-1 DP assignment (candidate index per op).
    const std::vector<int> &dp_assignment;
    /// Its full-step fitness (already simulated by the solver).
    double dp_fitness;
    /**
     * Optional warm-start genomes injected into the engine's seed pool
     * (the scenario engine passes the pre-fault assignment here).
     * Engines validate each genome (length == opCount, indices in
     * candidate range) and drop invalid ones; injection happens before
     * any RNG-driven seeding so the engine's stochastic stream is
     * untouched and cold runs stay bit-identical to pre-injection
     * builds. Null when no warm seeds exist.
     */
    const std::vector<std::vector<int>> *seeds = nullptr;
    /**
     * Optional solve-budget meter. Engines charge every fitness query
     * through it (via the StepEvaluator) and the SearchEngine drivers
     * observe it between quantum slices only, so a budgeted refine is
     * the bit-exact prefix of the unbudgeted one. Null = unbudgeted.
     */
    common::BudgetGauge *gauge = nullptr;
};

/// Per-engine accounting of one refinement (every engine reports one;
/// the portfolio reports one per member that ran at least one slice).
struct EngineAccount
{
    std::string engine;        ///< engine name()
    int steps = 0;             ///< quantum slices completed
    long fitness_queries = 0;  ///< full-step queries issued
    double best_fitness = 0.0; ///< best fitness found (when feasible)
    bool feasible = false;     ///< best_fitness is finite
    bool winner = false;       ///< produced the returned assignment
};

/// What a refinement returns.
struct RefineOutcome
{
    std::vector<int> assignment;
    double fitness = 0.0;
    /// Full-step fitness queries the engine issued (cache-served or
    /// not) — folded into SolverResult::evaluations.
    long fitness_queries = 0;
    /// True when the run stopped at a quantum boundary because the
    /// budget gauge tripped; the outcome is the best-so-far prefix.
    bool budget_exhausted = false;
    /// Per-engine accounting (one entry for single engines, one per
    /// raced member for the portfolio).
    std::vector<EngineAccount> accounts;
};

/**
 * A mid-refinement checkpoint, taken only at generation (GA) / round
 * (annealing) boundaries so the in-flight batch structure never needs
 * serialising. Resuming from it continues the exact run: the RNG
 * stream, incumbent and engine-specific walk state are captured, so
 * refine(ctx) and refinePartial(k) + resume() produce bit-identical
 * final assignments at equal (config, seed).
 */
struct RefineCheckpoint
{
    std::string engine;      ///< name() of the engine that wrote it
    int steps_done = 0;      ///< generations / rounds completed
    long fitness_queries = 0;  ///< queries issued so far
    std::vector<int> best;   ///< incumbent assignment
    double best_fitness = 0.0;
    /// GA walk state (empty for other engines).
    std::vector<std::vector<int>> population;
    std::vector<double> scores;
    /// Annealing walk state (empty/zero for other engines).
    std::vector<int> current;
    double current_fitness = 0.0;
    double temperature = 0.0;
    /// The mt19937_64 stream (operator<< capture) — a complete state
    /// capture because engines construct distributions per draw.
    std::string rng_state;
};

/**
 * Serialises a checkpoint with the persist byte codec (versioned,
 * checksummed). decodeRefineCheckpoint() rejects truncated or
 * corrupted bytes — returns false with @p error set and leaves @p out
 * cleared, so a damaged checkpoint degrades to a cold refine, never a
 * wrong resume.
 */
std::string encodeRefineCheckpoint(const RefineCheckpoint &checkpoint);
bool decodeRefineCheckpoint(const std::string &bytes,
                            RefineCheckpoint *out,
                            std::string *error = nullptr);

/**
 * One in-flight refinement, sliced into deterministic quanta. A run is
 * created by SearchEngine::begin()/beginFrom() (which may already
 * issue the engine's seed batch) and advanced one quantum slice — one
 * GA generation, one annealing round, one beam round, one portfolio
 * member slice — per step() call. outcome() is valid between any two
 * slices: it returns the best-so-far incumbent, which is what makes
 * cancellation, deadlines and engine racing all fall out of the same
 * structure.
 */
class RefineRun
{
  public:
    virtual ~RefineRun() = default;

    /// name() of the engine that owns this run.
    virtual const char *engine() const = 0;

    /// Quantum slices completed so far (includes checkpointed ones
    /// when the run was resumed).
    virtual int stepsDone() const = 0;

    /// True when the engine has no more slices to run.
    virtual bool done() const = 0;

    /// Advances one quantum slice. Precondition: !done(). Budgets are
    /// never consulted inside a slice — callers check between calls.
    virtual void step() = 0;

    /// The incumbent so far (valid between any two slices; never worse
    /// than the DP plan the context carries).
    virtual RefineOutcome outcome() const = 0;

    /// Captures the run into a checkpoint at the current boundary.
    virtual void writeCheckpoint(RefineCheckpoint *checkpoint) const = 0;

    /// Per-engine accounting; single-engine runs report themselves.
    virtual std::vector<EngineAccount> accounts() const;
};

/**
 * The level-2 refinement interface. Engines implement begin() (and
 * optionally beginFrom()); the refine()/refinePartial()/resume()
 * entry points are shared drivers that advance the run slice by slice
 * under the context's budget gauge — every engine is budget-aware by
 * construction.
 */
class SearchEngine
{
  public:
    virtual ~SearchEngine() = default;

    virtual const char *name() const = 0;

    /// Starts a fresh run (seeding batches may already be issued and
    /// charged to ctx.gauge here — the seed pool is the run's first
    /// quantum).
    virtual std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx, eval::StepEvaluator &steps) const = 0;

    /**
     * Starts a run continuing @p checkpoint. A checkpoint written by a
     * different engine kind (or with unparsable state) is ignored: the
     * engine degrades to a cold begin() — never a wrong answer. The
     * base implementation accepts any same-name checkpoint with an
     * incumbent and returns a completed run holding it.
     */
    virtual std::unique_ptr<RefineRun> beginFrom(
        const RefineContext &ctx, eval::StepEvaluator &steps,
        const RefineCheckpoint &checkpoint) const;

    /**
     * Refines the DP plan; never returns a worse fitness than
     * ctx.dp_fitness (engines keep the incumbent). Runs slices until
     * the engine completes or ctx.gauge trips; a tripped run returns
     * the best-so-far prefix with budget_exhausted set.
     */
    RefineOutcome refine(const RefineContext &ctx,
                         eval::StepEvaluator &steps) const;

    /**
     * Runs at most @p max_steps quantum slices, then captures the
     * in-flight state into @p checkpoint. The returned outcome is the
     * incumbent so far (usable as-is). Engines without internal steps
     * (NoRefine) complete immediately. max_steps >= the configured
     * total is a full refine whose checkpoint resumes as a no-op.
     */
    RefineOutcome refinePartial(const RefineContext &ctx,
                                eval::StepEvaluator &steps, int max_steps,
                                RefineCheckpoint *checkpoint) const;

    /**
     * Continues a checkpointed run to the configured total step count,
     * bit-identically to the uninterrupted refine(). A checkpoint
     * written by a different engine kind (or with an unparsable RNG
     * stream) is ignored: resume degrades to a full cold refine —
     * never a wrong answer.
     */
    RefineOutcome resume(const RefineContext &ctx,
                         eval::StepEvaluator &steps,
                         const RefineCheckpoint &checkpoint) const;
};

/// DP-only engine: returns the level-1 plan untouched (warm seeds
/// still compete — the seed batch is the run's only quantum).
class NoRefineEngine : public SearchEngine
{
  public:
    const char *name() const override { return "none"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;
};

/**
 * The paper's genetic refinement, relayered onto the StepEvaluator:
 * the seed pool (DP plan, best uniform plans, structured two-spec
 * plans, mutated DP variants) is scored as one deterministic parallel
 * batch; the per-generation child evaluations hit the step memo
 * whenever a genome recurs. Bit-identical to the pre-refactor GA at
 * equal (config, seed).
 */
class GeneticRefiner : public SearchEngine
{
  public:
    GeneticRefiner(int population, int generations, double mutation_rate,
                   std::uint64_t seed);

    const char *name() const override { return "genetic"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;
    std::unique_ptr<RefineRun> beginFrom(
        const RefineContext &ctx, eval::StepEvaluator &steps,
        const RefineCheckpoint &checkpoint) const override;

  private:
    class Run;
    struct GaState;
    GaState seedState(const RefineContext &ctx,
                      eval::StepEvaluator &steps) const;
    void stepGeneration(const RefineContext &ctx,
                        eval::StepEvaluator &steps, GaState &state) const;

    int population_;
    int generations_;
    double mutation_rate_;
    std::uint64_t seed_;
};

/**
 * Simulated annealing over the same genome encoding. Each round draws
 * `proposals` neighbours of the round's starting plan (single-op
 * re-draws plus occasional whole-sub-chain moves), scores them as one
 * StepEvaluator batch, then walks the Metropolis acceptance over them
 * in order; the temperature cools geometrically per round.
 */
class AnnealingRefiner : public SearchEngine
{
  public:
    AnnealingRefiner(AnnealingConfig config, std::uint64_t seed);

    const char *name() const override { return "annealing"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;
    std::unique_ptr<RefineRun> beginFrom(
        const RefineContext &ctx, eval::StepEvaluator &steps,
        const RefineCheckpoint &checkpoint) const override;

  private:
    class Run;
    struct AnnealState;
    AnnealState initState(const RefineContext &ctx,
                          eval::StepEvaluator &steps) const;
    void stepRound(const RefineContext &ctx, eval::StepEvaluator &steps,
                   AnnealState &state) const;

    AnnealingConfig config_;
    std::uint64_t seed_;
};

/// Builds the engine config.engine selects.
std::unique_ptr<SearchEngine> makeSearchEngine(const SolverConfig &config);

}  // namespace temp::solver
