#include "solver/search_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "persist/codec.hpp"
#include "solver/dls_solver.hpp"
#include "solver/portfolio.hpp"
#include "solver/refine_util.hpp"

namespace temp::solver {

using parallel::ParallelSpec;

namespace {

const double kInf = std::numeric_limits<double>::infinity();

/// Expands a genome (candidate index per op) into per-op specs.
std::vector<ParallelSpec>
specsOf(const RefineContext &ctx, const std::vector<int> &genome)
{
    std::vector<ParallelSpec> specs;
    specs.reserve(genome.size());
    for (int idx : genome)
        specs.push_back(ctx.candidates[idx]);
    return specs;
}

}  // namespace

namespace detail {

double
fitnessOf(const RefineContext &ctx, eval::StepEvaluator &steps,
          const std::vector<int> &genome)
{
    return stepFitness(
        steps.evaluate(ctx.graph, specsOf(ctx, genome), ctx.gauge));
}

std::vector<double>
batchFitness(const RefineContext &ctx, eval::StepEvaluator &steps,
             const std::vector<std::vector<int>> &genomes)
{
    std::vector<std::vector<ParallelSpec>> assignments;
    assignments.reserve(genomes.size());
    for (const std::vector<int> &genome : genomes)
        assignments.push_back(specsOf(ctx, genome));
    const std::vector<sim::PerfReport> reports =
        steps.evaluateBatch(ctx.graph, assignments, ctx.gauge);
    std::vector<double> scores(reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i)
        scores[i] = stepFitness(reports[i]);
    return scores;
}

bool
gaugeExhausted(const RefineContext &ctx)
{
    return ctx.gauge != nullptr && ctx.gauge->exhausted();
}

std::vector<int>
drawOrder(const RefineContext &ctx)
{
    std::vector<int> order;
    for (std::size_t s : ctx.uniform_order)
        order.push_back(static_cast<int>(s));
    if (order.empty())
        for (std::size_t s = 0; s < ctx.candidates.size(); ++s)
            order.push_back(static_cast<int>(s));
    return order;
}

/// Invalid genomes are dropped silently — a stale seed degrades to a
/// cold search, never an out-of-range candidates[] access.
std::vector<std::vector<int>>
validSeeds(const RefineContext &ctx)
{
    std::vector<std::vector<int>> out;
    if (ctx.seeds == nullptr)
        return out;
    const std::size_t n_ops =
        static_cast<std::size_t>(ctx.graph.opCount());
    const int n_cand = static_cast<int>(ctx.candidates.size());
    for (const std::vector<int> &genome : *ctx.seeds) {
        if (genome.size() != n_ops)
            continue;
        const bool in_range =
            std::all_of(genome.begin(), genome.end(), [&](int g) {
                return g >= 0 && g < n_cand;
            });
        if (in_range)
            out.push_back(genome);
    }
    return out;
}

}  // namespace detail

using detail::batchFitness;
using detail::drawOrder;
using detail::fitnessOf;
using detail::gaugeExhausted;
using detail::validSeeds;

namespace {

/// Serialises an Rng's full state (mt19937_64 stream capture; complete
/// because every Rng helper constructs its distribution per draw).
std::string
rngStateOf(Rng &rng)
{
    std::ostringstream os;
    os << rng.engine();
    return os.str();
}

/// Restores an Rng from a stream capture; false on parse failure.
bool
restoreRng(const std::string &state, Rng &rng)
{
    std::istringstream is(state);
    is >> rng.engine();
    return !is.fail();
}

void
putGenome(persist::ByteWriter &w, const std::vector<int> &genome)
{
    w.u32(static_cast<std::uint32_t>(genome.size()));
    for (int g : genome)
        w.i32(g);
}

bool
getGenome(persist::ByteReader &r, std::vector<int> *genome)
{
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > r.remaining() / 4) {
        r.fail();
        return false;
    }
    genome->clear();
    genome->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        genome->push_back(r.i32());
    return r.ok();
}

constexpr std::uint32_t kCheckpointMagic = 0x504b4352;  // "RCKP"
constexpr std::uint32_t kCheckpointVersion = 1;

}  // namespace

std::string
encodeRefineCheckpoint(const RefineCheckpoint &cp)
{
    persist::ByteWriter payload;
    payload.str(cp.engine);
    payload.i32(cp.steps_done);
    payload.i64(cp.fitness_queries);
    putGenome(payload, cp.best);
    payload.f64(cp.best_fitness);
    payload.u32(static_cast<std::uint32_t>(cp.population.size()));
    for (const std::vector<int> &genome : cp.population)
        putGenome(payload, genome);
    for (double score : cp.scores)
        payload.f64(score);
    putGenome(payload, cp.current);
    payload.f64(cp.current_fitness);
    payload.f64(cp.temperature);
    payload.str(cp.rng_state);

    persist::ByteWriter w;
    w.u32(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    const std::string body = payload.take();
    w.u64(common::fnv1a(common::kFnvOffset, body.data(), body.size()));
    w.u32(static_cast<std::uint32_t>(body.size()));
    std::string out = w.take();
    out += body;
    return out;
}

bool
decodeRefineCheckpoint(const std::string &bytes, RefineCheckpoint *out,
                       std::string *error)
{
    *out = RefineCheckpoint{};
    auto failed = [&](const char *why) {
        *out = RefineCheckpoint{};
        if (error)
            *error = why;
        return false;
    };
    persist::ByteReader r(bytes.data(), bytes.size());
    if (r.u32() != kCheckpointMagic || !r.ok())
        return failed("checkpoint: bad magic");
    if (r.u32() != kCheckpointVersion || !r.ok())
        return failed("checkpoint: unsupported version");
    const std::uint64_t checksum = r.u64();
    const std::uint32_t size = r.u32();
    const char *body = r.skip(size);
    if (!r.ok() || !r.atEnd())
        return failed("checkpoint: truncated");
    if (common::fnv1a(common::kFnvOffset, body, size) != checksum)
        return failed("checkpoint: checksum mismatch");

    persist::ByteReader pr(body, size);
    out->engine = pr.str();
    out->steps_done = pr.i32();
    out->fitness_queries = pr.i64();
    if (!getGenome(pr, &out->best))
        return failed("checkpoint: bad incumbent");
    out->best_fitness = pr.f64();
    const std::uint32_t pop = pr.u32();
    // Each member costs >= 4 (genome length) + 8 (score) bytes.
    if (!pr.ok() || pop > pr.remaining() / 12)
        return failed("checkpoint: implausible population");
    out->population.resize(pop);
    for (std::uint32_t i = 0; i < pop; ++i)
        if (!getGenome(pr, &out->population[i]))
            return failed("checkpoint: bad population genome");
    out->scores.resize(pop);
    for (std::uint32_t i = 0; i < pop; ++i)
        out->scores[i] = pr.f64();
    if (!getGenome(pr, &out->current))
        return failed("checkpoint: bad walk state");
    out->current_fitness = pr.f64();
    out->temperature = pr.f64();
    out->rng_state = pr.str();
    if (!pr.ok() || !pr.atEnd())
        return failed("checkpoint: truncated");
    return true;
}

std::vector<EngineAccount>
RefineRun::accounts() const
{
    const RefineOutcome out = outcome();
    EngineAccount account;
    account.engine = engine();
    account.steps = stepsDone();
    account.fitness_queries = out.fitness_queries;
    account.best_fitness = std::isfinite(out.fitness) ? out.fitness : 0.0;
    account.feasible = std::isfinite(out.fitness);
    account.winner = true;
    return {account};
}

namespace {

/// A run that is already over: holds a fixed incumbent (the base
/// beginFrom()'s answer to a same-engine checkpoint, and the degraded
/// portfolio resume).
class FixedRun : public RefineRun
{
  public:
    FixedRun(const char *engine, int steps_done, RefineOutcome outcome)
        : engine_(engine), steps_done_(steps_done),
          outcome_(std::move(outcome))
    {
    }

    const char *engine() const override { return engine_; }
    int stepsDone() const override { return steps_done_; }
    bool done() const override { return true; }
    void step() override {}
    RefineOutcome outcome() const override { return outcome_; }
    void writeCheckpoint(RefineCheckpoint *checkpoint) const override
    {
        *checkpoint = RefineCheckpoint{};
        checkpoint->engine = engine_;
        checkpoint->steps_done = steps_done_;
        checkpoint->fitness_queries = outcome_.fitness_queries;
        checkpoint->best = outcome_.assignment;
        checkpoint->best_fitness = outcome_.fitness;
    }

  private:
    const char *engine_;
    int steps_done_ = 0;
    RefineOutcome outcome_;
};

/// The shared driver: advance until the run completes, a slice cap is
/// reached, or the budget gauge trips at a slice boundary.
RefineOutcome
drive(const RefineContext &ctx, RefineRun &run, int max_slices)
{
    int slices = 0;
    while (!run.done() && slices < max_slices && !gaugeExhausted(ctx)) {
        run.step();
        ++slices;
    }
    RefineOutcome out = run.outcome();
    out.budget_exhausted = !run.done() && gaugeExhausted(ctx);
    out.accounts = run.accounts();
    return out;
}

constexpr int kAllSlices = std::numeric_limits<int>::max();

}  // namespace

std::unique_ptr<RefineRun>
detail::makeFixedRun(const char *engine, int steps_done,
                     RefineOutcome outcome)
{
    return std::make_unique<FixedRun>(engine, steps_done,
                                      std::move(outcome));
}

std::unique_ptr<RefineRun>
SearchEngine::beginFrom(const RefineContext &ctx,
                        eval::StepEvaluator &steps,
                        const RefineCheckpoint &checkpoint) const
{
    if (checkpoint.engine != name() || checkpoint.best.empty())
        return begin(ctx, steps);
    return std::make_unique<FixedRun>(
        name(), checkpoint.steps_done,
        RefineOutcome{checkpoint.best, checkpoint.best_fitness, 0});
}

RefineOutcome
SearchEngine::refine(const RefineContext &ctx,
                     eval::StepEvaluator &steps) const
{
    const std::unique_ptr<RefineRun> run = begin(ctx, steps);
    return drive(ctx, *run, kAllSlices);
}

RefineOutcome
SearchEngine::refinePartial(const RefineContext &ctx,
                            eval::StepEvaluator &steps, int max_steps,
                            RefineCheckpoint *checkpoint) const
{
    const std::unique_ptr<RefineRun> run = begin(ctx, steps);
    RefineOutcome outcome = drive(ctx, *run, std::max(0, max_steps));
    if (checkpoint != nullptr)
        run->writeCheckpoint(checkpoint);
    return outcome;
}

RefineOutcome
SearchEngine::resume(const RefineContext &ctx, eval::StepEvaluator &steps,
                     const RefineCheckpoint &checkpoint) const
{
    const std::unique_ptr<RefineRun> run =
        beginFrom(ctx, steps, checkpoint);
    return drive(ctx, *run, kAllSlices);
}

double
stepFitness(const sim::PerfReport &report)
{
    if (!report.feasible)
        return kInf;
    return report.step_time * (report.oom ? 1e3 : 1.0);
}

const char *
searchEngineName(SearchEngineKind kind)
{
    switch (kind) {
    case SearchEngineKind::NoRefine: return "none";
    case SearchEngineKind::Genetic: return "genetic";
    case SearchEngineKind::Annealing: return "annealing";
    case SearchEngineKind::BeamTabu: return "beamtabu";
    case SearchEngineKind::Portfolio: return "portfolio";
    }
    return "unknown";
}

bool
searchEngineFromName(const std::string &name, SearchEngineKind *kind)
{
    if (name == "none" || name == "dp")
        *kind = SearchEngineKind::NoRefine;
    else if (name == "genetic" || name == "ga")
        *kind = SearchEngineKind::Genetic;
    else if (name == "annealing" || name == "anneal")
        *kind = SearchEngineKind::Annealing;
    else if (name == "beamtabu" || name == "beam")
        *kind = SearchEngineKind::BeamTabu;
    else if (name == "portfolio")
        *kind = SearchEngineKind::Portfolio;
    else
        return false;
    return true;
}

// ---------------------------------------------------------------------
// NoRefineEngine
// ---------------------------------------------------------------------

std::unique_ptr<RefineRun>
NoRefineEngine::begin(const RefineContext &ctx,
                      eval::StepEvaluator &steps) const
{
    // DP-only, but warm seeds still count: a scenario re-solve under
    // engine=none keeps the pre-fault plan whenever it beats the fresh
    // DP plan on the degraded wafer. The seed batch is the run's only
    // quantum; the run itself is born complete.
    const std::vector<std::vector<int>> seeds = validSeeds(ctx);
    RefineOutcome outcome{ctx.dp_assignment, ctx.dp_fitness, 0};
    if (!seeds.empty()) {
        const std::vector<double> scores =
            batchFitness(ctx, steps, seeds);
        outcome.fitness_queries = static_cast<long>(seeds.size());
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            if (scores[i] < outcome.fitness) {
                outcome.assignment = seeds[i];
                outcome.fitness = scores[i];
            }
        }
    }
    return std::make_unique<FixedRun>(name(), 0, std::move(outcome));
}

// ---------------------------------------------------------------------
// GeneticRefiner
// ---------------------------------------------------------------------

GeneticRefiner::GeneticRefiner(int population, int generations,
                               double mutation_rate, std::uint64_t seed)
    : population_(population), generations_(generations),
      mutation_rate_(mutation_rate), seed_(seed)
{
}

/// The GA's between-generation state: everything refine() carries from
/// one generation to the next, so a checkpoint at a generation
/// boundary captures the run exactly.
struct GeneticRefiner::GaState
{
    Rng rng;
    std::vector<std::vector<int>> population;
    std::vector<double> scores;
    std::vector<int> best;
    double best_fitness = 0.0;
    long fitness_queries = 0;
    int generations_done = 0;
};

GeneticRefiner::GaState
GeneticRefiner::seedState(const RefineContext &ctx,
                          eval::StepEvaluator &steps) const
{
    GaState state;
    state.rng = Rng(seed_);
    state.best = ctx.dp_assignment;
    state.best_fitness = ctx.dp_fitness;
    Rng &rng = state.rng;
    const std::vector<int> order = drawOrder(ctx);

    // Ranking for the weight-less role ignores the OOM penalty:
    // norms/attention do not own parameter state, so a spec whose
    // *uniform* plan OOMs (e.g. pure DP on a huge model) is still an
    // excellent choice for them once the weighted ops shard state.
    std::vector<int> order_o = order;
    std::sort(order_o.begin(), order_o.end(), [&](int a, int b) {
        return ctx.uniform_reports[a].step_time <
               ctx.uniform_reports[b].step_time;
    });

    // Seeds: the DP plan, the best uniform plans, and *structured*
    // two-spec plans (one spec for weight-bearing GEMMs, one for the
    // weight-less rest). The structured family encodes the key
    // design insight: parameter state forces high sharding on the
    // weighted ops only, while norms/attention prefer cheap
    // batch-style splits that keep gradient accumulation free.
    const int n_ops = ctx.graph.opCount();
    std::vector<std::vector<int>> seeds;
    seeds.push_back(state.best);
    const int top = std::min<int>(6, static_cast<int>(order.size()));
    for (int k = 0; k < top; ++k)
        seeds.push_back(std::vector<int>(n_ops, order[k]));
    for (int wi = 0; wi < top; ++wi) {
        for (int oi = 0; oi < top; ++oi) {
            std::vector<int> genome(n_ops);
            for (int i = 0; i < n_ops; ++i)
                genome[i] = ctx.graph.op(i).has_weight ? order[wi]
                                                       : order_o[oi];
            seeds.push_back(std::move(genome));
        }
    }
    // Warm-start genomes (e.g. the pre-fault assignment a scenario
    // re-solve carries over) join the pool ahead of the mutated-DP
    // fill: they compete in the same generation-0 batch, and because
    // they are appended before any rng draw the stochastic stream —
    // and with it every cold run — is byte-for-byte unchanged.
    for (std::vector<int> &genome : validSeeds(ctx))
        seeds.push_back(std::move(genome));
    while (static_cast<int>(seeds.size()) < 2 * population_) {
        std::vector<int> genome = state.best;
        for (int &g : genome)
            if (rng.bernoulli(0.3))
                g = order[rng.index(
                    std::min<std::size_t>(8, order.size()))];
        seeds.push_back(std::move(genome));
    }

    // Score every seed as ONE deterministic parallel batch (the big
    // win of the StepEvaluator relayering: the whole generation-0 pool
    // simulates concurrently, recurring genomes hit the memo), then
    // keep the fittest as the population.
    const std::vector<double> seed_scores =
        batchFitness(ctx, steps, seeds);
    state.fitness_queries += static_cast<long>(seeds.size());
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t i = 0; i < seeds.size(); ++i)
        ranked.emplace_back(seed_scores[i], i);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (int i = 0;
         i < population_ && i < static_cast<int>(ranked.size()); ++i) {
        state.population.push_back(seeds[ranked[i].second]);
        state.scores.push_back(ranked[i].first);
    }
    return state;
}

void
GeneticRefiner::stepGeneration(const RefineContext &ctx,
                               eval::StepEvaluator &steps,
                               GaState &state) const
{
    Rng &rng = state.rng;
    std::vector<std::vector<int>> &population = state.population;
    std::vector<double> &scores = state.scores;
    const int n_ops = ctx.graph.opCount();

    // Tournament selection of two parents.
    auto pick = [&]() -> const std::vector<int> & {
        const std::size_t a = rng.index(population.size());
        const std::size_t b = rng.index(population.size());
        return scores[a] < scores[b] ? population[a] : population[b];
    };
    const std::vector<int> &pa = pick();
    const std::vector<int> &pb = pick();
    // One-point crossover at a residual boundary when possible.
    std::vector<int> child = pa;
    const int cut = ctx.boundaries[rng.index(ctx.boundaries.size())];
    for (int i = cut; i < n_ops; ++i)
        child[i] = pb[i];
    // Mutation: re-draw individual op strategies.
    for (int &g : child)
        if (rng.bernoulli(mutation_rate_))
            g = static_cast<int>(rng.index(ctx.candidates.size()));

    // Children arrive one per generation and recur often late in
    // the run; the step memo serves repeats without a simulation.
    const double score = fitnessOf(ctx, steps, child);
    ++state.fitness_queries;
    // Elitist replacement of the worst member.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < population.size(); ++i)
        if (scores[i] > scores[worst])
            worst = i;
    if (score < scores[worst]) {
        population[worst] = std::move(child);
        scores[worst] = score;
    }
    const std::size_t arg_best = static_cast<std::size_t>(
        std::min_element(scores.begin(), scores.end()) -
        scores.begin());
    if (scores[arg_best] < state.best_fitness) {
        state.best = population[arg_best];
        state.best_fitness = scores[arg_best];
    }
    ++state.generations_done;
}

/// One in-flight GA run: a GaState advanced one generation per slice.
class GeneticRefiner::Run : public RefineRun
{
  public:
    Run(const GeneticRefiner &owner, const RefineContext &ctx,
        eval::StepEvaluator &steps, GaState state)
        : owner_(owner), ctx_(ctx), steps_(steps),
          state_(std::move(state))
    {
    }

    const char *engine() const override { return owner_.name(); }
    int stepsDone() const override { return state_.generations_done; }
    bool done() const override
    {
        return state_.generations_done >= owner_.generations_;
    }
    void step() override
    {
        owner_.stepGeneration(ctx_, steps_, state_);
    }
    RefineOutcome outcome() const override
    {
        return {state_.best, state_.best_fitness,
                state_.fitness_queries};
    }
    void writeCheckpoint(RefineCheckpoint *checkpoint) const override
    {
        *checkpoint = RefineCheckpoint{};
        checkpoint->engine = owner_.name();
        checkpoint->steps_done = state_.generations_done;
        checkpoint->fitness_queries = state_.fitness_queries;
        checkpoint->best = state_.best;
        checkpoint->best_fitness = state_.best_fitness;
        checkpoint->population = state_.population;
        checkpoint->scores = state_.scores;
        // Serialised from a copy: streaming an mt19937_64 state needs
        // a mutable engine reference, but leaves the stream untouched.
        Rng rng = state_.rng;
        checkpoint->rng_state = rngStateOf(rng);
    }

  private:
    const GeneticRefiner &owner_;
    const RefineContext &ctx_;
    eval::StepEvaluator &steps_;
    GaState state_;
};

std::unique_ptr<RefineRun>
GeneticRefiner::begin(const RefineContext &ctx,
                      eval::StepEvaluator &steps) const
{
    return std::make_unique<Run>(*this, ctx, steps,
                                 seedState(ctx, steps));
}

std::unique_ptr<RefineRun>
GeneticRefiner::beginFrom(const RefineContext &ctx,
                          eval::StepEvaluator &steps,
                          const RefineCheckpoint &checkpoint) const
{
    GaState state;
    // A foreign or damaged checkpoint degrades to a cold run: the
    // resume then re-runs the identical deterministic search rather
    // than continuing from state it cannot trust.
    if (checkpoint.engine != name() || checkpoint.population.empty() ||
        checkpoint.population.size() != checkpoint.scores.size() ||
        !restoreRng(checkpoint.rng_state, state.rng))
        return begin(ctx, steps);
    state.population = checkpoint.population;
    state.scores = checkpoint.scores;
    state.best = checkpoint.best;
    state.best_fitness = checkpoint.best_fitness;
    state.fitness_queries = checkpoint.fitness_queries;
    state.generations_done = checkpoint.steps_done;
    return std::make_unique<Run>(*this, ctx, steps, std::move(state));
}

// ---------------------------------------------------------------------
// AnnealingRefiner
// ---------------------------------------------------------------------

AnnealingRefiner::AnnealingRefiner(AnnealingConfig config,
                                   std::uint64_t seed)
    : config_(config), seed_(seed)
{
}

/// The annealer's between-round state (checkpointed at round
/// boundaries, where no proposal batch is in flight).
struct AnnealingRefiner::AnnealState
{
    Rng rng;
    std::vector<int> current;
    double current_fitness = 0.0;
    std::vector<int> best;
    double best_fitness = 0.0;
    double temp = 0.0;
    long fitness_queries = 0;
    int rounds_done = 0;
};

AnnealingRefiner::AnnealState
AnnealingRefiner::initState(const RefineContext &ctx,
                            eval::StepEvaluator &steps) const
{
    AnnealState state;
    state.rng = Rng(seed_);
    state.current = ctx.dp_assignment;
    state.current_fitness = ctx.dp_fitness;
    // Warm-start genomes: score them as one batch (before any rng
    // draw, so the walk's stochastic stream is unchanged) and start
    // the walk from the best of {DP plan, injected seeds}.
    const std::vector<std::vector<int>> seeds = validSeeds(ctx);
    if (!seeds.empty()) {
        const std::vector<double> scores =
            batchFitness(ctx, steps, seeds);
        state.fitness_queries += static_cast<long>(seeds.size());
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            if (scores[i] < state.current_fitness) {
                state.current = seeds[i];
                state.current_fitness = scores[i];
            }
        }
    }
    state.best = state.current;
    state.best_fitness = state.current_fitness;
    // Temperature in step-time units: a fraction of the incumbent's
    // step time (absolute fallback when the DP plan is infeasible).
    state.temp =
        std::isfinite(state.best_fitness) && state.best_fitness > 0.0
            ? config_.initial_temp * state.best_fitness
            : config_.initial_temp;
    return state;
}

void
AnnealingRefiner::stepRound(const RefineContext &ctx,
                            eval::StepEvaluator &steps,
                            AnnealState &state) const
{
    Rng &rng = state.rng;
    const std::vector<int> order = drawOrder(ctx);
    const int n_ops = ctx.graph.opCount();

    // Draws one neighbour move in place: mostly single-op re-draws,
    // occasionally a whole residual sub-chain flipped to one spec
    // (the move that matches the structure the DP cuts expose).
    auto mutate = [&](std::vector<int> &genome) {
        auto draw_strategy = [&]() -> int {
            if (rng.bernoulli(0.5))
                return order[rng.index(
                    std::min<std::size_t>(8, order.size()))];
            return static_cast<int>(rng.index(ctx.candidates.size()));
        };
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

    // All proposals of a round neighbour the round's starting plan,
    // so the whole round is fixed before any fitness is known — and
    // scores as ONE deterministic parallel batch.
    std::vector<std::vector<int>> proposals;
    proposals.reserve(static_cast<std::size_t>(config_.proposals));
    for (int p = 0; p < config_.proposals; ++p) {
        std::vector<int> neighbour = state.current;
        mutate(neighbour);
        proposals.push_back(std::move(neighbour));
    }
    const std::vector<double> scores =
        batchFitness(ctx, steps, proposals);
    state.fitness_queries += static_cast<long>(proposals.size());

    // Metropolis walk over the round, in proposal order.
    for (std::size_t p = 0; p < proposals.size(); ++p) {
        const double f = scores[p];
        if (!std::isfinite(f))
            continue;
        bool accept = f < state.current_fitness;
        if (!accept && state.temp > 0.0 &&
            std::isfinite(state.current_fitness)) {
            const double delta = f - state.current_fitness;
            accept = rng.uniformReal(0.0, 1.0) <
                     std::exp(-delta / state.temp);
        }
        if (!accept)
            continue;
        state.current = proposals[p];
        state.current_fitness = f;
        if (f < state.best_fitness) {
            state.best = proposals[p];
            state.best_fitness = f;
        }
    }
    state.temp *= config_.cooling;
    ++state.rounds_done;
}

/// One in-flight annealing walk: an AnnealState advanced one
/// proposal round per slice.
class AnnealingRefiner::Run : public RefineRun
{
  public:
    Run(const AnnealingRefiner &owner, const RefineContext &ctx,
        eval::StepEvaluator &steps, AnnealState state)
        : owner_(owner), ctx_(ctx), steps_(steps),
          state_(std::move(state))
    {
    }

    const char *engine() const override { return owner_.name(); }
    int stepsDone() const override { return state_.rounds_done; }
    bool done() const override
    {
        return state_.rounds_done >= owner_.config_.iterations;
    }
    void step() override { owner_.stepRound(ctx_, steps_, state_); }
    RefineOutcome outcome() const override
    {
        return {state_.best, state_.best_fitness,
                state_.fitness_queries};
    }
    void writeCheckpoint(RefineCheckpoint *checkpoint) const override
    {
        *checkpoint = RefineCheckpoint{};
        checkpoint->engine = owner_.name();
        checkpoint->steps_done = state_.rounds_done;
        checkpoint->fitness_queries = state_.fitness_queries;
        checkpoint->best = state_.best;
        checkpoint->best_fitness = state_.best_fitness;
        checkpoint->current = state_.current;
        checkpoint->current_fitness = state_.current_fitness;
        checkpoint->temperature = state_.temp;
        Rng rng = state_.rng;
        checkpoint->rng_state = rngStateOf(rng);
    }

  private:
    const AnnealingRefiner &owner_;
    const RefineContext &ctx_;
    eval::StepEvaluator &steps_;
    AnnealState state_;
};

std::unique_ptr<RefineRun>
AnnealingRefiner::begin(const RefineContext &ctx,
                        eval::StepEvaluator &steps) const
{
    return std::make_unique<Run>(*this, ctx, steps,
                                 initState(ctx, steps));
}

std::unique_ptr<RefineRun>
AnnealingRefiner::beginFrom(const RefineContext &ctx,
                            eval::StepEvaluator &steps,
                            const RefineCheckpoint &checkpoint) const
{
    AnnealState state;
    if (checkpoint.engine != name() || checkpoint.best.empty() ||
        checkpoint.current.empty() ||
        !restoreRng(checkpoint.rng_state, state.rng))
        return begin(ctx, steps);
    state.current = checkpoint.current;
    state.current_fitness = checkpoint.current_fitness;
    state.best = checkpoint.best;
    state.best_fitness = checkpoint.best_fitness;
    state.temp = checkpoint.temperature;
    state.fitness_queries = checkpoint.fitness_queries;
    state.rounds_done = checkpoint.steps_done;
    return std::make_unique<Run>(*this, ctx, steps, std::move(state));
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::unique_ptr<SearchEngine>
makeSearchEngine(const SolverConfig &config)
{
    switch (config.engine) {
    case SearchEngineKind::NoRefine:
        return std::make_unique<NoRefineEngine>();
    case SearchEngineKind::Genetic:
        return std::make_unique<GeneticRefiner>(
            config.ga_population, config.ga_generations,
            config.ga_mutation_rate, config.seed);
    case SearchEngineKind::Annealing:
        return std::make_unique<AnnealingRefiner>(config.annealing,
                                                  config.seed);
    case SearchEngineKind::BeamTabu:
        return std::make_unique<BeamTabuRefiner>(config.ga_generations,
                                                 config.seed);
    case SearchEngineKind::Portfolio: {
        // The portfolio races the three metaheuristics round-robin on
        // one budget; every member sees the same warm-seed pool via
        // the shared RefineContext.
        std::vector<std::unique_ptr<SearchEngine>> members;
        members.push_back(std::make_unique<GeneticRefiner>(
            config.ga_population, config.ga_generations,
            config.ga_mutation_rate, config.seed));
        members.push_back(std::make_unique<AnnealingRefiner>(
            config.annealing, config.seed));
        members.push_back(std::make_unique<BeamTabuRefiner>(
            config.ga_generations, config.seed));
        return std::make_unique<PortfolioEngine>(std::move(members));
    }
    }
    return std::make_unique<NoRefineEngine>();
}

}  // namespace temp::solver
