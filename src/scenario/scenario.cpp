#include "scenario/scenario.hpp"

#include <algorithm>

#include "common/clock.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace temp::scenario {

namespace {

std::uint64_t
foldU64(std::uint64_t hash, std::uint64_t value)
{
    return common::fnv1a(hash, &value, sizeof(value));
}

std::uint64_t
foldF64(std::uint64_t hash, double value)
{
    // Bit pattern, not text rendering: bit-identical replay is the
    // claim, so the digest must see every mantissa bit.
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    return foldU64(hash, bits);
}

}  // namespace

const char *
eventKindName(Event::Kind kind)
{
    switch (kind) {
    case Event::Kind::SetFaults: return "set_faults";
    case Event::Kind::ClearFaults: return "clear_faults";
    case Event::Kind::ModelSwitch: return "model_switch";
    case Event::Kind::Reoptimize: return "reoptimize";
    case Event::Kind::WaferJoin: return "wafer_join";
    case Event::Kind::WaferLeave: return "wafer_leave";
    }
    return "unknown";
}

bool
eventKindFromName(const std::string &name, Event::Kind *kind)
{
    if (name == "set_faults")
        *kind = Event::Kind::SetFaults;
    else if (name == "clear_faults")
        *kind = Event::Kind::ClearFaults;
    else if (name == "model_switch")
        *kind = Event::Kind::ModelSwitch;
    else if (name == "reoptimize")
        *kind = Event::Kind::Reoptimize;
    else if (name == "wafer_join")
        *kind = Event::Kind::WaferJoin;
    else if (name == "wafer_leave")
        *kind = Event::Kind::WaferLeave;
    else
        return false;
    return true;
}

std::uint64_t
foldEventReport(std::uint64_t hash, const EventReport &r)
{
    hash = foldU64(hash, static_cast<std::uint64_t>(r.index));
    hash = foldF64(hash, r.at_s);
    hash = foldU64(hash, static_cast<std::uint64_t>(r.kind));
    hash = foldU64(hash, static_cast<std::uint64_t>(r.step_sims));
    hash = foldU64(hash,
                   static_cast<std::uint64_t>(r.matrix_measurements));
    hash = foldU64(hash, static_cast<std::uint64_t>(r.step_cache_hits));
    hash =
        foldU64(hash, static_cast<std::uint64_t>(r.matrix_cache_hits));
    hash = foldF64(hash, r.throughput_before);
    hash = foldF64(hash, r.throughput_after);
    hash = foldF64(hash, r.step_time_s);
    hash = foldU64(hash, static_cast<std::uint64_t>(r.usable_dies));
    hash = foldU64(hash, static_cast<std::uint64_t>(r.failed_links));
    hash = foldU64(hash, static_cast<std::uint64_t>(r.wafer_count));
    hash = foldU64(hash, r.fault_fingerprint);
    const std::uint64_t flags =
        (r.resolved ? 1u : 0u) | (r.warm_seeded ? 2u : 0u) |
        (r.context_reused ? 4u : 0u) |
        (r.fallback_to_last_feasible ? 8u : 0u) |
        (r.budget_exhausted ? 16u : 0u);
    hash = foldU64(hash, flags);
    hash = foldU64(hash, static_cast<std::uint64_t>(r.quanta_used));
    hash = common::fnv1a(hash, r.degradation.data(), r.degradation.size());
    hash = foldU64(hash, r.degradation.size());
    // recovery_wall_s deliberately excluded: it is the one
    // nondeterministic field of the report.
    return hash;
}

ScenarioEngine::ScenarioEngine(
    std::shared_ptr<core::TempFramework> framework)
    : ScenarioEngine(std::move(framework), Options{})
{
}

ScenarioEngine::ScenarioEngine(
    std::shared_ptr<core::TempFramework> framework, Options options)
    : framework_(std::move(framework)), options_(options)
{
}

std::shared_ptr<core::DegradedContext>
ScenarioEngine::contextFor(const hw::FaultMap &faults, bool *reused)
{
    const std::uint64_t fp = faults.contentFingerprint();
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
        if (contexts_[i]->fingerprint() == fp) {
            // MRU bump: revisited storms stay resident.
            std::shared_ptr<core::DegradedContext> hit = contexts_[i];
            contexts_.erase(contexts_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            contexts_.insert(contexts_.begin(), hit);
            *reused = true;
            return hit;
        }
    }
    *reused = false;
    std::shared_ptr<core::DegradedContext> built =
        framework_->degradedContext(faults);
    contexts_.insert(contexts_.begin(), built);
    const std::size_t cap =
        options_.max_contexts > 0
            ? static_cast<std::size_t>(options_.max_contexts)
            : 1;
    if (contexts_.size() > cap)
        contexts_.resize(cap);
    return built;
}

ScenarioEngine::SolveOutcome
ScenarioEngine::resolveCurrent(bool allow_warm)
{
    SolveOutcome out;
    const bool warm =
        allow_warm && options_.warm_seed && has_feasible_;
    if (faults_.healthy()) {
        // The healthy state is served by the framework itself: its
        // shared memo stack makes a repeat healthy solve free (zero
        // step sims, zero matrix measurements), which is stronger
        // than any warm seeding.
        out.result =
            framework_->optimize(model_, options_.solve_budget);
        return out;
    }
    std::shared_ptr<core::DegradedContext> ctx =
        contextFor(faults_, &out.context_reused);
    if (warm) {
        solver::SolveHints hints;
        hints.seed_specs = last_feasible_specs_;
        hints.uniform_top_k = options_.uniform_top_k;
        out.result =
            ctx->optimize(model_, &hints, options_.solve_budget);
        out.warm_seeded = true;
    } else {
        out.result =
            ctx->optimize(model_, nullptr, options_.solve_budget);
    }
    return out;
}

ScenarioReport
ScenarioEngine::replay(const model::ModelConfig &initial_model,
                       const std::vector<Event> &events)
{
    const hw::Wafer &healthy = framework_->wafer();
    model_ = initial_model;
    faults_ = hw::FaultMap(healthy.dieCount(),
                           healthy.topology().linkCount());
    wafer_count_ = 1;
    last_feasible_specs_.clear();
    last_feasible_report_ = sim::PerfReport{};
    has_feasible_ = false;
    contexts_.clear();

    ScenarioReport report;
    report.replay_digest = common::kFnvOffset;

    // Baseline: the service is operating on the healthy wafer before
    // the timeline starts (memo-shared with every other request).
    const solver::SolverResult base =
        framework_->optimize(model_, options_.solve_budget);
    double per_wafer_tput = 0.0;
    int usable_dies = healthy.usableDieCount();
    if (base.feasible) {
        last_feasible_specs_ = base.per_op_specs;
        last_feasible_report_ = base.report;
        has_feasible_ = true;
        per_wafer_tput = base.report.throughput_tokens_per_s;
    }

    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &event = events[i];
        EventReport er;
        er.index = static_cast<int>(i);
        er.at_s = event.at_s;
        er.kind = event.kind;
        er.throughput_before = per_wafer_tput * wafer_count_;

        const double t0 = common::monotonicSeconds();
        bool solve_needed = false;
        bool allow_warm = true;
        switch (event.kind) {
        case Event::Kind::SetFaults: {
            // The FaultRequest draw (one RNG, links first, cores
            // second), merged into the accumulated storm state.
            hw::FaultMap drawn(healthy.dieCount(),
                               healthy.topology().linkCount());
            Rng rng(event.fault_seed);
            if (event.link_fault_rate > 0.0)
                drawn = hw::FaultMap::randomLinkFaults(
                    healthy.topology(), event.link_fault_rate, rng);
            if (event.core_fault_rate > 0.0) {
                const hw::FaultMap cores =
                    hw::FaultMap::randomCoreFaults(
                        healthy.topology(), event.core_fault_rate,
                        rng);
                for (hw::DieId die = 0; die < healthy.dieCount();
                     ++die)
                    drawn.setCoreFaultFraction(
                        die, cores.coreFaultFraction(die));
            }
            for (int die : event.kill_dies)
                if (die >= 0 && die < healthy.dieCount())
                    drawn.setCoreFaultFraction(die, 1.0);
            hw::FaultDelta delta;
            for (hw::LinkId link : drawn.failedLinks())
                if (!faults_.linkFailed(link))
                    delta.fail_links.push_back(link);
            for (hw::DieId die = 0; die < healthy.dieCount(); ++die) {
                const double want =
                    std::max(faults_.coreFaultFraction(die),
                             drawn.coreFaultFraction(die));
                if (want != faults_.coreFaultFraction(die))
                    delta.core_fractions.emplace_back(die, want);
            }
            faults_.applyDelta(delta);
            solve_needed = true;
            break;
        }
        case Event::Kind::ClearFaults:
            faults_ = hw::FaultMap(healthy.dieCount(),
                                   healthy.topology().linkCount());
            solve_needed = true;
            break;
        case Event::Kind::ModelSwitch:
            model_ = event.model;
            // The previous assignment indexes a different op chain;
            // it cannot seed the new model's search.
            last_feasible_specs_.clear();
            has_feasible_ = false;
            solve_needed = true;
            allow_warm = false;
            break;
        case Event::Kind::Reoptimize:
            solve_needed = true;
            break;
        case Event::Kind::WaferJoin:
            ++wafer_count_;
            break;
        case Event::Kind::WaferLeave:
            wafer_count_ = std::max(1, wafer_count_ - 1);
            break;
        }

        if (solve_needed) {
            SolveOutcome outcome = resolveCurrent(allow_warm);
            const solver::SolverResult &result = outcome.result;
            er.resolved = true;
            er.warm_seeded = outcome.warm_seeded;
            er.context_reused = outcome.context_reused;
            er.budget_exhausted = result.budget_exhausted;
            er.quanta_used = result.quanta_used;
            er.step_sims = result.step_sims;
            er.matrix_measurements = result.matrix_measurements;
            er.step_cache_hits = result.step_cache_hits;
            er.matrix_cache_hits = result.cache_hits;
            usable_dies = faults_.healthy()
                              ? healthy.usableDieCount()
                              : hw::Wafer(healthy.config(), faults_)
                                    .usableDieCount();
            if (result.feasible) {
                last_feasible_specs_ = result.per_op_specs;
                last_feasible_report_ = result.report;
                has_feasible_ = true;
                per_wafer_tput = result.report.throughput_tokens_per_s;
                er.step_time_s = result.report.step_time;
                er.degradation =
                    faults_.healthy() ? "healthy" : "degraded";
            } else {
                // Degraded-answer policy: never a silent wrong
                // answer. The engine keeps operating on the last
                // feasible assignment and says so explicitly.
                ++report.infeasible_events;
                er.degradation = "infeasible";
                if (has_feasible_) {
                    er.fallback_to_last_feasible = true;
                    ++report.fallback_events;
                    per_wafer_tput =
                        last_feasible_report_.throughput_tokens_per_s;
                    er.step_time_s = last_feasible_report_.step_time;
                } else {
                    per_wafer_tput = 0.0;
                    er.step_time_s = 0.0;
                }
            }
        } else {
            // Pod-membership events: the per-wafer plan is untouched;
            // only the aggregate operating point moves.
            er.degradation = !has_feasible_ ? "infeasible"
                             : faults_.healthy() ? "healthy"
                                                 : "degraded";
            er.step_time_s = has_feasible_
                                 ? last_feasible_report_.step_time
                                 : 0.0;
        }
        er.recovery_wall_s = common::monotonicSeconds() - t0;
        er.throughput_after = per_wafer_tput * wafer_count_;
        er.usable_dies = usable_dies;
        er.failed_links = faults_.failedLinkCount();
        er.wafer_count = wafer_count_;
        er.fault_fingerprint = faults_.contentFingerprint();

        report.total_step_sims += er.step_sims;
        report.total_matrix_measurements += er.matrix_measurements;
        if (er.budget_exhausted)
            ++report.budget_exhausted_events;
        report.total_quanta += er.quanta_used;
        report.total_wall_s += er.recovery_wall_s;
        report.replay_digest =
            foldEventReport(report.replay_digest, er);
        report.events.push_back(std::move(er));
    }
    return report;
}

}  // namespace temp::scenario
