#include "eval/step_evaluator.hpp"

#include "eval/cost_evaluator.hpp"

namespace temp::eval {

using parallel::ParallelSpec;

namespace {

/// Memo-served reports charge their schedule work as hits (see
/// markScheduleServed for the breakdown-level twin).
void
markReportServed(sim::PerfReport &report)
{
    report.schedule_cache_hits += report.schedule_lowerings;
    report.schedule_lowerings = 0;
}

}  // namespace

std::string
stepKey(std::uint64_t graph_fp, const std::vector<ParallelSpec> &specs)
{
    std::string key = std::to_string(graph_fp);
    for (const ParallelSpec &spec : specs) {
        key += '|';
        appendSpecKey(key, spec);
    }
    return key;
}

StepEvaluator::StepEvaluator(const sim::TrainingSimulator &simulator,
                             ThreadPool *pool)
    : sim_(simulator), pool_(pool)
{
    // Honest byte estimate: PerfReport owns a heap string
    // (strategy_desc) the default sizeof-based estimate would miss.
    cache_.setByteEstimate(
        [](const std::string &key, const sim::PerfReport &report) {
            return common::cacheByteEstimate(key) +
                   static_cast<long>(sizeof(report) +
                                     report.strategy_desc.capacity());
        });
}

sim::PerfReport
StepEvaluator::evaluate(const model::ComputeGraph &graph,
                        const std::vector<ParallelSpec> &per_op_specs,
                        common::BudgetGauge *gauge)
{
    if (gauge != nullptr)
        gauge->charge(1);
    const std::string key =
        stepKey(graphFingerprint(graph), per_op_specs);
    if (auto cached = cache_.get(key)) {
        ++cache_hits_;
        sim::PerfReport served = *cached;
        markReportServed(served);
        schedule_cache_hits_ += served.schedule_cache_hits;
        return served;
    }
    const sim::PerfReport report = sim_.simulate(graph, per_op_specs);
    auto [resident, inserted] = cache_.insert(key, report);
    if (inserted) {
        ++sims_;
        schedule_lowerings_ += report.schedule_lowerings;
        schedule_cache_hits_ += report.schedule_cache_hits;
        return resident;
    }
    ++cache_hits_;
    sim::PerfReport served = resident;
    markReportServed(served);
    schedule_cache_hits_ += served.schedule_cache_hits;
    return served;
}

sim::PerfReport
StepEvaluator::evaluate(const model::ComputeGraph &graph,
                        const ParallelSpec &spec,
                        common::BudgetGauge *gauge)
{
    return evaluate(graph,
                    std::vector<ParallelSpec>(
                        static_cast<std::size_t>(graph.opCount()), spec),
                    gauge);
}

std::vector<sim::PerfReport>
StepEvaluator::evaluateBatch(
    const model::ComputeGraph &graph,
    const std::vector<std::vector<ParallelSpec>> &assignments,
    common::BudgetGauge *gauge)
{
    // The batch is a solve-budget quantum: charge it whole (one
    // quantum per assignment, memo-served or not) and never look at
    // the gauge mid-batch — callers check between batches, which is
    // what keeps budget-truncated runs bit-exact.
    if (gauge != nullptr)
        gauge->charge(static_cast<long>(assignments.size()));
    std::vector<sim::PerfReport> results(assignments.size());
    if (assignments.empty())
        return results;
    const std::uint64_t graph_fp = graphFingerprint(graph);

    // Dedup: one slot per distinct assignment, every request maps to a
    // slot (the same machinery as the matrix evaluators' BatchPlan).
    std::vector<std::string> slot_key;
    std::vector<std::size_t> slot_request;
    std::vector<std::size_t> request_slot(assignments.size());
    std::unordered_map<std::string, std::size_t> slot_of;
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        std::string key = stepKey(graph_fp, assignments[i]);
        auto [it, inserted] =
            slot_of.emplace(std::move(key), slot_key.size());
        if (inserted) {
            slot_key.push_back(it->first);
            slot_request.push_back(i);
        }
        request_slot[i] = it->second;
    }
    const std::size_t n_slots = slot_key.size();

    // Serve cached slots; collect the misses.
    std::vector<sim::PerfReport> slot_value(n_slots);
    std::vector<bool> slot_cached(n_slots, false);
    std::vector<std::size_t> missing;
    for (std::size_t s = 0; s < n_slots; ++s) {
        if (auto cached = cache_.get(slot_key[s])) {
            slot_value[s] = *cached;
            slot_cached[s] = true;
        } else {
            missing.push_back(s);
        }
    }

    // Simulate the misses in parallel. Each simulation is independent
    // and the simulator is thread-safe (its layout memo is locked, the
    // rest is stateless), so slot s always holds the same bits for any
    // thread count.
    auto simulate_missing = [&](std::size_t m) {
        const std::size_t s = missing[m];
        slot_value[s] = sim_.simulate(graph, assignments[slot_request[s]]);
    };
    if (pool_ != nullptr)
        pool_->parallelFor(missing.size(), simulate_missing);
    else
        for (std::size_t m = 0; m < missing.size(); ++m)
            simulate_missing(m);
    sims_ += static_cast<long>(missing.size());

    for (std::size_t s : missing)
        cache_.insert(slot_key[s], slot_value[s]);

    // Expand slots into request order: every request beyond the first
    // reference of an uncached slot (and every reference of a
    // pre-cached one) is a hit, and served reports charge their
    // schedule work as hits.
    long hits = 0;
    long sched_lowerings = 0;
    long sched_hits = 0;
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        const std::size_t s = request_slot[i];
        results[i] = slot_value[s];
        if (slot_cached[s]) {
            ++hits;
            markReportServed(results[i]);
            sched_hits += results[i].schedule_cache_hits;
        } else {
            slot_cached[s] = true;
            sched_lowerings += results[i].schedule_lowerings;
            sched_hits += results[i].schedule_cache_hits;
        }
    }
    cache_hits_ += hits;
    schedule_lowerings_ += sched_lowerings;
    schedule_cache_hits_ += sched_hits;
    return results;
}

StepStats
StepEvaluator::stats() const
{
    // Only the report memo's evictions: the layouts and cells a step
    // query reads live in the simulator's evaluator, whose evictions
    // EvalStats already counts.
    return {sims_.load(), cache_hits_.load(), schedule_lowerings_.load(),
            schedule_cache_hits_.load(), cache_.stats().evictions};
}

}  // namespace temp::eval
