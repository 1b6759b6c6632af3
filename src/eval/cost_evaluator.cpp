#include "eval/cost_evaluator.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace temp::eval {

using parallel::GroupLayout;
using parallel::ParallelSpec;

void
markScheduleServed(cost::OpCostBreakdown &breakdown)
{
    breakdown.schedule_cache_hits += breakdown.schedule_lowerings;
    breakdown.schedule_lowerings = 0;
}

void
appendSpecKey(std::string &key, const ParallelSpec &spec)
{
    key += std::to_string(spec.dp);
    key += ',';
    key += std::to_string(spec.fsdp);
    key += ',';
    key += std::to_string(spec.tp);
    key += ',';
    key += std::to_string(spec.sp);
    key += ',';
    key += std::to_string(spec.cp);
    key += ',';
    key += std::to_string(spec.tatp);
    key += ',';
    key += std::to_string(spec.pp);
    key += spec.coupled_sp ? ",c" : ",n";
}

std::uint64_t
graphFingerprint(const model::ComputeGraph &graph)
{
    const model::ModelConfig &cfg = graph.config();
    std::uint64_t hash =
        common::fnv1a(common::kFnvOffset, cfg.name.data(), cfg.name.size());
    for (const int field :
         {cfg.heads, cfg.batch, cfg.hidden, cfg.layers, cfg.seq,
          cfg.ffn_mult, cfg.vocab, graph.opCount(), graph.layerCount()})
        hash = common::fnv1aU64(hash, static_cast<std::uint64_t>(field));
    return hash;
}

std::string
evalKey(std::uint64_t graph_fp, const EvalRequest &request)
{
    std::string key = std::to_string(graph_fp);
    key += '|';
    key += std::to_string(request.op_id);
    key += '|';
    appendSpecKey(key, request.spec);
    key += request.include_step ? "|s" : "|m";
    return key;
}

std::string
layoutKey(std::uint64_t graph_fp, const ParallelSpec &spec)
{
    std::string key = std::to_string(graph_fp);
    key += '|';
    appendSpecKey(key, spec);
    return key;
}

// ---------------------------------------------------------------------
// LayoutCache
// ---------------------------------------------------------------------

LayoutCache::LayoutCache(const cost::WaferCostModel &model) : model_(model)
{
    // Honest byte estimate: the default sizeof(shared_ptr) would make
    // a layout byte budget meaningless.
    cache_.setByteEstimate(
        [](const std::string &key,
           const std::shared_ptr<const GroupLayout> &layout) {
            long bytes = common::cacheByteEstimate(key) +
                         static_cast<long>(sizeof(layout));
            if (layout != nullptr)
                bytes += layout->byteEstimate();
            return bytes;
        });
}

std::shared_ptr<const GroupLayout>
LayoutCache::layoutFor(const model::ComputeGraph &graph,
                       const ParallelSpec &spec, bool counted)
{
    const std::string key = layoutKey(graphFingerprint(graph), spec);
    if (auto cached = cache_.get(key)) {
        if (counted)
            ++hits_;
        return *cached;
    }
    // Build outside the cache lock (construction dominates); on a
    // concurrent duplicate build, the first insert wins so callers
    // share one instance.
    auto layout =
        std::make_shared<const GroupLayout>(model_.buildLayout(graph, spec));
    auto [resident, inserted] = cache_.insert(key, std::move(layout));
    if (counted)
        ++(inserted ? builds_ : hits_);
    return resident;
}

namespace {

/**
 * Folds a batch's repeated requests: each distinct key gets one slot;
 * every request maps to a slot.
 */
struct BatchPlan
{
    std::vector<std::string> distinct_keys;
    /// Index of the first request referencing each slot.
    std::vector<std::size_t> distinct_request;
    std::vector<std::size_t> request_slot;

    BatchPlan(std::uint64_t graph_fp,
              const std::vector<EvalRequest> &requests)
    {
        request_slot.resize(requests.size());
        std::unordered_map<std::string, std::size_t> slot_of;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            std::string key = evalKey(graph_fp, requests[i]);
            auto [it, inserted] =
                slot_of.emplace(std::move(key), distinct_keys.size());
            if (inserted) {
                distinct_keys.push_back(it->first);
                distinct_request.push_back(i);
            }
            request_slot[i] = it->second;
        }
    }

    /**
     * Expands slot values into request order, counting a hit for every
     * request beyond the first reference of an uncached slot (and for
     * every reference of a pre-cached one). Served results get their
     * schedule accounting rewritten to hits; the schedule aggregates
     * accumulate one charge per request.
     */
    long
    assemble(const std::vector<cost::OpCostBreakdown> &slot_value,
             std::vector<bool> &slot_cached,
             std::vector<cost::OpCostBreakdown> &results,
             long &sched_lowerings, long &sched_hits) const
    {
        long hits = 0;
        for (std::size_t i = 0; i < request_slot.size(); ++i) {
            const std::size_t s = request_slot[i];
            results[i] = slot_value[s];
            if (slot_cached[s]) {
                ++hits;
                markScheduleServed(results[i]);
                sched_hits += results[i].schedule_cache_hits;
            } else {
                slot_cached[s] = true;  // first reference measured it
                sched_lowerings += results[i].schedule_lowerings;
                sched_hits += results[i].schedule_cache_hits;
            }
        }
        return hits;
    }
};

}  // namespace

// ---------------------------------------------------------------------
// CostEvaluator default batch
// ---------------------------------------------------------------------

std::vector<cost::OpCostBreakdown>
CostEvaluator::evaluateBatch(const model::ComputeGraph &graph,
                             const std::vector<EvalRequest> &requests,
                             common::BudgetGauge *gauge)
{
    std::vector<cost::OpCostBreakdown> results(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        results[i] = evaluate(graph, requests[i]);
    // Matrix batches are atomic and charge no quanta; polling the
    // gauge after the batch latches a wall/token expiry at this
    // quantum boundary (see the interface contract).
    if (gauge != nullptr)
        gauge->exhausted();
    return results;
}

// ---------------------------------------------------------------------
// ExactEvaluator
// ---------------------------------------------------------------------

ExactEvaluator::ExactEvaluator(const cost::WaferCostModel &model,
                               ThreadPool *pool)
    : model_(model), pool_(pool), layouts_(model)
{
    // Layouts place groups around the faults and breakdowns bake the
    // fault state in, so a setFaults() on the live wafer drops both
    // (the cost model flushes its own network caches the same way).
    epoch_listener_id_ =
        model_.wafer().addEpochListener([this](std::uint64_t) {
            layouts_.clear();
            cache_.clear();
        });
}

ExactEvaluator::~ExactEvaluator()
{
    model_.wafer().removeEpochListener(epoch_listener_id_);
}

cost::OpCostBreakdown
ExactEvaluator::serve(const cost::OpCostBreakdown &cached)
{
    ++cache_hits_;
    cost::OpCostBreakdown served = cached;
    markScheduleServed(served);
    schedule_cache_hits_ += served.schedule_cache_hits;
    return served;
}

cost::OpCostBreakdown
ExactEvaluator::evaluate(const model::ComputeGraph &graph,
                         const EvalRequest &request)
{
    const std::string key = evalKey(graphFingerprint(graph), request);
    if (auto cached = cache_.get(key))
        return serve(*cached);
    const std::shared_ptr<const GroupLayout> layout =
        layouts_.layoutFor(graph, request.spec);
    const cost::OpCostBreakdown breakdown = model_.opCost(
        graph.op(request.op_id), *layout, request.include_step);
    auto [resident, inserted] = cache_.insert(key, breakdown);
    if (!inserted)
        return serve(resident);
    ++measurements_;
    schedule_lowerings_ += breakdown.schedule_lowerings;
    schedule_cache_hits_ += breakdown.schedule_cache_hits;
    return resident;
}

cost::OpCostBreakdown
ExactEvaluator::stepCell(std::uint64_t graph_fp, const EvalRequest &request,
                         const model::Operator &op,
                         const parallel::OpExecution &exec,
                         const GroupLayout &layout)
{
    const std::string key = evalKey(graph_fp, request);
    if (auto cached = cache_.get(key)) {
        cost::OpCostBreakdown served = *cached;
        markScheduleServed(served);
        return served;
    }
    const cost::OpCostBreakdown breakdown =
        model_.opCost(exec, op, layout, request.include_step);
    cache_.insert(key, breakdown);
    return breakdown;
}

std::vector<cost::OpCostBreakdown>
ExactEvaluator::evaluateBatch(const model::ComputeGraph &graph,
                              const std::vector<EvalRequest> &requests,
                              common::BudgetGauge *gauge)
{
    std::vector<cost::OpCostBreakdown> results(requests.size());
    if (requests.empty())
        return results;
    const std::uint64_t graph_fp = graphFingerprint(graph);
    const BatchPlan plan(graph_fp, requests);
    const std::size_t n_slots = plan.distinct_request.size();

    // Serve cached slots; collect the misses.
    std::vector<cost::OpCostBreakdown> slot_value(n_slots);
    std::vector<bool> slot_cached(n_slots, false);
    std::vector<std::size_t> missing;
    for (std::size_t s = 0; s < n_slots; ++s) {
        if (auto cached = cache_.get(plan.distinct_keys[s])) {
            slot_value[s] = *cached;
            slot_cached[s] = true;
        } else {
            missing.push_back(s);
        }
    }
    auto slot_request = [&](std::size_t s) -> const EvalRequest & {
        return requests[plan.distinct_request[s]];
    };
    // Phase 1: build the missing specs' layouts, one task per distinct
    // spec, keeping the shared_ptr at hand so phase 2 reads it without
    // re-keying or touching the cache mutex per cell.
    std::unordered_map<std::string, std::size_t> spec_slot;
    std::vector<const ParallelSpec *> spec_list;
    std::vector<std::size_t> missing_spec(missing.size());
    for (std::size_t m = 0; m < missing.size(); ++m) {
        const ParallelSpec &spec = slot_request(missing[m]).spec;
        std::string key = layoutKey(graph_fp, spec);
        auto [it, inserted] =
            spec_slot.emplace(std::move(key), spec_list.size());
        if (inserted)
            spec_list.push_back(&spec);
        missing_spec[m] = it->second;
    }
    std::vector<std::shared_ptr<const GroupLayout>> layout_list(
        spec_list.size());
    auto build_layout = [&](std::size_t i) {
        layout_list[i] = layouts_.layoutFor(graph, *spec_list[i]);
    };
    if (pool_ != nullptr)
        pool_->parallelFor(spec_list.size(), build_layout);
    else
        for (std::size_t i = 0; i < spec_list.size(); ++i)
            build_layout(i);

    // Phase 2: compute the missing breakdowns in parallel. Each cell is
    // independent, so values are bit-exact for any thread count.
    auto compute_missing = [&](std::size_t m) {
        const EvalRequest &request = slot_request(missing[m]);
        slot_value[missing[m]] =
            model_.opCost(graph.op(request.op_id),
                          *layout_list[missing_spec[m]],
                          request.include_step);
    };
    if (pool_ != nullptr)
        pool_->parallelFor(missing.size(), compute_missing);
    else
        for (std::size_t m = 0; m < missing.size(); ++m)
            compute_missing(m);
    measurements_ += static_cast<long>(missing.size());
    for (std::size_t s : missing)
        cache_.insert(plan.distinct_keys[s], slot_value[s]);

    long sched_lowerings = 0;
    long sched_hits = 0;
    cache_hits_ += plan.assemble(slot_value, slot_cached, results,
                                 sched_lowerings, sched_hits);
    schedule_lowerings_ += sched_lowerings;
    schedule_cache_hits_ += sched_hits;
    // Batch complete: latch any wall/token expiry at this boundary.
    if (gauge != nullptr)
        gauge->exhausted();
    return results;
}

EvalStats
ExactEvaluator::stats() const
{
    return {measurements_.load(),
            cache_hits_.load(),
            layouts_.builds(),
            layouts_.hits(),
            schedule_lowerings_.load(),
            schedule_cache_hits_.load(),
            cache_.stats().evictions + layouts_.cacheStats().evictions};
}

void
ExactEvaluator::setCacheBudget(const common::CacheBudget &budget)
{
    cache_.setCapacity(budget.max_eval_entries);
    cache_.setMaxBytes(budget.max_eval_bytes);
    layouts_.setMaxEntries(budget.max_layout_entries);
    layouts_.setMaxBytes(budget.max_layout_bytes);
}

}  // namespace temp::eval
