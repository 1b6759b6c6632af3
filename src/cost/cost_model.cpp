#include "cost/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace temp::cost {

using parallel::Axis;
using parallel::GroupLayout;
using parallel::OpExecution;
using parallel::ParallelSpec;

WaferCostModel::WaferCostModel(const hw::Wafer &wafer,
                               tcme::MappingPolicy policy,
                               parallel::TrainingOptions options)
    : wafer_(wafer),
      policy_(policy),
      partitioner_(options),
      compute_(wafer.config().die, wafer.config().hbm),
      power_(wafer.config()),
      router_(wafer.topology(), &wafer.faults()),
      scheduler_(router_),
      schedule_cache_(scheduler_),
      contention_(wafer, wafer.config().d2d.latency_s),
      chain_mapper_(wafer.topology()),
      tatp_executor_(wafer.config().d2d),
      optimizer_(router_)
{
    // An entry's key words and its shape (the LRU node is not
    // counted, as in the other memo layers).
    streams_.setByteEstimate(
        [](const std::vector<std::uint64_t> &key, const StreamShape &) {
            return static_cast<long>(sizeof(key) +
                                     key.capacity() * sizeof(std::uint64_t) +
                                     sizeof(StreamShape));
        });
    // Eager invalidation: a setFaults() on the live wafer flushes the
    // dead epoch's schedules, stream shapes and pooled routes
    // immediately, instead of retaining them until (unless) a next
    // lookup notices the epoch moved. The listener only touches this
    // model's own thread-safe caches, so it is safe from whichever
    // thread injects the faults.
    epoch_listener_id_ =
        wafer_.addEpochListener([this](std::uint64_t epoch) {
            schedule_cache_.flushForEpoch(epoch);
            streams_.clear();
            router_.dropStaleRoutes();
        });
}

std::size_t
WaferCostModel::WordsHash::operator()(
    const std::vector<std::uint64_t> &words) const
{
    std::uint64_t hash = common::kFnvOffset;
    for (std::uint64_t word : words)
        hash = common::fnv1aStep(hash, word);
    return static_cast<std::size_t>(hash);
}

WaferCostModel::~WaferCostModel()
{
    wafer_.removeEpochListener(epoch_listener_id_);
}

net::PhaseTiming
WaferCostModel::timeCollectiveTasks(
    const std::vector<net::CollectiveTask> &tasks, double *link_bytes,
    net::ScheduleCacheStats *sched_stats) const
{
    net::PhaseTiming timing;
    if (tasks.empty())
        return timing;

    // Lower every task through the shared schedule cache (content-keyed
    // on the task signature, invalidated by the wafer's fault epoch).
    const std::uint64_t epoch = wafer_.faultEpoch();
    std::vector<std::shared_ptr<const net::CommSchedule>> lowered;
    lowered.reserve(tasks.size());
    bool feasible = true;
    for (const net::CollectiveTask &task : tasks) {
        bool hit = false;
        lowered.push_back(schedule_cache_.lowered(task, epoch, &hit));
        feasible = feasible && lowered.back()->feasible;
        if (sched_stats != nullptr) {
            if (hit)
                ++sched_stats->hits;
            else
                ++sched_stats->lowerings;
        }
    }
    if (!feasible) {
        timing.time_s = std::numeric_limits<double>::infinity();
        return timing;
    }

    // The phase's cost is a function of its ordered task list and the
    // fault epoch, so it is computed once per epoch and served after.
    const net::PhaseCost cost =
        schedule_cache_.phaseCost(tasks, epoch, [&] {
            // Overlay same-kind rounds in one pass: groups of one axis
            // run concurrently, and different axes' collectives inside
            // one op contend for the same links (the Fig. 11
            // scenario). The optimizer assembles each round from the
            // cached parts itself, leaving them untouched.
            std::vector<const net::CommSchedule *> parts;
            parts.reserve(lowered.size());
            for (const auto &schedule : lowered)
                parts.push_back(schedule.get());
            if (policy_.contentionOptimization()) {
                const net::CommSchedule phase = optimizer_.optimize(parts);
                return net::PhaseCost{contention_.evaluateSequence(phase),
                                      phase.linkBytes()};
            }
            // Unoptimized, a single cached schedule (finalized when it
            // was lowered) is timed as it is.
            if (parts.size() == 1)
                return net::PhaseCost{
                    contention_.evaluateSequence(*parts.front()),
                    parts.front()->linkBytes()};
            net::CommSchedule phase = net::CommSchedule::combine(parts);
            phase.finalize();
            return net::PhaseCost{contention_.evaluateSequence(phase),
                                  phase.linkBytes()};
        });
    if (link_bytes != nullptr)
        *link_bytes += cost.link_bytes;
    return cost.timing;
}

WaferCostModel::StreamShape
WaferCostModel::streamShape(
    const parallel::TatpStream &stream,
    const std::vector<std::vector<hw::DieId>> &groups) const
{
    std::vector<std::uint64_t> key{
        wafer_.faultEpoch(),
        std::bit_cast<std::uint64_t>(stream.bytes_per_round),
        static_cast<std::uint64_t>(stream.degree), groups.size()};
    for (const std::vector<hw::DieId> &group : groups) {
        key.push_back(group.size());
        for (hw::DieId die : group)
            key.push_back(static_cast<std::uint32_t>(die));
    }
    if (const std::optional<StreamShape> cached = streams_.get(key))
        return *cached;

    // Build the physical chains this layout gives the stream. Engines
    // other than SMap re-order scattered groups into the best chain
    // (GMap is hop-aware; TCME is topology-aware by construction).
    std::vector<tatp::ChainInfo> chains;
    chains.reserve(groups.size());
    for (const std::vector<hw::DieId> &group : groups)
        chains.push_back(chain_mapper_.analyzeChain(
            policy_.kind != tcme::MappingEngineKind::SMap
                ? chain_mapper_.orderAsChain(group)
                : group));

    // Worst chain gates the bulk-synchronous stream.
    const tatp::ChainInfo *worst = &chains[0];
    for (const tatp::ChainInfo &c : chains)
        if (c.max_hop > worst->max_hop)
            worst = &c;

    // Cross-group contention: evaluate the densest stream round (round
    // 0, the only one lowered) under the contention model.
    auto contended_round = [&](bool backward) {
        const net::CommSchedule flows = tatp_executor_.firstRoundFlows(
            stream, chains, router_, backward);
        if (!flows.feasible)
            return std::numeric_limits<double>::infinity();
        if (flows.empty())
            return 0.0;
        return contention_.evaluate(flows.round(0)).time_s;
    };

    const StreamShape shape{tatp::ChainHops::of(*worst), chains.size(),
                            contended_round(false), contended_round(true)};
    streams_.insert(key, shape);
    return shape;
}

void
WaferCostModel::timeStream(const OpExecution &exec, const GroupLayout &layout,
                           OpCostBreakdown &out) const
{
    const parallel::TatpStream &stream = exec.tatp;
    const int g = stream.degree;

    const std::vector<std::vector<hw::DieId>> &groups =
        layout.groups(Axis::TATP);
    if (groups.empty())
        return;
    const StreamShape shape = streamShape(stream, groups);

    double min_derate = 1.0;
    for (hw::DieId die : layout.activeDies())
        min_derate = std::min(min_derate,
                              wafer_.faults().computeDerate(die));
    // Per-round compute obeys the same roofline as any GEMM slice
    // (the streamed operand still transits DRAM); express it as an
    // effective FLOP rate so the TATP executor can overlap against it.
    const double dram_per_round_fwd =
        exec.dram_bytes_fwd / static_cast<double>(g);
    const double round_comp_fwd =
        compute_.opTime(stream.fwd_flops_per_round, dram_per_round_fwd,
                        true, min_derate);
    const double flops_rate =
        round_comp_fwd > 0.0 ? stream.fwd_flops_per_round / round_comp_fwd
                             : wafer_.config().die.peak_flops;

    const tatp::TatpTiming fwd = tatp_executor_.timePass(
        stream.fwd_flops_per_round, stream.bytes_per_round, g, shape.worst,
        flops_rate);
    const tatp::TatpTiming bwd = tatp_executor_.timePass(
        stream.bwd_flops_per_round, 2.0 * stream.bytes_per_round, g,
        shape.worst, flops_rate);

    // Take the worse of the contended round and the store-and-forward
    // estimate.
    const double fwd_comm_round =
        std::max(fwd.comm_time_s / g, shape.fwd_round_s);
    const double bwd_comm_round =
        std::max(bwd.comm_time_s / g, shape.bwd_round_s);
    if (std::isinf(fwd_comm_round) || std::isinf(bwd_comm_round)) {
        out.feasible = false;
        return;
    }

    const double fwd_round = std::max(fwd.comp_time_s / g, fwd_comm_round);
    const double bwd_round = std::max(bwd.comp_time_s / g, bwd_comm_round);

    out.fwd_time += g * fwd_round;
    out.bwd_time += g * bwd_round;
    out.comp_time += fwd.comp_time_s + bwd.comp_time_s;
    out.stream_comm_time += g * (fwd_comm_round + bwd_comm_round);
    out.exposed_comm += g * (std::max(0.0, fwd_comm_round -
                                               fwd.comp_time_s / g) +
                             std::max(0.0, bwd_comm_round -
                                               bwd.comp_time_s / g));
    // Tail latency: whatever exceeds the contiguous-chain ideal.
    const double ideal_hop =
        tatp_executor_.hopTransferTime(stream.bytes_per_round, 1);
    const double ideal_hop_bwd =
        tatp_executor_.hopTransferTime(2.0 * stream.bytes_per_round, 1);
    out.tail_latency +=
        g * (std::max(0.0, fwd_round - std::max(fwd.comp_time_s / g,
                                                ideal_hop)) +
             std::max(0.0, bwd_round - std::max(bwd.comp_time_s / g,
                                                ideal_hop_bwd)));
    out.d2d_link_bytes +=
        (fwd.link_bytes + bwd.link_bytes) * shape.chains;
}

OpCostBreakdown
WaferCostModel::opCost(const model::Operator &op, const GroupLayout &layout,
                       bool include_step) const
{
    return opCost(partitioner_.analyze(op, layout), op, layout,
                  include_step);
}

OpCostBreakdown
WaferCostModel::opCost(const OpExecution &exec, const model::Operator &op,
                       const GroupLayout &layout, bool include_step) const
{
    OpCostBreakdown out;
    const int dies = layout.usedDies();

    double min_derate = 1.0;
    for (hw::DieId die : layout.activeDies())
        min_derate = std::min(min_derate,
                              wafer_.faults().computeDerate(die));

    const double comp_fwd = compute_.opTime(
        exec.fwd_flops_per_die, exec.dram_bytes_fwd, op.isGemm(), min_derate);
    const double comp_bwd = compute_.opTime(
        exec.bwd_flops_per_die, exec.dram_bytes_bwd, op.isGemm(), min_derate);

    // Blocking collectives (Eq. 2's Collective term). One lookup-stat
    // accumulator for all phases; folded into the breakdown so callers
    // (evaluators, the simulator) inherit honest cache accounting.
    net::ScheduleCacheStats sched_stats;
    const net::PhaseTiming coll_fwd = timeCollectiveTasks(
        exec.fwd_collectives, &out.d2d_link_bytes, &sched_stats);
    const net::PhaseTiming coll_bwd = timeCollectiveTasks(
        exec.bwd_collectives, &out.d2d_link_bytes, &sched_stats);
    const net::PhaseTiming coll_step =
        include_step
            ? timeCollectiveTasks(exec.step_collectives,
                                  &out.d2d_link_bytes, &sched_stats)
            : net::PhaseTiming{};
    const net::PhaseTiming coll_overlap = timeCollectiveTasks(
        exec.overlap_collectives, &out.d2d_link_bytes, &sched_stats);
    out.schedule_lowerings = sched_stats.lowerings;
    out.schedule_cache_hits = sched_stats.hits;
    if (std::isinf(coll_fwd.time_s) || std::isinf(coll_bwd.time_s) ||
        std::isinf(coll_step.time_s) || std::isinf(coll_overlap.time_s)) {
        out.feasible = false;
        return out;
    }

    if (exec.tatp.active) {
        timeStream(exec, layout, out);
        if (!out.feasible)
            return out;
    } else {
        out.fwd_time += std::max(comp_fwd, coll_overlap.time_s);
        out.bwd_time += comp_bwd;
        out.comp_time += comp_fwd + comp_bwd;
        out.exposed_comm +=
            std::max(0.0, coll_overlap.time_s - comp_fwd);
    }

    out.fwd_time += coll_fwd.time_s;
    out.bwd_time += coll_bwd.time_s;
    out.collective_time += coll_fwd.time_s + coll_bwd.time_s;
    out.exposed_comm += coll_fwd.time_s + coll_bwd.time_s;

    // Gradient-sync collectives partially overlap backward compute.
    out.step_comm_time = coll_step.time_s * (1.0 - kGradSyncOverlap);
    out.exposed_comm += out.step_comm_time;

    out.dram_bytes = (exec.dram_bytes_fwd + exec.dram_bytes_bwd) * dies;
    out.flops = (exec.fwd_flops_per_die + exec.bwd_flops_per_die) * dies;

    // Utilisation: byte-weighted over the communication phases.
    double util_weight = 0.0;
    double util_acc = 0.0;
    for (const net::PhaseTiming *t :
         {&coll_fwd, &coll_bwd, &coll_step, &coll_overlap}) {
        if (t->total_bytes > 0.0) {
            util_acc += t->bandwidth_utilization * t->total_bytes;
            util_weight += t->total_bytes;
        }
    }
    out.bw_utilization = util_weight > 0.0 ? util_acc / util_weight : 0.0;
    return out;
}

double
WaferCostModel::interOpTime(const model::Operator &producer,
                            const ParallelSpec &from,
                            const ParallelSpec &to) const
{
    const double bytes = parallel::reshardBytesPerDie(
        producer, from, to, partitioner_.options());
    if (bytes <= 0.0)
        return 0.0;
    // Resharding is a bulk exchange between neighbouring shards; a die
    // moves its share at roughly one D2D link of bandwidth.
    const hw::D2dConfig &d2d = wafer_.config().d2d;
    return bytes / d2d.effectiveBandwidth(bytes) + d2d.latency_s;
}

tcme::AxisVolumes
WaferCostModel::estimateAxisVolumes(const model::ComputeGraph &graph,
                                    const ParallelSpec &spec) const
{
    tcme::AxisVolumes volumes{};
    std::vector<hw::DieId> probe_order =
        GroupLayout::snakeOrder(wafer_.topology());
    if (!wafer_.faults().healthy()) {
        const std::vector<hw::DieId> usable = wafer_.usableDies();
        if (static_cast<int>(usable.size()) >= spec.totalDegree()) {
            std::vector<bool> ok(wafer_.dieCount(), false);
            for (hw::DieId die : usable)
                ok[die] = true;
            std::erase_if(probe_order,
                          [&](hw::DieId die) { return !ok[die]; });
        }
    }
    GroupLayout probe(std::move(probe_order), spec,
                      parallel::defaultAxisOrder());
    for (const model::Operator &op : graph.ops()) {
        const OpExecution exec = partitioner_.analyze(op, probe);
        auto account = [&volumes](const std::vector<net::CollectiveTask>
                                      &tasks) {
            for (const net::CollectiveTask &task : tasks) {
                const int axis = task.tag - 1000;
                if (axis < 0 ||
                    axis >= static_cast<int>(parallel::Axis::Count))
                    continue;
                volumes[axis] +=
                    task.bytes * static_cast<double>(task.group.size());
            }
        };
        account(exec.fwd_collectives);
        account(exec.bwd_collectives);
        account(exec.step_collectives);
        account(exec.overlap_collectives);
        if (exec.tatp.active) {
            volumes[static_cast<std::size_t>(Axis::TATP)] +=
                exec.tatp.group_tensor_bytes * 2.0;
        }
    }
    return volumes;
}

GroupLayout
WaferCostModel::buildLayout(const model::ComputeGraph &graph,
                            const ParallelSpec &spec) const
{
    const tcme::AxisVolumes volumes = estimateAxisVolumes(graph, spec);
    if (wafer_.faults().healthy()) {
        return GroupLayout(wafer_.topology(), spec,
                           policy_.axisOrder(volumes));
    }
    // Fault-tolerant placement: keep the snake enumeration but drop
    // dies outside the largest usable component (Fig. 20a step 2:
    // re-balance partitioning around the faults). A spec too large for
    // the component is placed on the full snake instead; its routes
    // then cross the faults and the cost model reports infeasibility.
    const std::vector<hw::DieId> usable = wafer_.usableDies();
    if (static_cast<int>(usable.size()) < spec.totalDegree()) {
        return GroupLayout(wafer_.topology(), spec,
                           policy_.axisOrder(volumes));
    }
    std::vector<bool> ok(wafer_.dieCount(), false);
    for (hw::DieId die : usable)
        ok[die] = true;
    std::vector<hw::DieId> order;
    for (hw::DieId die : GroupLayout::snakeOrder(wafer_.topology()))
        if (ok[die])
            order.push_back(die);
    return GroupLayout(std::move(order), spec,
                       policy_.axisOrder(volumes));
}

}  // namespace temp::cost
