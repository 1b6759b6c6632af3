#include "cost/breakdown_reduce.hpp"

#include <limits>

namespace temp::cost {

BreakdownSums
reduceBreakdowns(std::span<const OpCostBreakdown> cells)
{
    BreakdownSums s;
    for (const OpCostBreakdown &c : cells) {
        s.wall += c.fwd_time + c.bwd_time;
        s.comp += c.comp_time;
        s.collective += c.collective_time;
        s.stream += c.stream_comm_time;
        s.exposed += c.exposed_comm;
        s.tail += c.tail_latency;
        s.flops += c.flops;
        s.dram += c.dram_bytes;
        s.d2d += c.d2d_link_bytes;
        if (c.bw_utilization > 0.0 && c.d2d_link_bytes > 0.0) {
            s.util_acc += c.bw_utilization * c.d2d_link_bytes;
            s.util_weight += c.d2d_link_bytes;
        }
    }
    return s;
}

void
breakdownTotals(std::span<const OpCostBreakdown> cells, double *out)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < cells.size(); ++k)
        out[k] = cells[k].feasible ? cells[k].total() : inf;
}

}  // namespace temp::cost
