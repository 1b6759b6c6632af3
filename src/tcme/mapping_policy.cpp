#include "tcme/mapping_policy.hpp"

#include <algorithm>

namespace temp::tcme {

using parallel::Axis;

const char *
mappingEngineName(MappingEngineKind kind)
{
    switch (kind) {
      case MappingEngineKind::SMap: return "SMap";
      case MappingEngineKind::GMap: return "GMap";
      case MappingEngineKind::TCME: return "TCME";
    }
    return "?";
}

const char *
mappingEngineId(MappingEngineKind kind)
{
    switch (kind) {
      case MappingEngineKind::SMap: return "smap";
      case MappingEngineKind::GMap: return "gmap";
      case MappingEngineKind::TCME: return "tcme";
    }
    return "?";
}

bool
mappingEngineFromId(const std::string &id, MappingEngineKind *kind)
{
    for (const MappingEngineKind k :
         {MappingEngineKind::SMap, MappingEngineKind::GMap,
          MappingEngineKind::TCME}) {
        if (id == mappingEngineId(k)) {
            *kind = k;
            return true;
        }
    }
    return false;
}

std::vector<Axis>
MappingPolicy::axisOrder(const AxisVolumes &volumes) const
{
    switch (kind) {
      case MappingEngineKind::SMap: return smapOrder();
      case MappingEngineKind::GMap: return gmapOrder(volumes);
      case MappingEngineKind::TCME: return tcmeOrder(volumes);
    }
    return smapOrder();
}

std::vector<Axis>
MappingPolicy::smapOrder()
{
    // Fixed priority order: data-parallel groups packed tightly first,
    // tensor-stream chains last — what a GPU-centric mapper would do.
    return {Axis::DP, Axis::FSDP, Axis::TP, Axis::SP, Axis::CP, Axis::TATP};
}

namespace {

std::vector<Axis>
byVolumeDescending(const AxisVolumes &volumes, std::vector<Axis> axes)
{
    std::stable_sort(axes.begin(), axes.end(), [&](Axis a, Axis b) {
        return volumes[static_cast<std::size_t>(a)] >
               volumes[static_cast<std::size_t>(b)];
    });
    return axes;
}

}  // namespace

std::vector<Axis>
MappingPolicy::gmapOrder(const AxisVolumes &volumes)
{
    // Highest-traffic axis innermost: minimises expected hops but knows
    // nothing about link contention or stream chains.
    return byVolumeDescending(volumes,
                              {Axis::DP, Axis::FSDP, Axis::TP, Axis::SP,
                               Axis::CP, Axis::TATP});
}

std::vector<Axis>
MappingPolicy::tcmeOrder(const AxisVolumes &volumes)
{
    // TATP chains must be physically contiguous (Sec. V): pin TATP
    // innermost; order the rest by volume.
    std::vector<Axis> rest = byVolumeDescending(
        volumes, {Axis::TP, Axis::SP, Axis::CP, Axis::FSDP, Axis::DP});
    std::vector<Axis> order{Axis::TATP};
    order.insert(order.end(), rest.begin(), rest.end());
    return order;
}

}  // namespace temp::tcme
