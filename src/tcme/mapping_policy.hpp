/**
 * @file
 * Mapping-engine policies: how parallel axes are ordered onto the wafer
 * and whether the traffic optimizer runs.
 *
 * The paper's baselines (Sec. VIII-A):
 *  - SMap: "a baseline sequential mapper with a fixed parallel strategy
 *    order" — a fixed, tensor-stream-oblivious axis order, XY routes,
 *    no contention handling;
 *  - GMap: "a WSC-adapted implementation of the Gemini mapper" —
 *    variable ordering chosen greedily by per-axis traffic volume, but
 *    no spatial contention awareness;
 *  - TCME: the paper's engine — topology-aware order (TATP innermost so
 *    stream chains are physically contiguous) plus the five-phase
 *    traffic-conscious optimizer.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "parallel/spec.hpp"

namespace temp::tcme {

/// Which mapping engine drives layout and routing decisions.
enum class MappingEngineKind
{
    SMap,
    GMap,
    TCME,
};

/// Returns the printable engine name.
const char *mappingEngineName(MappingEngineKind kind);

/// The lower-case config and wire spelling ("smap", "gmap", "tcme").
const char *mappingEngineId(MappingEngineKind kind);

/// Parses a lower-case spelling; false when the name is unknown.
bool mappingEngineFromId(const std::string &id, MappingEngineKind *kind);

/// Per-axis communication volume estimates (bytes), used by GMap/TCME
/// to choose orderings.
using AxisVolumes =
    std::array<double, static_cast<std::size_t>(parallel::Axis::Count)>;

/// A mapping policy = axis order + whether contention optimisation runs.
struct MappingPolicy
{
    MappingEngineKind kind = MappingEngineKind::TCME;

    /// True when the five-phase traffic optimizer should run.
    bool contentionOptimization() const
    {
        return kind == MappingEngineKind::TCME;
    }

    /**
     * Inner-to-outer axis order for the GroupLayout.
     *
     * @param volumes Estimated per-axis traffic (GMap/TCME rank by it).
     */
    std::vector<parallel::Axis> axisOrder(const AxisVolumes &volumes) const;

    /// SMap's fixed order: DP innermost (the naive priority order),
    /// TATP outermost — oblivious to stream-chain contiguity.
    static std::vector<parallel::Axis> smapOrder();

    /// GMap's greedy order: highest-volume axis innermost (hop-aware but
    /// contention-agnostic).
    static std::vector<parallel::Axis> gmapOrder(const AxisVolumes &volumes);

    /// TCME's topology-aware order: TATP pinned innermost, remaining
    /// axes by descending volume.
    static std::vector<parallel::Axis> tcmeOrder(const AxisVolumes &volumes);
};

}  // namespace temp::tcme
