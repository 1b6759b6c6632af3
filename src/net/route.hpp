/**
 * @file
 * Routes and routing policies on the wafer mesh.
 *
 * The mesh offers little path diversity (Challenge 2, Sec. III-B); the
 * router exposes exactly the choices the traffic-conscious optimizer can
 * exploit: dimension-ordered XY and YX routes, plus single-waypoint
 * detours, all optionally avoiding failed links.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "common/bounded_cache.hpp"
#include "hw/fault.hpp"
#include "hw/topology.hpp"

namespace temp::net {

using hw::DieId;
using hw::LinkId;

/// An ordered sequence of directed links from src to dst.
struct Route
{
    DieId src = -1;
    DieId dst = -1;
    std::vector<LinkId> links;

    /// Number of link traversals.
    int hops() const { return static_cast<int>(links.size()); }

    bool empty() const { return links.empty(); }
};

/**
 * A shared handle to an immutable, pooled Route.
 *
 * Flows reference routes through this instead of owning a Route copy,
 * so copying a flow (schedule-cache reuse, phase combination) costs a
 * reference count instead of a LinkId-vector allocation. A
 * default-constructed ref reads as an empty route (no links), the state
 * of an infeasible transfer.
 */
class RouteRef
{
  public:
    RouteRef() = default;
    RouteRef(std::shared_ptr<const Route> route) : route_(std::move(route))
    {
    }
    /// Pools a one-off route value (ad-hoc flows, tests).
    RouteRef(Route route)
        : route_(std::make_shared<const Route>(std::move(route)))
    {
    }

    /// True when a route is attached (even a trivial src==dst one).
    bool valid() const { return route_ != nullptr; }

    const Route &get() const;
    const Route &operator*() const { return get(); }
    const Route *operator->() const { return &get(); }

    int hops() const { return route_ ? route_->hops() : 0; }
    bool empty() const { return route_ == nullptr || route_->empty(); }
    const std::vector<LinkId> &links() const { return get().links; }

    /// Content equality of the underlying link sequences.
    bool sameLinks(const RouteRef &other) const
    {
        return route_ == other.route_ || links() == other.links();
    }

    /**
     * Number of RouteRefs sharing the underlying route (0 for an
     * invalid ref). The router's pool eviction uses this as its pin
     * check: a pooled route with a share count above the pool's own
     * reference is held by live flows and must not be dropped.
     */
    long shareCount() const
    {
        return route_ ? static_cast<long>(route_.use_count()) : 0;
    }

  private:
    std::shared_ptr<const Route> route_;
};

/// Dimension order used for deterministic mesh routing.
enum class RoutePolicy
{
    XY,  ///< traverse columns first, then rows
    YX,  ///< traverse rows first, then columns
};

/**
 * Computes routes on a mesh topology, optionally honouring a fault map.
 *
 * The router never fabricates links: every produced route uses only links
 * present (and usable) in the topology.
 */
class Router
{
  public:
    /// @param faults Optional fault map; failed links are avoided by
    ///        shortestPath() and reported unusable by routeUsable().
    explicit Router(const hw::MeshTopology &topo,
                    const hw::FaultMap *faults = nullptr);

    /// Dimension-ordered route; always exists on a healthy mesh.
    Route route(DieId src, DieId dst, RoutePolicy policy = RoutePolicy::XY)
        const;

    /// Route through an intermediate waypoint (detour for rerouting).
    Route routeVia(DieId src, DieId waypoint, DieId dst,
                   RoutePolicy first = RoutePolicy::XY,
                   RoutePolicy second = RoutePolicy::XY) const;

    /**
     * BFS shortest path avoiding failed links; empty optional when the
     * destination is unreachable (fabric partitioned by faults).
     */
    std::optional<Route> shortestPath(DieId src, DieId dst) const;

    /**
     * Dimension-ordered route with automatic fault fallback: returns the
     * XY/YX route when usable, otherwise the BFS detour, otherwise an
     * empty optional (fabric partitioned — the caller must treat the
     * transfer as infeasible).
     */
    std::optional<Route> safeRoute(DieId src, DieId dst,
                                   RoutePolicy policy = RoutePolicy::XY)
        const;

    /**
     * Memoized, pooled safeRoute(): the hot path of collective
     * lowering. Returns an invalid (empty) ref when the destination is
     * unreachable. Entries invalidate when the fault map's revision
     * changes; thread-safe.
     */
    RouteRef safeRouteRef(DieId src, DieId dst,
                          RoutePolicy policy = RoutePolicy::XY) const;

    /// Pooled single-link route (broadcast trees, multicast branches).
    /// Link routes are topology-only, so they never invalidate.
    RouteRef linkRoute(LinkId link) const;

    /**
     * Candidate routes for the traffic optimizer: XY, YX and one-bend
     * detours through neighbours of the source. Deduplicated; all usable
     * under the fault map.
     */
    std::vector<Route> candidateRoutes(DieId src, DieId dst) const;

    /// Memoized, pooled candidateRoutes() (same fault-revision
    /// invalidation contract as safeRouteRef). The returned vector is
    /// shared and immutable.
    std::shared_ptr<const std::vector<RouteRef>> candidateRouteRefs(
        DieId src, DieId dst) const;

    /// True if every link on the route is usable under the fault map.
    bool routeUsable(const Route &route) const;

    const hw::MeshTopology &topology() const { return topo_; }

    /// Current fault revision this router observes (0 when fault-free).
    std::uint64_t faultRevision() const
    {
        return faults_ != nullptr ? faults_->revision() : 0;
    }

    /**
     * Entry budget for each of the safe-route and candidate pools
     * (0 = unbounded). Eviction is LRU but refcount-aware: a route
     * (or candidate list) still referenced outside the pool — live
     * flows in cached schedules, callers iterating candidates — is
     * pinned and never dropped; consumers always keep their shared
     * handles alive regardless. The per-link pool is topology-sized
     * and stays unbudgeted.
     */
    void setPoolBudget(std::size_t max_entries) const;

    /// Byte budget for each pool (0 = unbounded), over the pools'
    /// honest route-footprint estimates; composes with the entry
    /// budget and the same refcount-aware pinning applies.
    void setPoolMaxBytes(long max_bytes) const;

    /**
     * Eagerly drops every pooled route computed under a superseded
     * fault revision (no-op when the pool is current). Without this,
     * the pool retains a dead epoch's routes until (unless) a next
     * pooled lookup arrives — wired to the wafer's epoch listeners by
     * the cost model so fault-injection sweeps don't accumulate them.
     */
    void dropStaleRoutes() const;

    /// Governance counters of the route pool (safe + candidate pools
    /// combined; hits/misses cover the pooled lookups).
    common::CacheStats poolStats() const;

  private:
    bool linkUsable(LinkId link) const;

    /// Drops memoized routes when the fault revision moved. Caller must
    /// hold pool_mutex_ exclusively.
    void refreshPoolLocked() const;

    const hw::MeshTopology &topo_;
    const hw::FaultMap *faults_;

    /// Route pool: memoized safe routes and optimizer candidates, keyed
    /// on (src, dst, policy), plus per-link single-hop routes. Reads
    /// take the lock shared when unbounded (the warm-pool hot path;
    /// bounded reads go exclusive to refresh LRU order); misses upgrade
    /// to exclusive. Cleared when faults_->revision() changes; a route
    /// computed while the revision moved is returned but never
    /// persisted, so stale routes cannot leak into the new epoch.
    mutable std::shared_mutex pool_mutex_;
    mutable std::uint64_t pool_revision_ = 0;
    /// Lockless mirrors of the pools' budgets (hit paths branch on
    /// boundedness before locking).
    mutable std::atomic<std::size_t> pool_budget_{0};
    mutable std::atomic<long> pool_max_bytes_{0};
    mutable common::LruMap<std::uint64_t, RouteRef> safe_pool_;
    mutable common::LruMap<
        std::uint64_t, std::shared_ptr<const std::vector<RouteRef>>>
        candidate_pool_;
    mutable std::vector<RouteRef> link_pool_;
    mutable std::atomic<long> pool_hits_{0};
    mutable std::atomic<long> pool_misses_{0};
};

}  // namespace temp::net
