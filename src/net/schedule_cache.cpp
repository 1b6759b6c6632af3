#include "net/schedule_cache.hpp"

#include <bit>
#include <mutex>

#include "common/hash.hpp"

namespace temp::net {

namespace {

using common::fnv1aU64;

std::size_t
hashSignature(CollectiveKind kind, int tag, std::uint64_t bytes_bits,
              const std::vector<hw::DieId> &group)
{
    std::uint64_t hash = common::kFnvOffset;
    hash = fnv1aU64(hash, static_cast<std::uint64_t>(kind));
    hash = fnv1aU64(
        hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
    hash = fnv1aU64(hash, bytes_bits);
    for (hw::DieId die : group)
        hash = fnv1aU64(hash, static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(die)));
    return static_cast<std::size_t>(hash);
}

/// Emits a phase's key words (see ScheduleCache::PhaseKey) in order.
template <typename Fn>
void
forEachPhaseWord(const std::vector<CollectiveTask> &tasks, Fn &&emit)
{
    for (const CollectiveTask &task : tasks) {
        emit(static_cast<std::uint64_t>(task.kind) << 32 |
             static_cast<std::uint32_t>(task.tag));
        emit(std::bit_cast<std::uint64_t>(task.bytes));
        emit(static_cast<std::uint64_t>(task.group.size()));
        for (hw::DieId die : task.group)
            emit(static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(die)));
    }
}

}  // namespace

std::size_t
ScheduleCache::KeyHash::operator()(const Key &key) const
{
    return hashSignature(key.kind, key.tag, key.bytes_bits, key.group);
}

std::size_t
ScheduleCache::KeyHash::operator()(const KeyView &key) const
{
    return hashSignature(key.kind, key.tag, key.bytes_bits, *key.group);
}

bool
ScheduleCache::KeyEqual::operator()(const Key &a, const Key &b) const
{
    return a.kind == b.kind && a.tag == b.tag &&
           a.bytes_bits == b.bytes_bits && a.group == b.group;
}

bool
ScheduleCache::KeyEqual::operator()(const Key &a, const KeyView &b) const
{
    return a.kind == b.kind && a.tag == b.tag &&
           a.bytes_bits == b.bytes_bits && a.group == *b.group;
}

bool
ScheduleCache::KeyEqual::operator()(const KeyView &a, const Key &b) const
{
    return (*this)(b, a);
}

std::size_t
ScheduleCache::PhaseHash::operator()(const PhaseKey &key) const
{
    std::uint64_t hash = common::kFnvOffset;
    for (std::uint64_t word : key.words)
        hash = fnv1aU64(hash, word);
    return static_cast<std::size_t>(hash);
}

std::size_t
ScheduleCache::PhaseHash::operator()(const PhaseView &key) const
{
    std::uint64_t hash = common::kFnvOffset;
    forEachPhaseWord(*key.tasks,
                     [&](std::uint64_t word) { hash = fnv1aU64(hash, word); });
    return static_cast<std::size_t>(hash);
}

bool
ScheduleCache::PhaseEqual::operator()(const PhaseKey &a,
                                      const PhaseKey &b) const
{
    return a.words == b.words;
}

bool
ScheduleCache::PhaseEqual::operator()(const PhaseKey &a,
                                      const PhaseView &b) const
{
    std::size_t i = 0;
    bool equal = true;
    forEachPhaseWord(*b.tasks, [&](std::uint64_t word) {
        equal = equal && i < a.words.size() && a.words[i] == word;
        ++i;
    });
    return equal && i == a.words.size();
}

bool
ScheduleCache::PhaseEqual::operator()(const PhaseView &a,
                                      const PhaseKey &b) const
{
    return (*this)(b, a);
}

ScheduleCache::ScheduleCache(const CollectiveScheduler &scheduler)
    : scheduler_(scheduler)
{
    cache_.setByteEstimate(
        [](const Key &key, const std::shared_ptr<const CommSchedule> &s) {
            long bytes = static_cast<long>(
                sizeof(Key) + key.group.capacity() * sizeof(DieId));
            if (s != nullptr)
                bytes += static_cast<long>(sizeof(CommSchedule) +
                                           s->flowCount() * sizeof(Flow) +
                                           s->soaByteEstimate());
            return bytes;
        });
    // Key words plus the shared slot (object and its control block,
    // which make_shared allocates together).
    phases_.setByteEstimate(
        [](const PhaseKey &key, const std::shared_ptr<PhaseSlot> &) {
            return static_cast<long>(
                sizeof(PhaseKey) +
                key.words.capacity() * sizeof(std::uint64_t) +
                sizeof(std::shared_ptr<PhaseSlot>) + sizeof(PhaseSlot) +
                2 * sizeof(long));
        });
}

template <typename Map, typename View, typename Value>
bool
ScheduleCache::probe(Map &map, const View &view, std::uint64_t fault_epoch,
                     std::atomic<long> &hits, Value *out)
{
    if (max_entries_.load(std::memory_order_relaxed) == 0 &&
        max_bytes_.load(std::memory_order_relaxed) == 0) {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (epoch_ == fault_epoch) {
            if (const auto *cached = map.peek(view)) {
                ++hits;
                *out = *cached;
                return true;
            }
        }
    } else {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        if (epoch_ == fault_epoch) {
            if (auto *cached = map.touch(view)) {
                ++hits;
                *out = *cached;
                return true;
            }
        }
    }
    return false;
}

void
ScheduleCache::syncEpochLocked(std::uint64_t fault_epoch)
{
    if (fault_epoch == epoch_)
        return;
    // Fault state moved since these schedules were lowered; their
    // routes (and every phase cost timed over them) are stale. Flush
    // wholesale.
    cache_.clear();
    phases_.clear();
    epoch_ = fault_epoch;
}

std::shared_ptr<const CommSchedule>
ScheduleCache::lowered(const CollectiveTask &task, std::uint64_t fault_epoch,
                       bool *hit)
{
    const KeyView view{task.kind, task.tag,
                       std::bit_cast<std::uint64_t>(task.bytes),
                       &task.group};

    // Hit path: a non-owning probe that allocates nothing.
    std::shared_ptr<const CommSchedule> schedule;
    if (probe(cache_, view, fault_epoch, hits_, &schedule)) {
        if (hit != nullptr)
            *hit = true;
        return schedule;
    }

    std::unique_lock<std::shared_mutex> lock(mutex_);
    syncEpochLocked(fault_epoch);
    if (auto *cached = cache_.touch(view)) {
        // Another thread lowered it between our two lock scopes.
        ++hits_;
        if (hit != nullptr)
            *hit = true;
        return *cached;
    }
    // Lower under the exclusive lock: duplicates across threads would
    // break the "lowered exactly once" accounting, and each unique task
    // misses once per epoch (or per eviction under a finite budget).
    // Cache entries are evaluated many times, so finalize the SoA view
    // once here.
    CommSchedule built = scheduler_.schedule(task);
    built.finalize();
    schedule = std::make_shared<const CommSchedule>(std::move(built));
    ++lowerings_;
    if (hit != nullptr)
        *hit = false;
    return *cache_
                .insert(Key{task.kind, task.tag,
                            std::bit_cast<std::uint64_t>(task.bytes),
                            task.group},
                        std::move(schedule))
                .first;
}

std::shared_ptr<ScheduleCache::PhaseSlot>
ScheduleCache::phaseSlot(const std::vector<CollectiveTask> &tasks,
                         std::uint64_t fault_epoch)
{
    const PhaseView view{&tasks};
    std::shared_ptr<PhaseSlot> slot;
    if (probe(phases_, view, fault_epoch, phase_hits_, &slot))
        return slot;

    std::unique_lock<std::shared_mutex> lock(mutex_);
    syncEpochLocked(fault_epoch);
    if (auto *cached = phases_.touch(view)) {
        ++phase_hits_;
        return *cached;
    }
    // Only the empty slot is inserted under the lock; its cost is
    // computed by the requester after the lock is released.
    PhaseKey key;
    forEachPhaseWord(tasks,
                     [&](std::uint64_t word) { key.words.push_back(word); });
    ++phase_misses_;
    return *phases_
                .insert(std::move(key), std::make_shared<PhaseSlot>())
                .first;
}

common::CacheStats
ScheduleCache::cacheStats() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    common::CacheStats stats;
    stats.entries = static_cast<long>(cache_.size());
    stats.bytes_est = cache_.bytesEstimate();
    stats.hits = hits_.load();
    stats.misses = lowerings_.load();
    stats.evictions = cache_.evictions();
    return stats;
}

common::CacheStats
ScheduleCache::phaseStats() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    common::CacheStats stats;
    stats.entries = static_cast<long>(phases_.size());
    stats.bytes_est = phases_.bytesEstimate();
    stats.hits = phase_hits_.load();
    stats.misses = phase_misses_.load();
    stats.evictions = phases_.evictions();
    return stats;
}

void
ScheduleCache::setMaxEntries(std::size_t max_entries)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    max_entries_.store(max_entries, std::memory_order_relaxed);
    cache_.setCapacity(max_entries);
    phases_.setCapacity(max_entries);
}

void
ScheduleCache::setMaxBytes(long max_bytes)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    max_bytes_.store(max_bytes > 0 ? max_bytes : 0,
                     std::memory_order_relaxed);
    cache_.setMaxBytes(max_bytes);
    phases_.setMaxBytes(max_bytes);
}

std::vector<CollectiveTask>
ScheduleCache::exportTasks() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<CollectiveTask> tasks;
    tasks.reserve(cache_.size());
    cache_.forEachResident(
        [&](const Key &key, const std::shared_ptr<const CommSchedule> &) {
            tasks.push_back(
                CollectiveTask{key.kind, key.group,
                               std::bit_cast<double>(key.bytes_bits),
                               key.tag});
        });
    return tasks;
}

void
ScheduleCache::flushForEpoch(std::uint64_t fault_epoch)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    syncEpochLocked(fault_epoch);
}

std::size_t
ScheduleCache::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return cache_.size();
}

void
ScheduleCache::clear()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    cache_.clear();
    phases_.clear();
}

}  // namespace temp::net
