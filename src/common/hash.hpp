/**
 * @file
 * FNV-1a, the one content hash of the codebase. Snapshot and
 * checkpoint checksums, schedule-cache signatures, graph and fault-map
 * fingerprints, scenario replay digests and beam-tabu genome keys all
 * fold through these helpers, so every digest a test or a snapshot
 * pins is computed by the same few lines.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace temp::common {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// One FNV-1a step over a single unit: a byte for the byte-wise folds
/// below, a whole word for word-keyed hashes (genome tabu keys).
constexpr std::uint64_t
fnv1aStep(std::uint64_t hash, std::uint64_t unit)
{
    return (hash ^ unit) * kFnvPrime;
}

/// FNV-1a over a byte range, continuing from @p hash.
inline std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        hash = fnv1aStep(hash, bytes[i]);
    return hash;
}

/// Folds the eight little-endian bytes of @p value (host-order
/// independent).
constexpr std::uint64_t
fnv1aU64(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        hash = fnv1aStep(hash, (value >> (8 * i)) & 0xff);
    return hash;
}

}  // namespace temp::common
