/**
 * @file
 * The monotonic clock behind every wall-time field (search_time_s,
 * wall_time_s, recovery_wall_s) and wall-clock budget check.
 */
#pragma once

#include <chrono>

namespace temp::common {

/// Seconds on the steady clock since an arbitrary origin; only
/// differences between two readings are meaningful.
inline double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace temp::common
