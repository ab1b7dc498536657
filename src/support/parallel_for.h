// Fork-join parallel loop for the offline utilities: per-node convert,
// the merge's pass-1 clock scans, and metrics chunks.
//
// parallelFor(jobs, n, fn) runs fn(0..n-1) on the calling thread plus
// min(jobs, n) - 1 threads it starts for the call; each claims the next
// index from one shared counter, and all are joined before it returns.
// With jobs <= 1 (or n <= 1) it is a plain loop on the calling thread,
// so the sequential reference path shares this code exactly.
#pragma once

#include <cstddef>
#include <functional>

namespace ute {

/// Maps a --jobs style argument to a worker count: values <= 0 mean "one
/// per hardware thread" (at least 1).
std::size_t effectiveJobs(int jobs);

/// Runs fn(0..n-1) on up to `jobs` threads and rethrows the first
/// exception any call threw. Remaining indices are skipped (not
/// cancelled mid-call) once a call has thrown. jobs <= 1 (or n <= 1)
/// runs inline on the calling thread, in index order.
void parallelFor(std::size_t jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace ute
