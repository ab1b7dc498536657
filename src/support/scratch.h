// Retention bound for scratch buffers that live across calls.
//
// A long-lived owner (a server worker thread, a SLOG writer) keeps its
// working buffers between calls so that steady-state work allocates
// nothing. One outsized request must not pin its peak memory for the
// rest of the process, though, so after each call an owner releases any
// buffer that grew past kScratchKeepBytes.
#pragma once

#include <cstddef>
#include <vector>

namespace ute {

inline constexpr std::size_t kScratchKeepBytes = std::size_t{1} << 20;

/// Frees `v`'s storage when its capacity exceeds kScratchKeepBytes.
template <typename T>
void releaseIfLarge(std::vector<T>& v) {
  if (v.capacity() * sizeof(T) > kScratchKeepBytes) std::vector<T>().swap(v);
}

}  // namespace ute
