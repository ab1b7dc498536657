#include "support/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace ute {

std::size_t effectiveJobs(int jobs) {
  if (jobs > 0) return static_cast<std::size_t>(jobs);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallelFor(std::size_t jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min(jobs, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  Mutex errorMu;
  std::exception_ptr firstError;  // guarded by errorMu
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(errorMu);
        if (!firstError) firstError = std::current_exception();
        next.store(n);  // nobody claims another index
      }
    }
  };

  std::vector<std::thread> helpers;
  try {
    helpers.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) helpers.emplace_back(drain);
  } catch (...) {
    next.store(n);
    for (std::thread& t : helpers) t.join();
    throw;
  }
  drain();
  for (std::thread& t : helpers) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace ute
