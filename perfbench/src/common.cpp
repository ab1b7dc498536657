#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <new>
#include <thread>

#include <sys/resource.h>
#include <sys/vfs.h>

#include "support/file_io.h"

// Global allocation counter (see common.h). operator new stays
// malloc-backed; the counter is touched only while counting is on.
void* operator new(std::size_t n) {
  if (uteperf::gCountAllocs.load(std::memory_order_relaxed)) {
    uteperf::gAllocCalls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace uteperf {

std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocCalls{0};

std::uint64_t allocMark() {
  gCountAllocs.store(true);
  return gAllocCalls.load();
}

void sleepUntilNs(std::int64_t ns) {
  const std::int64_t now = nowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tailPercentileFor(std::size_t samples) {
  for (const double p : {99.0, 90.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

std::vector<std::size_t> fastestEighth(const std::vector<double>& cost) {
  std::vector<std::size_t> order(cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cost[a] < cost[b];
  });
  order.resize((order.size() + 7) / 8);
  std::sort(order.begin(), order.end());
  return order;
}

ProcIo readProcIo() {
  ProcIo io;
  std::ifstream file("/proc/self/io");
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  io.selfBytes = text.size();
  std::istringstream in(text);
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    else if (key == "wchar:") io.wchar = value;
    else if (key == "syscr:") io.syscr = value;
    else if (key == "syscw:") io.syscw = value;
  }
  return io;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string filesystemKind(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::uint32_t Tracer::add(const std::string& name, std::uint32_t parent,
                          std::int64_t startNs, std::int64_t endNs,
                          std::uint64_t count) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t id = nextId_++;
  spans_.push_back({name, id, parent, startNs, endNs, count});
  return id;
}

std::uint32_t Tracer::reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return nextId_++;
}

void Tracer::addReserved(std::uint32_t id, const std::string& name,
                         std::uint32_t parent, std::int64_t startNs,
                         std::int64_t endNs) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, startNs, endNs, 1});
}

double Tracer::totalNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) total += static_cast<double>(s.endNs - s.startNs);
  }
  return total;
}

std::uint64_t Tracer::totalCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) total += s.count;
  }
  return total;
}

void Tracer::writeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%u,\"parent\":%u,\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"count\":%llu,\"name\":\"",
                  s.id, s.parent, static_cast<long long>(s.startNs),
                  static_cast<long long>(s.endNs),
                  static_cast<unsigned long long>(s.count));
    out += line;
    out += s.name;
    out += i + 1 < spans_.size() ? "\"},\n" : "\"}\n";
  }
  out += "]\n";
  ute::writeWholeFile(path, out);
}

Metric setupMetric(const std::vector<double>& setupS, const std::string& what) {
  char note[160];
  std::snprintf(note, sizeof note, "%s; median of %zu, fastest %.4f, slowest %.4f",
                what.c_str(), setupS.size(), percentile(setupS, 0),
                percentile(setupS, 100));
  return {"setup_s", median(setupS), "s", setupS.size(), note};
}

void Result::mismatch(const std::string& what, std::uint64_t failedOps) {
  ++mismatches;
  failed += failedOps;
  if (notes.size() < 20) notes.push_back("MISMATCH: " + what);
}

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"process.peak_rss_mb", "MB"},
      {"sim.ns_per_event", "ns/event"},
      {"convert.ns_per_event", "ns/event"},
      {"convert.allocs_per_event", "count"},
      {"convert.bytes_per_record", "B/record"},
      {"convert.speedup_jN", "x"},
      {"merge.speedup_jN", "x"},
      {"merge.self_ns_per_record", "ns/record"},
      {"merge.allocs_per_record", "count"},
      {"slog.encode_ns_per_record", "ns/record"},
      {"slog.frames", "count"},
      {"support.io_syscalls_per_record", "count"},
      {"support.io_bytes_per_record", "B/record"},
      {"analysis.ns_per_record", "ns/record"},
      {"stats.ns_per_record", "ns/record"},
      {"viz.render_ms", "ms"},
      {"viz.render_p99_ms", "ms"},
      {"batch.records_per_s", "1/s"},
      {"batch.j1_records_per_s", "1/s"},
      {"service.window_us_p50", "us"},
      {"service.window_us_p99", "us"},
      {"service.summary_us_p50", "us"},
      {"slog.frame_decode_us_p50", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_request", "count"},
      {"reactor.syscalls_per_request", "count"},
      {"reactor.eventfd_wakeups_per_request", "count"},
      {"reactor.bytes_out_per_request", "B"},
      {"pool.rejected_ratio", "ratio"},
      {"client.decode_ns_per_byte", "ns/B"},
      {"process.allocs_per_request", "count"},
      {"query.generator_late_ms_p99", "ms"},
      {"query.max_qps", "1/s"},
      {"query.p99_ms", "ms"},
      {"query.p50_ms", "ms"},
      {"query.capacity_per_s", "1/s"},
      {"ingest.ack_us_p50", "us"},
      {"ingest.ack_us_p99", "us"},
      {"ingest.wire_bytes_per_record", "B/record"},
      {"ingest.syscalls_per_message", "count"},
      {"stream.seal_gap_ms_p50", "ms"},
      {"stream.seal_gap_ms_max", "ms"},
      {"tail.poll_us_p50", "us"},
      {"tail.useful_poll_ratio", "ratio"},
      {"live.drain_ms", "ms"},
      {"live.tail_lag_p99_ms", "ms"},
      {"live.tail_lag_p50_ms", "ms"},
      {"live.records_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool sameFile(const std::string& a, const std::string& b) {
  return ute::readWholeFile(a) == ute::readWholeFile(b);
}

}  // namespace uteperf
