// Shared plumbing for the uteperf benchmark: clocks, sample statistics,
// the in-memory span recorder of the traced run, process counters
// (heap allocations, /proc/self/io, peak RSS) and the result record
// every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace uteperf {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t t0) {
  return static_cast<double>(nowNs() - t0) * 1e-9;
}

/// Sleeps until the steady clock reads `ns` (no-op when already past).
void sleepUntilNs(std::int64_t ns);

// --- sample statistics ------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample set; 0
/// for an empty set.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// beyond it (the reporting rule for a timing's tail; the end-to-end
/// tails are named p99, and the workloads collect enough samples).
double tailPercentileFor(std::size_t samples);

/// The host's speed drops by about 40% for 5-15 s at a time, so each
/// run reports its figures over the fastest eighth of its repetitions:
/// indices (ascending) of the ceil(n/8) entries of `cost` with the
/// lowest cost.
std::vector<std::size_t> fastestEighth(const std::vector<double>& cost);

// --- counters ---------------------------------------------------------------

/// Heap allocations counted by the benchmark's global operator new while
/// counting is switched on (traced runs only, so untraced runs pay no
/// atomic per allocation).
extern std::atomic<bool> gCountAllocs;
extern std::atomic<std::uint64_t> gAllocCalls;

/// Starts counting and returns the current count.
std::uint64_t allocMark();

struct ProcIo {
  std::uint64_t rchar = 0, wchar = 0, syscr = 0, syscw = 0;
  /// Bytes this snapshot itself read; the next snapshot's rchar counts
  /// them, so a delta subtracts them to stay exact.
  std::uint64_t selfBytes = 0;
};
/// The process's cumulative I/O counters (zeros where unavailable).
ProcIo readProcIo();

/// Peak resident set size of the process, MiB.
double peakRssMb();

/// Kind of filesystem holding `path` ("tmpfs", "ext4", "overlay", ...).
std::string filesystemKind(const std::string& path);

// --- spans ------------------------------------------------------------------

/// One recorded span. A span with count > 1 aggregates many short calls
/// (e.g. every SlogWriter::addRecord of one merge) into one row: its
/// duration is the summed time inside those calls.
struct SpanRecord {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t count = 1;
};

/// Keeps spans in memory while the traced run works; writes them once at
/// the end. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Records a finished span and returns its id (0 when disabled).
  std::uint32_t add(const std::string& name, std::uint32_t parent,
                    std::int64_t startNs, std::int64_t endNs,
                    std::uint64_t count = 1);
  /// Reserves an id for a span whose children are recorded before it.
  std::uint32_t reserve();
  void addReserved(std::uint32_t id, const std::string& name,
                   std::uint32_t parent, std::int64_t startNs,
                   std::int64_t endNs);

  /// Summed duration (ns) and summed count of every span named `name`.
  double totalNs(const std::string& name) const;
  std::uint64_t totalCount(const std::string& name) const;

  void writeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::uint32_t nextId_ = 1;
  std::vector<SpanRecord> spans_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  Metric(std::string name_, double value_, std::string unit_,
         std::uint64_t samples_ = 0, std::string note_ = {})
      : name(std::move(name_)),
        value(value_),
        unit(std::move(unit_)),
        samples(samples_),
        note(std::move(note_)) {}

  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0 = a count or a single measurement
  std::string note;           ///< e.g. which percentile a tail is
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string outDir;  ///< this workload's scratch directory
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Byte-identity / content mismatches (each also counts as failed).
  std::uint64_t mismatches = 0;
  std::vector<Metric> endToEnd;  ///< the BENCHMARK.json end_to_end names
  std::vector<Metric> layers;    ///< the per_layer names (traced run)
  std::vector<Metric> report;    ///< wall-clock and extra figures, printed
  std::vector<std::string> notes;

  /// Records a mismatch; `failedOps` operations count as failed.
  void mismatch(const std::string& what, std::uint64_t failedOps = 1);
};

/// The `setup_s` metric of a run's repeated set-ups (seconds each).
Metric setupMetric(const std::vector<double>& setupS, const std::string& what);

/// The per-layer metrics (name, unit) every traced run reports (0 = layer
/// not called by this workload), in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

Result runBatch(const Options& options, Tracer& tracer);
Result runQuery(const Options& options, Tracer& tracer);
Result runLive(const Options& options, Tracer& tracer);

/// Scratch directory of set-up number `round` of a run.
inline std::string setupDir(const Options& options, int round) {
  return options.outDir + "/setup" + std::to_string(round);
}

/// Seed mixing: distinct, reproducible sub-seeds per use.
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt);

/// True when two files hold identical bytes.
bool sameFile(const std::string& a, const std::string& b);

}  // namespace uteperf
