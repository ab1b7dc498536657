// Seeded input generation shared by the workloads: a simulated run cut
// to raw per-node trace files, and the convert -> merge + SLOG chain for
// the workloads that need a hook ute::runPipeline does not offer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "convert/converter.h"
#include "merge/merger.h"
#include "sim/config.h"
#include "slog/slog_writer.h"

namespace uteperf {

struct RawRun {
  std::vector<std::string> rawFiles;
  std::uint64_t rawEvents = 0;
};

/// Runs the simulator (Simulation::run under a span named sim.run) and
/// cuts raw trace files at `prefix`.<node>.utr.
RawRun simulate(ute::SimulationConfig config, const std::string& prefix,
                Tracer& tracer);

/// The convert -> IntervalMerger::mergeTo with the SlogWriter sink part
/// of ute::runPipeline, with the hooks the library call lacks: `batch`
/// times the SLOG sink apart from the merge, `live` notes which merged
/// record seals each SLOG frame.
struct ChainOptions {
  int jobs = 1;
  ute::SlogOptions slog;
  /// Sees every merged record just before the SLOG writer does.
  ute::IntervalMerger::RecordSink onRecord;
  ute::SlogWriter::FrameSealHook onFrameSealed;
  /// Times the SLOG sink (and, while allocation counting is on, counts
  /// its allocations) apart from the merge.
  bool splitSink = false;
};

struct ChainOutputs {
  std::vector<std::string> intervalFiles;
  std::string merged, slog;
  std::uint64_t intervalRecords = 0;
  ute::MergeResult merge;
  /// Steady-clock marks: convert start, convert end (= merge start),
  /// mergeTo returned, SlogWriter::close returned.
  std::int64_t startNs = 0, convertEndNs = 0, mergeEndNs = 0, closeEndNs = 0;
  /// Time and allocations inside SlogWriter::addRecord (splitSink only).
  std::int64_t sinkNs = 0;
  std::uint64_t sinkAllocs = 0;
  /// Allocations of convertRun and of the merge pass including the sink
  /// (0 unless counting is on).
  std::uint64_t convertAllocs = 0, mergeAllocs = 0;
};

ChainOutputs convertAndMerge(const std::vector<std::string>& rawFiles,
                             const std::string& prefix,
                             const ChainOptions& options);

/// FNV-1a over a byte string (content identity of rendered outputs).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ULL);

std::uint64_t fileSize(const std::string& path);

}  // namespace uteperf
