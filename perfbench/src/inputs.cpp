#include "inputs.h"

#include <filesystem>
#include <map>

#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "mpisim/mpi_runtime.h"
#include "sim/simulation.h"

namespace uteperf {

RawRun simulate(ute::SimulationConfig config, const std::string& prefix,
                Tracer& tracer) {
  RawRun out;
  std::filesystem::create_directories(
      std::filesystem::path(prefix).parent_path());
  config.trace.filePrefix = prefix;
  ute::Simulation sim(std::move(config));
  ute::MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  const std::int64_t t0 = nowNs();
  sim.run();
  const std::int64_t t1 = nowNs();
  out.rawFiles = sim.traceFilePaths();
  for (ute::NodeId n = 0;
       static_cast<std::size_t>(n) < sim.config().nodes.size(); ++n) {
    out.rawEvents += sim.sessionStats(n).eventsCut;
  }
  tracer.add("sim.run", 0, t0, t1, out.rawEvents);
  return out;
}

ChainOutputs convertAndMerge(const std::vector<std::string>& rawFiles,
                             const std::string& prefix,
                             const ChainOptions& options) {
  ChainOutputs out;
  std::filesystem::create_directories(
      std::filesystem::path(prefix).parent_path());
  const ute::Profile profile = ute::makeStandardProfile();
  out.startNs = nowNs();
  std::uint64_t a = gAllocCalls.load();
  ute::ConvertOptions convertOptions;
  convertOptions.jobs = options.jobs;
  for (const ute::ConvertResult& c :
       ute::convertRun(rawFiles, prefix, convertOptions)) {
    out.intervalFiles.push_back(c.outputPath);
    out.intervalRecords += c.intervalRecords;
  }
  out.convertAllocs = gAllocCalls.load() - a;
  out.convertEndNs = nowNs();

  a = gAllocCalls.load();
  // The SLOG writer needs the merged thread table and markers; collect
  // them from the inputs the same way ute::runPipeline does.
  std::vector<ute::ThreadEntry> threads;
  std::map<std::uint32_t, std::string> markers;
  for (const std::string& path : out.intervalFiles) {
    ute::IntervalFileReader reader(path);
    threads.insert(threads.end(), reader.threads().begin(),
                   reader.threads().end());
    for (const auto& [id, name] : reader.markers()) markers.emplace(id, name);
  }
  out.merged = prefix + ".merged.uti";
  out.slog = prefix + ".slog";
  ute::MergeOptions mergeOptions;
  mergeOptions.jobs = options.jobs;
  ute::IntervalMerger merger(out.intervalFiles, profile, mergeOptions);
  ute::SlogWriter slog(out.slog, options.slog, profile, threads, markers);
  if (options.onFrameSealed) slog.setFrameSealHook(options.onFrameSealed);
  if (options.splitSink) {
    out.merge = merger.mergeTo(out.merged, [&](const ute::RecordView& r) {
      if (options.onRecord) options.onRecord(r);
      const std::uint64_t a0 = gAllocCalls.load(std::memory_order_relaxed);
      const std::int64_t r0 = nowNs();
      slog.addRecord(r);
      out.sinkNs += nowNs() - r0;
      out.sinkAllocs += gAllocCalls.load(std::memory_order_relaxed) - a0;
    });
  } else {
    out.merge = merger.mergeTo(out.merged, [&](const ute::RecordView& r) {
      if (options.onRecord) options.onRecord(r);
      slog.addRecord(r);
    });
  }
  out.mergeEndNs = nowNs();
  slog.close();
  out.closeEndNs = nowNs();
  out.mergeAllocs = gAllocCalls.load() - a;
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fileSize(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace uteperf
