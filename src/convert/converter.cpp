#include "convert/converter.h"

#include <algorithm>
#include <memory>

#include "convert/streaming_converter.h"
#include "interval/record.h"
#include "support/errors.h"
#include "support/parallel_for.h"

namespace ute {

std::uint32_t MarkerUnifier::unify(const std::string& name) {
  MutexLock lock(mu_);
  const auto it = byName_.find(name);
  if (it != byName_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(names_.size()) + 1;
  const auto inserted = byName_.emplace(name, id).first;
  names_.push_back(&inserted->first);
  return id;
}

void MarkerUnifier::preassign(const std::vector<std::string>& names) {
  for (const std::string& name : names) unify(name);
}

std::vector<std::string> MarkerUnifier::table() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(names_.size());
  for (const std::string* name : names_) out.push_back(*name);
  return out;
}

std::size_t MarkerUnifier::size() const {
  MutexLock lock(mu_);
  return names_.size();
}

std::string intervalFilePath(const std::string& prefix, NodeId node) {
  return prefix + "." + std::to_string(node) + ".uti";
}

EventToIntervalConverter::EventToIntervalConverter(MarkerUnifier& markers,
                                                   ConvertOptions options)
    : markers_(markers), options_(options) {}

// The file conversion is the streaming conversion with a .uti writer
// behind the callbacks: the writer is created when the thread table
// freezes (just before the first record), and marker definitions seen
// earlier are held back until then so the file's marker trailer matches
// what the pre-refactor one-shot converter wrote.
ConvertResult EventToIntervalConverter::convertFile(
    const std::string& rawPath, const std::string& outPath) {
  TraceFileReader reader(rawPath);

  std::unique_ptr<IntervalFileWriter> writer;
  std::vector<std::pair<std::uint32_t, std::string>> pendingMarkers;
  StreamingConverter::Callbacks callbacks;
  callbacks.onThreads = [&](const std::vector<ThreadEntry>& threads) {
    IntervalFileOptions opts;
    opts.profileVersion = kStandardProfileVersion;
    opts.fieldSelectionMask = kNodeFileMask;
    opts.merged = false;
    opts.targetFrameBytes = options_.targetFrameBytes;
    opts.framesPerDirectory = options_.framesPerDirectory;
    writer = std::make_unique<IntervalFileWriter>(outPath, opts, threads);
    for (const auto& [id, name] : pendingMarkers) writer->addMarker(id, name);
    pendingMarkers.clear();
  };
  callbacks.onMarker = [&](std::uint32_t id, const std::string& name) {
    if (writer) {
      writer->addMarker(id, name);
    } else {
      pendingMarkers.emplace_back(id, name);
    }
  };
  callbacks.onRecord = [&](std::span<const std::uint8_t> body) {
    writer->addRecord(body);
  };

  StreamingConverter conversion(markers_, reader.node(), std::move(callbacks));
  while (const auto ev = reader.next()) conversion.feed(*ev);
  conversion.finish();
  writer->close();

  ConvertResult result;
  result.outputPath = outPath;
  result.rawEvents = reader.eventsRead();
  result.intervalRecords = conversion.recordsOut();
  return result;
}

std::vector<std::string> scanMarkerNames(const std::string& rawPath,
                                         NodeId* node) {
  TraceFileReader reader(rawPath);
  if (node != nullptr) *node = reader.node();
  std::vector<std::string> names;
  while (const auto ev = reader.next()) {
    if (ev->type != EventType::kMarkerDef) continue;
    ByteReader r = ev->payloadReader();
    r.u32();  // task-local id — irrelevant to unification
    names.push_back(r.lstring());
  }
  return names;
}

std::vector<ConvertResult> convertRun(const std::vector<std::string>& rawPaths,
                                      const std::string& outPrefix,
                                      ConvertOptions options) {
  MarkerUnifier markers;
  const std::size_t jobs =
      std::min(effectiveJobs(options.jobs), rawPaths.size());
  std::vector<ConvertResult> results(rawPaths.size());

  if (jobs <= 1) {
    EventToIntervalConverter converter(markers, options);
    for (std::size_t i = 0; i < rawPaths.size(); ++i) {
      TraceFileReader probe(rawPaths[i]);  // to learn the node id for naming
      const NodeId node = probe.node();
      results[i] =
          converter.convertFile(rawPaths[i], intervalFilePath(outPrefix, node));
    }
    return results;
  }

  // Parallel fan-out, one worker per per-node file. Marker ids must not
  // depend on worker interleaving (output must be byte-identical to the
  // sequential path), so a scan pass first collects every MarkerDef name
  // in encounter order and pre-assigns ids by replaying those sequences
  // in input-file order — exactly the order sequential conversion would
  // have unified them in.
  std::vector<std::vector<std::string>> perFileNames(rawPaths.size());
  std::vector<NodeId> nodes(rawPaths.size(), -1);
  parallelFor(jobs, rawPaths.size(), [&](std::size_t i) {
    perFileNames[i] = scanMarkerNames(rawPaths[i], &nodes[i]);
  });
  for (const auto& names : perFileNames) markers.preassign(names);

  parallelFor(jobs, rawPaths.size(), [&](std::size_t i) {
    EventToIntervalConverter converter(markers, options);
    results[i] = converter.convertFile(rawPaths[i],
                                       intervalFilePath(outPrefix, nodes[i]));
  });
  return results;
}

}  // namespace ute
