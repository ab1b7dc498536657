#include "server/trace_service.h"

#include <algorithm>

#include "support/errors.h"

namespace ute {

namespace {

std::uint64_t frameKey(std::uint32_t traceId, std::size_t frameIdx) {
  return (std::uint64_t{traceId} << 32) | static_cast<std::uint32_t>(frameIdx);
}

}  // namespace

TraceService::TraceService(const std::vector<std::string>& slogPaths,
                           const ServiceOptions& options)
    : options_(options),
      cache_(options.cacheBytes, options.cacheShards),
      pool_(options.workers, options.queueDepth) {
  if (slogPaths.empty() && !options.allowNoTraces) {
    throw UsageError("TraceService needs at least one SLOG file");
  }
  traces_.reserve(slogPaths.size());
  for (const std::string& path : slogPaths) {
    auto trace = std::make_unique<Trace>();
    trace->reader = std::make_unique<SlogReader>(path);
    traces_.push_back(std::move(trace));
  }
}

TraceService::~TraceService() { pool_.shutdown(); }

std::uint32_t TraceService::attachLiveFeed(const std::string& name,
                                           LiveFeed* feed) {
  if (feed == nullptr) throw UsageError("attachLiveFeed: null feed");
  auto trace = std::make_unique<Trace>();
  trace->feed = feed;
  trace->name = name;
  traces_.push_back(std::move(trace));
  return static_cast<std::uint32_t>(traces_.size() - 1);
}

std::uint32_t TraceService::traceCount() const {
  return static_cast<std::uint32_t>(traces_.size());
}

bool TraceService::isLive(std::uint32_t traceId) const {
  if (traceId >= traces_.size()) {
    throw UsageError("unknown trace id " + std::to_string(traceId));
  }
  return traces_[traceId]->feed != nullptr;
}

LiveFeed& TraceService::liveFeed(std::uint32_t traceId) const {
  if (!isLive(traceId)) {
    throw UsageError("trace " + std::to_string(traceId) + " is not live");
  }
  return *traces_[traceId]->feed;
}

const std::string& TraceService::traceName(std::uint32_t traceId) const {
  if (isLive(traceId)) return traces_[traceId]->name;
  return traces_[traceId]->reader->path();
}

const SlogReader& TraceService::trace(std::uint32_t traceId) const {
  if (traceId >= traces_.size()) {
    throw UsageError("unknown trace id " + std::to_string(traceId));
  }
  if (traces_[traceId]->feed != nullptr) {
    throw UsageError("live trace " + std::to_string(traceId) +
                     ": this query needs the finished file; follow the "
                     "run with TailFrames/TailMetrics instead");
  }
  return *traces_[traceId]->reader;
}

TraceService::Trace& TraceService::traceSlot(std::uint32_t traceId) {
  if (traceId >= traces_.size()) {
    throw UsageError("unknown trace id " + std::to_string(traceId));
  }
  if (traces_[traceId]->feed != nullptr) {
    throw UsageError("live trace " + std::to_string(traceId) +
                     ": this query needs the finished file; follow the "
                     "run with TailFrames/TailMetrics instead");
  }
  return *traces_[traceId];
}

FrameCache::FramePtr TraceService::frame(std::uint32_t traceId,
                                         std::size_t frameIdx) {
  Trace& slot = traceSlot(traceId);
  const SlogReader& reader = *slot.reader;
  if (frameIdx >= reader.frameIndex().size()) {
    throw UsageError("SLOG frame index out of range");
  }
  return cache_.getOrLoad(frameKey(traceId, frameIdx),
                          [&] { return reader.readFrame(frameIdx); });
}

std::optional<std::pair<std::size_t, std::size_t>> TraceService::frameSpan(
    const SlogReader& reader, Tick t0, Tick t1) const {
  // Half-open selection, matching buildSlogWindowView: a frame that
  // merely touches a window edge contributes nothing. The reader admits
  // only indexes whose times never decrease, so the frames ending after
  // t0 are a suffix, those starting before t1 a prefix, and the span is
  // where they meet.
  const auto& index = reader.frameIndex();
  const auto first = std::partition_point(
      index.begin(), index.end(),
      [t0](const SlogFrameIndexEntry& e) { return e.timeEnd <= t0; });
  const auto end = std::partition_point(
      first, index.end(),
      [t1](const SlogFrameIndexEntry& e) { return e.timeStart < t1; });
  if (first == end) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(first - index.begin()),
                        static_cast<std::size_t>(end - index.begin()) - 1);
}

void TraceService::window(std::uint32_t traceId, const WindowQuery& query,
                          WindowResult& out) {
  const SlogReader& reader = trace(traceId);
  if (query.t1 <= query.t0) {
    throw UsageError("window end must follow window start");
  }
  out.intervals.clear();
  out.arrows.clear();
  out.t0 = std::max(query.t0, reader.totalStart());
  out.t1 = std::min(query.t1, reader.totalEnd());
  if (out.t1 <= out.t0) throw UsageError("window is outside the run");
  const auto span = frameSpan(reader, out.t0, out.t1);
  if (!span) throw UsageError("window is outside the run");

  const bool allStates = query.states.empty();
  const auto stateWanted = [&](std::uint32_t id) {
    return allStates || std::find(query.states.begin(), query.states.end(),
                                  id) != query.states.end();
  };

  for (std::size_t f = span->first; f <= span->second; ++f) {
    const FrameCache::FramePtr data = frame(traceId, f);
    for (const SlogInterval& r : data->intervals) {
      if (r.pseudo && f != span->first) continue;  // merged restatement
      if (!r.pseudo && (r.end() < out.t0 || r.start > out.t1)) continue;
      if (query.node && r.node != *query.node) continue;
      if (query.thread && r.thread != *query.thread) continue;
      if (!stateWanted(r.stateId)) continue;
      out.intervals.push_back(r);
    }
    for (const SlogArrow& a : data->arrows) {
      if (a.recvTime < out.t0 || a.sendTime > out.t1) continue;
      if (query.node && a.srcNode != *query.node && a.dstNode != *query.node)
        continue;
      if (query.thread && a.srcThread != *query.thread &&
          a.dstThread != *query.thread)
        continue;
      out.arrows.push_back(a);
    }
  }
}

WindowResult TraceService::window(std::uint32_t traceId,
                                  const WindowQuery& query) {
  WindowResult result;
  window(traceId, query, result);
  return result;
}

void TraceService::summary(std::uint32_t traceId, Tick t0, Tick t1,
                           std::vector<SummaryEntry>& out) {
  const SlogReader& reader = trace(traceId);
  if (t1 <= t0) throw UsageError("window end must follow window start");
  t0 = std::max(t0, reader.totalStart());
  t1 = std::min(t1, reader.totalEnd());
  if (t1 <= t0) throw UsageError("window is outside the run");
  // `out` is the accumulator: kept sorted by stateId, one entry per
  // state with time in the window, each summed in record order.
  out.clear();
  const auto span = frameSpan(reader, t0, t1);
  if (!span) return;
  for (std::size_t f = span->first; f <= span->second; ++f) {
    const FrameCache::FramePtr data = frame(traceId, f);
    for (const SlogInterval& r : data->intervals) {
      if (r.pseudo) continue;
      const Tick lo = std::max(r.start, t0);
      const Tick hi = std::min(r.end(), t1);
      if (hi <= lo) continue;
      auto it = std::lower_bound(
          out.begin(), out.end(), r.stateId,
          [](const SummaryEntry& e, std::uint32_t id) {
            return e.stateId < id;
          });
      if (it == out.end() || it->stateId != r.stateId) {
        it = out.insert(it, SummaryEntry{r.stateId, 0.0});
      }
      it->ns += static_cast<double>(hi - lo);
    }
  }
}

std::vector<SummaryEntry> TraceService::summary(std::uint32_t traceId,
                                                Tick t0, Tick t1) {
  std::vector<SummaryEntry> result;
  summary(traceId, t0, t1, result);
  return result;
}

TraceService::MetricsBlob TraceService::metrics(std::uint32_t traceId,
                                                std::uint32_t bins) {
  if (isLive(traceId)) {
    // The live blob's shape is fixed by the feed's bin width; a bin
    // count cannot be honored, so any explicit request is refused and
    // the default (0) serves whatever is sealed so far.
    if (bins != 0) {
      throw UsageError("live trace " + std::to_string(traceId) +
                       ": bin count is fixed while the run is live");
    }
    LiveFeed::TailMetrics tail = liveFeed(traceId).metrics();
    if (tail.blob.empty()) {
      throw UsageError("live trace " + std::to_string(traceId) +
                       ": no metrics sealed yet");
    }
    return std::make_shared<const std::vector<std::uint8_t>>(
        std::move(tail.blob));
  }
  Trace& slot = traceSlot(traceId);
  if (bins == 0) bins = kDefaultMetricsBins;
  if (bins > kMaxMetricsBins) {
    throw UsageError("metrics bins capped at " +
                     std::to_string(kMaxMetricsBins));
  }
  MutexLock lock(slot.metricsMu);
  const auto it = slot.metricsByBins.find(bins);
  if (it != slot.metricsByBins.end()) return it->second;

  MetricsOptions options;
  options.bins = bins;
  const MetricsStore store = computeMetrics(
      *slot.reader, options,
      [&](std::size_t frameIdx) { return frame(traceId, frameIdx); });
  auto blob =
      std::make_shared<const std::vector<std::uint8_t>>(store.encode());
  slot.metricsByBins.emplace(bins, blob);
  return blob;
}

LiveFeed::TailFrames TraceService::tailFrames(std::uint32_t traceId,
                                              std::uint64_t cursor,
                                              std::uint32_t maxFrames) {
  if (isLive(traceId)) return liveFeed(traceId).framesFrom(cursor, maxFrames);
  const SlogReader& reader = trace(traceId);
  const auto& index = reader.frameIndex();
  LiveFeed::TailFrames out;
  out.finished = true;
  out.watermark = reader.totalEnd();
  const std::uint64_t total = index.size();
  const std::uint64_t from = std::min<std::uint64_t>(cursor, total);
  const std::uint64_t to =
      maxFrames == 0 ? total : std::min<std::uint64_t>(total, from + maxFrames);
  out.frames.reserve(static_cast<std::size_t>(to - from));
  for (std::uint64_t i = from; i < to; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out.frames.emplace_back(index[idx], frame(traceId, idx));
  }
  out.nextCursor = to;
  return out;
}

LiveFeed::TailMetrics TraceService::tailMetrics(std::uint32_t traceId) {
  if (isLive(traceId)) return liveFeed(traceId).metrics();
  LiveFeed::TailMetrics out;
  out.finished = true;
  const SlogReader& reader = trace(traceId);
  out.watermark = reader.totalEnd();
  const MetricsBlob blob = metrics(traceId, 0);
  out.blob = *blob;
  out.sealedBins = MetricsStore::decode(out.blob).bins();
  return out;
}

FrameAtResult TraceService::frameAt(std::uint32_t traceId, Tick t) {
  const SlogReader& reader = trace(traceId);
  const auto idx = reader.frameIndexFor(t);
  if (!idx) {
    throw UsageError("no frame contains t=" + std::to_string(t));
  }
  FrameAtResult result;
  result.frameIdx = *idx;
  result.entry = reader.frameIndex()[*idx];
  result.frame = frame(traceId, *idx);
  return result;
}

}  // namespace ute
