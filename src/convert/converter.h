// The convert utility: raw event trace files -> interval files
// (Section 3.1).
//
// Matching events is the first step: a begin event is matched with its
// end event to create an interval; if other events intervene (thread
// dispatch, nested user markers, nested MPI calls) the interval is
// divided into multiple pieces typed by bebits. The converter maintains,
// per thread, a stack of open states with the Running default state at
// the bottom; a piece of the innermost state is open exactly while the
// thread occupies a processor.
//
// The converter also re-assigns one unique identifier to each distinct
// user-marker string across all tasks (the tracing library hands out
// task-local identifiers without cross-task communication, so the same
// string may carry different ids in different tasks — and different
// strings the same id).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "support/thread_annotations.h"
#include "support/types.h"
#include "trace/reader.h"

namespace ute {

/// Run-wide marker string -> unique identifier assignment, shared by all
/// per-node conversions of one run. Thread-safe: the parallel convert
/// hands one unifier to every per-node worker. Ids are dense from 1 in
/// first-unify order; storage is a single name->id map plus an id->name
/// vector pointing at the map's (stable) keys.
class MarkerUnifier {
 public:
  /// Returns the run-wide id for `name`, assigning the next free id on
  /// first sight. Duplicate strings (the same marker defined in several
  /// tasks, possibly under colliding task-local ids) all map to the one
  /// id of the string.
  std::uint32_t unify(const std::string& name) UTE_EXCLUDES(mu_);

  /// Assigns ids for `names` in order (already-known names keep theirs).
  /// The parallel convert pre-assigns every marker of a run from a cheap
  /// scan pass in input-file order, so worker interleaving cannot change
  /// the assignment and the outputs stay byte-identical to sequential
  /// conversion.
  void preassign(const std::vector<std::string>& names);

  /// The name owning id `i + 1` is at table()[i] (ids are dense from 1).
  std::vector<std::string> table() const UTE_EXCLUDES(mu_);
  std::size_t size() const UTE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::uint32_t> byName_ UTE_GUARDED_BY(mu_);
  /// id - 1 -> key in byName_.
  std::vector<const std::string*> names_ UTE_GUARDED_BY(mu_);
};

struct ConvertOptions {
  std::size_t targetFrameBytes = 32 << 10;
  int framesPerDirectory = 64;
  /// Worker threads for convertRun: one per-node file per worker.
  /// 1 = sequential reference path; <= 0 = one per hardware thread.
  int jobs = 1;
};

struct ConvertResult {
  std::string outputPath;
  std::uint64_t rawEvents = 0;
  std::uint64_t intervalRecords = 0;
};

class EventToIntervalConverter {
 public:
  EventToIntervalConverter(MarkerUnifier& markers, ConvertOptions options = {});

  /// Converts one raw per-node trace file into one interval file.
  ConvertResult convertFile(const std::string& rawPath,
                            const std::string& outPath);

 private:
  MarkerUnifier& markers_;
  ConvertOptions options_;
};

/// Converts every raw file of a run ("<prefix>.<node>.utr"), producing
/// "<outPrefix>.<node>.uti" files with a shared marker unification.
/// With options.jobs != 1 the per-node conversions run on up to
/// options.jobs threads after a marker pre-scan; the outputs are
/// byte-identical to jobs == 1.
std::vector<ConvertResult> convertRun(const std::vector<std::string>& rawPaths,
                                      const std::string& outPrefix,
                                      ConvertOptions options = {});

/// The unified marker names of one raw file in definition-encounter
/// order (the parallel convert's scan pass; repeats are preserved so the
/// replay order matches sequential conversion exactly).
std::vector<std::string> scanMarkerNames(const std::string& rawPath,
                                         NodeId* node = nullptr);

/// Output path convention for per-node interval files.
std::string intervalFilePath(const std::string& prefix, NodeId node);

}  // namespace ute
