#include "stats/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "interval/standard_profile.h"
#include "stats/parser.h"
#include "support/errors.h"
#include "support/text.h"

namespace ute {

namespace {

/// Expression values: numbers or strings.
struct Value {
  bool isStr = false;
  double num = 0.0;
  std::string str;

  static Value of(double v) { return {false, v, {}}; }
  static Value of(std::string s) { return {true, 0.0, std::move(s)}; }

  bool truthy() const { return isStr ? !str.empty() : num != 0.0; }

  bool operator<(const Value& o) const {
    if (isStr != o.isStr) return !isStr;  // numbers sort before strings
    return isStr ? str < o.str : num < o.num;
  }
  bool operator==(const Value& o) const {
    return isStr == o.isStr && (isStr ? str == o.str : num == o.num);
  }

  std::string render() const {
    if (isStr) return str;
    if (std::isfinite(num) && num == std::floor(num) &&
        std::abs(num) < 1e15) {
      return std::to_string(static_cast<long long>(num));
    }
    return fixed(num, 6);
  }
};

/// Per-run evaluation context shared by all records (possibly spanning
/// several interval files).
struct RunContext {
  const Profile* profile = nullptr;
  std::uint64_t mask = 0;
  Tick minStart = 0;
  Tick maxEnd = 0;
  /// Marker id -> string, merged over all input files.
  std::map<std::uint32_t, std::string> markers;
  /// (node, ltid) -> MPI task, from the thread tables.
  std::map<std::pair<NodeId, LogicalThreadId>, TaskId> taskOf;
  /// Cache of field accessors per (interval type, field name).
  std::map<std::pair<IntervalType, std::string>,
           std::unique_ptr<FieldAccessor>>
      accessors;

  const FieldAccessor& accessor(IntervalType type, const std::string& name) {
    const auto key = std::make_pair(type, name);
    auto it = accessors.find(key);
    if (it == accessors.end()) {
      it = accessors
               .emplace(key, std::make_unique<FieldAccessor>(*profile, type,
                                                             mask, name))
               .first;
    }
    return *it->second;
  }
};

std::optional<Value> evaluate(const Expr& e, RunContext& ctx,
                              const RecordView& rec);

std::optional<Value> evalField(const std::string& name, RunContext& ctx,
                               const RecordView& rec) {
  const double kNsToSec = 1e-9;
  if (name == "start") {
    return Value::of(static_cast<double>(rec.start - ctx.minStart) * kNsToSec);
  }
  if (name == "dura" || name == "duration") {
    return Value::of(static_cast<double>(rec.dura) * kNsToSec);
  }
  if (name == "end") {
    return Value::of(static_cast<double>(rec.end() - ctx.minStart) * kNsToSec);
  }
  if (name == "node") return Value::of(rec.node);
  if (name == "cpu") return Value::of(rec.cpu);
  if (name == "thread") return Value::of(rec.thread);
  if (name == "task") {
    const auto it = ctx.taskOf.find({rec.node, rec.thread});
    if (it == ctx.taskOf.end()) return std::nullopt;
    return Value::of(it->second);
  }
  if (name == "type") return Value::of(rec.intervalType);
  if (name == "eventtype") {
    return Value::of(static_cast<double>(rec.eventType()));
  }
  if (name == "bebits") {
    return Value::of(static_cast<double>(rec.bebits()));
  }
  if (name == "firstpiece") return Value::of(isFirstPiece(rec.bebits()));
  if (name == "lastpiece") return Value::of(isLastPiece(rec.bebits()));
  if (name == "state") {
    if (rec.eventType() == EventType::kUserMarker) {
      const auto markerId =
          ctx.accessor(rec.intervalType, kFieldMarkerId).get(rec);
      if (markerId) {
        const auto it =
            ctx.markers.find(static_cast<std::uint32_t>(*markerId));
        if (it != ctx.markers.end()) return Value::of(it->second);
      }
    }
    const RecordSpec* spec = ctx.profile->find(rec.intervalType);
    if (spec == nullptr) return std::nullopt;
    return Value::of(ctx.profile->recordName(*spec));
  }
  // Fall back to a profile field of this record type.
  const auto v = ctx.accessor(rec.intervalType, name).get(rec);
  if (!v) return std::nullopt;
  return Value::of(static_cast<double>(*v));
}

std::optional<Value> evalCall(const Expr& e, RunContext& ctx,
                              const RecordView& rec) {
  const auto arg = [&](std::size_t i) { return evaluate(*e.args[i], ctx, rec); };
  const auto wantArgs = [&](std::size_t n) {
    if (e.args.size() != n) {
      throw ParseError("function " + e.text + " expects " +
                       std::to_string(n) + " argument(s)");
    }
  };
  if (e.text == "timebin") {
    wantArgs(1);
    const auto n = arg(0);
    if (!n || n->isStr || n->num < 1) return std::nullopt;
    const auto bins = static_cast<double>(n->num);
    const double range = static_cast<double>(ctx.maxEnd - ctx.minStart);
    if (range <= 0) return Value::of(0.0);
    const double rel = static_cast<double>(rec.start - ctx.minStart);
    return Value::of(std::min(bins - 1, std::floor(rel * bins / range)));
  }
  if (e.text == "floor" || e.text == "ceil" || e.text == "abs") {
    wantArgs(1);
    const auto v = arg(0);
    if (!v || v->isStr) return std::nullopt;
    if (e.text == "floor") return Value::of(std::floor(v->num));
    if (e.text == "ceil") return Value::of(std::ceil(v->num));
    return Value::of(std::abs(v->num));
  }
  if (e.text == "min" || e.text == "max") {
    wantArgs(2);
    const auto a = arg(0);
    const auto b = arg(1);
    if (!a || !b || a->isStr || b->isStr) return std::nullopt;
    return Value::of(e.text == "min" ? std::min(a->num, b->num)
                                     : std::max(a->num, b->num));
  }
  throw ParseError("unknown function '" + e.text + "'");
}

std::optional<Value> evaluate(const Expr& e, RunContext& ctx,
                              const RecordView& rec) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return Value::of(e.number);
    case Expr::Kind::kString:
      return Value::of(e.text);
    case Expr::Kind::kField:
      return evalField(e.text, ctx, rec);
    case Expr::Kind::kCall:
      return evalCall(e, ctx, rec);
    case Expr::Kind::kUnary: {
      const auto v = evaluate(*e.args[0], ctx, rec);
      if (!v) return std::nullopt;
      if (e.unOp == UnOp::kNot) return Value::of(!v->truthy());
      if (v->isStr) return std::nullopt;
      return Value::of(-v->num);
    }
    case Expr::Kind::kBinary: {
      // Short-circuit logic first.
      if (e.binOp == BinOp::kAnd || e.binOp == BinOp::kOr) {
        const auto lhs = evaluate(*e.args[0], ctx, rec);
        if (!lhs) return std::nullopt;
        if (e.binOp == BinOp::kAnd && !lhs->truthy()) return Value::of(0.0);
        if (e.binOp == BinOp::kOr && lhs->truthy()) return Value::of(1.0);
        const auto rhs = evaluate(*e.args[1], ctx, rec);
        if (!rhs) return std::nullopt;
        return Value::of(rhs->truthy());
      }
      const auto lhs = evaluate(*e.args[0], ctx, rec);
      const auto rhs = evaluate(*e.args[1], ctx, rec);
      if (!lhs || !rhs) return std::nullopt;
      switch (e.binOp) {
        case BinOp::kEq: return Value::of(*lhs == *rhs);
        case BinOp::kNe: return Value::of(!(*lhs == *rhs));
        case BinOp::kLt: return Value::of(*lhs < *rhs);
        case BinOp::kGt: return Value::of(*rhs < *lhs);
        case BinOp::kLe: return Value::of(!(*rhs < *lhs));
        case BinOp::kGe: return Value::of(!(*lhs < *rhs));
        default:
          break;
      }
      if (lhs->isStr || rhs->isStr) return std::nullopt;
      switch (e.binOp) {
        case BinOp::kAdd: return Value::of(lhs->num + rhs->num);
        case BinOp::kSub: return Value::of(lhs->num - rhs->num);
        case BinOp::kMul: return Value::of(lhs->num * rhs->num);
        case BinOp::kDiv:
          return rhs->num == 0 ? std::nullopt
                               : std::optional(Value::of(lhs->num / rhs->num));
        case BinOp::kMod:
          return rhs->num == 0
                     ? std::nullopt
                     : std::optional(Value::of(std::fmod(lhs->num, rhs->num)));
        default:
          return std::nullopt;
      }
    }
  }
  return std::nullopt;
}

/// Streaming aggregate of one y-expression within one group.
struct Aggregate {
  std::uint64_t count = 0;
  double sum = 0.0;
  double sumSq = 0.0;
  double minV = std::numeric_limits<double>::infinity();
  double maxV = -std::numeric_limits<double>::infinity();

  void add(double v) {
    ++count;
    sum += v;
    sumSq += v * v;
    minV = std::min(minV, v);
    maxV = std::max(maxV, v);
  }

  double finalize(AggKind kind) const {
    switch (kind) {
      case AggKind::kAvg: return count == 0 ? 0.0 : sum / count;
      case AggKind::kSum: return sum;
      case AggKind::kMin: return count == 0 ? 0.0 : minV;
      case AggKind::kMax: return count == 0 ? 0.0 : maxV;
      case AggKind::kCount: return static_cast<double>(count);
      case AggKind::kStddev: {
        if (count == 0) return 0.0;
        const double n = static_cast<double>(count);
        const double variance = std::max(0.0, sumSq / n - (sum / n) * (sum / n));
        return std::sqrt(variance);
      }
    }
    return 0.0;
  }
};

}  // namespace

std::string StatsTable::tsv() const {
  std::string out;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i != 0) out += '\t';
    out += headers[i];
  }
  out += '\n';
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += '\t';
      out += row[i];
    }
    out += '\n';
  }
  return out;
}

const std::string& StatsTable::cell(std::size_t row,
                                    const std::string& header) const {
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (headers[i] == header) return rows.at(row).at(i);
  }
  throw UsageError("no column '" + header + "' in table " + name);
}

std::vector<StatsTable> StatsEngine::run(const std::vector<TableSpec>& specs,
                                         IntervalFileReader& file) {
  return run(specs, std::vector<IntervalFileReader*>{&file});
}

std::vector<StatsTable> StatsEngine::run(
    const std::vector<TableSpec>& specs,
    std::vector<IntervalFileReader*> files) {
  if (files.empty()) throw UsageError("stats need at least one input file");
  RunContext ctx;
  ctx.profile = &profile_;
  ctx.mask = files.front()->header().fieldSelectionMask;
  ctx.minStart = ~Tick{0};
  ctx.maxEnd = 0;
  for (IntervalFileReader* file : files) {
    if (file->header().fieldSelectionMask != ctx.mask) {
      throw UsageError("stats inputs have differing field selection masks");
    }
    ctx.minStart = std::min(ctx.minStart, file->header().minStart);
    ctx.maxEnd = std::max(ctx.maxEnd, file->header().maxEnd);
    for (const ThreadEntry& t : file->threads()) {
      ctx.taskOf[{t.node, t.ltid}] = t.task;
    }
    for (const auto& [id, name] : file->markers()) {
      ctx.markers.emplace(id, name);
    }
  }

  // Group accumulators per table: x-value tuple -> per-y aggregates.
  std::vector<std::map<std::vector<Value>, std::vector<Aggregate>>> groups(
      specs.size());

  // One key buffer for every record; it is copied only into a new group.
  std::vector<Value> groupKey;
  for (IntervalFileReader* file : files) {
  auto stream = file->records();
  RecordView rec;
  while (stream.next(rec)) {
    for (std::size_t t = 0; t < specs.size(); ++t) {
      const TableSpec& spec = specs[t];
      if (spec.condition) {
        const auto cond = evaluate(*spec.condition, ctx, rec);
        if (!cond || !cond->truthy()) continue;
      }
      groupKey.clear();
      bool ok = true;
      for (const XSpec& x : spec.xs) {
        auto v = evaluate(*x.expr, ctx, rec);
        if (!v) {
          ok = false;
          break;
        }
        groupKey.push_back(std::move(*v));
      }
      if (!ok) continue;

      auto it = groups[t].find(groupKey);
      if (it == groups[t].end()) {
        it = groups[t].emplace(groupKey, std::vector<Aggregate>(spec.ys.size()))
                 .first;
      }
      for (std::size_t y = 0; y < spec.ys.size(); ++y) {
        if (spec.ys[y].agg == AggKind::kCount) {
          it->second[y].add(0.0);
          continue;
        }
        const auto v = evaluate(*spec.ys[y].expr, ctx, rec);
        if (v && !v->isStr) it->second[y].add(v->num);
      }
    }
  }
  }

  std::vector<StatsTable> out;
  out.reserve(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const TableSpec& spec = specs[t];
    StatsTable table;
    table.name = spec.name;
    for (const XSpec& x : spec.xs) table.headers.push_back(x.label);
    for (const YSpec& y : spec.ys) table.headers.push_back(y.label);
    for (const auto& [key, aggs] : groups[t]) {
      std::vector<std::string> row;
      row.reserve(key.size() + aggs.size());
      for (const Value& v : key) row.push_back(v.render());
      for (std::size_t y = 0; y < aggs.size(); ++y) {
        row.push_back(Value::of(aggs[y].finalize(spec.ys[y].agg)).render());
      }
      table.rows.push_back(std::move(row));
    }
    out.push_back(std::move(table));
  }
  return out;
}

std::vector<StatsTable> StatsEngine::runProgram(const std::string& program,
                                                IntervalFileReader& file) {
  return run(parseStatsProgram(program), file);
}

std::vector<StatsTable> StatsEngine::runProgram(
    const std::string& program, std::vector<IntervalFileReader*> files) {
  return run(parseStatsProgram(program), std::move(files));
}

std::string predefinedTablesProgram() {
  return R"ute(
# Figure 6: per-node sum of "interesting" (non-Running, non-clock)
# interval durations over 50 equal time bins.
table name=interesting_by_node_bin
  condition=(state != "Running" && eventtype != 33 && eventtype != 6)
  x=("node", node)
  x=("bin", timebin(50))
  y=("sum(duration)", dura, sum)

# Calls per state, counted once per call via the bebits type information.
table name=calls_by_state
  condition=(firstpiece == 1 && eventtype != 33)
  x=("state", state)
  y=("calls", dura, count)

# Time per state across all pieces.
table name=time_by_state
  condition=(eventtype != 33)
  x=("state", state)
  y=("sum(duration)", dura, sum)
  y=("avg(duration)", dura, avg)
  y=("max(duration)", dura, max)

# Message bytes injected per task (Figure 5's total, broken out).
table name=bytes_sent_by_task
  condition=(firstpiece == 1)
  x=("task", task)
  y=("bytes", msgSizeSent, sum)

# MPI time per thread.
table name=mpi_time_by_thread
  condition=(state != "Running" && eventtype != 33 && eventtype != 6)
  x=("node", node)
  x=("thread", thread)
  y=("mpi_seconds", dura, sum)
)ute";
}

}  // namespace ute
