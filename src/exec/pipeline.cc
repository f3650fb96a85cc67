#include "exec/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "db/parallel.h"
#include "obs/metrics.h"
#include "temporal/batch_ops.h"

namespace modb {
namespace exec {

namespace {

// Per-stage tallies accumulated in worker-local plain integers and
// summed after the barrier (addition is commutative, so the totals are
// schedule-independent).
struct StageCounters {
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t predicate_evals = 0;
  std::uint64_t index_candidates = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t units_scanned = 0;
  std::uint64_t pushdown_skips = 0;
};

// ---- window sweep (WindowSweepOp) ----------------------------------------

// Upper bound on (rows × windows) per morsel of a window sweep: caps the
// records one morsel can buffer (24 B each) without changing morsels of
// ordinary grids (256 rows × 1024 windows).
constexpr std::uint64_t kWindowCellsPerMorsel = std::uint64_t(1) << 18;

// A set of instants {t : lo <= t <= hi} with endpoint closedness — the
// working type of the exact window/unit/rect intersection. All three
// operand kinds lower to it: unit intervals (their own closedness),
// windows (closed-open), rect crossing ranges (closed).
struct TRange {
  double lo = 0;
  double hi = 0;
  bool lc = true;
  bool rc = true;
  bool empty = false;
};

TRange EmptyRange() {
  TRange r;
  r.empty = true;
  return r;
}

// Exact set intersection, so it is associative in everything observed
// (emptiness and bounds).
TRange IntersectRanges(const TRange& a, const TRange& b) {
  if (a.empty || b.empty) return EmptyRange();
  TRange r;
  if (a.lo > b.lo) {
    r.lo = a.lo;
    r.lc = a.lc;
  } else if (b.lo > a.lo) {
    r.lo = b.lo;
    r.lc = b.lc;
  } else {
    r.lo = a.lo;
    r.lc = a.lc && b.lc;
  }
  if (a.hi < b.hi) {
    r.hi = a.hi;
    r.rc = a.rc;
  } else if (b.hi < a.hi) {
    r.hi = b.hi;
    r.rc = b.rc;
  } else {
    r.hi = a.hi;
    r.rc = a.rc && b.rc;
  }
  // A degenerate instant survives only if BOTH operands actually
  // contain it — this is what makes a fix exactly on a window edge
  // count in exactly one window.
  if (r.lo > r.hi || (r.lo == r.hi && !(r.lc && r.rc))) return EmptyRange();
  return r;
}

// Time range where c0 + c1*t lies in [lo, hi] (closed): a closed
// interval for c1 != 0, everything or nothing for constant motion.
TRange AxisCrossingRange(double c0, double c1, double lo, double hi) {
  TRange r;
  if (c1 == 0) {
    if (c0 < lo || c0 > hi) return EmptyRange();
    r.lo = -std::numeric_limits<double>::infinity();
    r.hi = std::numeric_limits<double>::infinity();
    return r;
  }
  double a = (lo - c0) / c1;
  double b = (hi - c0) / c1;
  if (a > b) std::swap(a, b);
  r.lo = a;
  r.hi = b;
  return r;
}

// A row's running aggregate in one window, summed in unit order.
struct WindowSlot {
  double distance = 0;
  double covered = 0;
  bool qualifies = false;
};

// One qualifying (row, window) pair, buffered per morsel for the fold.
struct WindowRecord {
  std::uint64_t window = 0;
  double distance = 0;
  double covered = 0;
};

// Worker-private buffers reused across the morsels a worker claims; a
// warm worker allocates nothing per morsel.
struct WorkerState {
  std::vector<std::size_t> rows;  // surviving source row ids
  std::vector<Tuple> mat;         // materialized tuples (spilled scan)
  ProbeScratch probe;
  std::vector<WindowSlot> slots;       // one row's windows, from its base
  std::vector<WindowRecord> records;   // this morsel's window records
  BatchScratch batch;                  // the batch probe's resolve pass
  std::vector<StageCounters> stages;
  std::uint64_t morsels = 0;
  std::uint64_t morsels_stolen = 0;
};

class OptionalTimer {
 public:
  explicit OptionalTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  std::uint64_t ElapsedNs() const {
    if (!enabled_) return 0;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    return ns > 0 ? std::uint64_t(ns) : 0;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

// First-error capture with deterministic tie-break: the error of the
// smallest morsel sequence wins, so a failing plan reports the same
// Status regardless of worker schedule.
class FirstError {
 public:
  void Record(std::size_t seq, Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!has_ || seq < seq_) {
      has_ = true;
      seq_ = seq;
      status_ = std::move(status);
    }
    failed_.store(true, std::memory_order_release);
  }
  bool Failed() const { return failed_.load(std::memory_order_acquire); }
  Status Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  bool has_ = false;
  std::size_t seq_ = 0;
  Status status_ = Status::OK();
  std::atomic<bool> failed_{false};
};

// Stage ids within a pipeline's counter arrays: 0 = scan, 1..F =
// filters, F+1 = terminal (project / join probe / window sweep / batch
// probe / implicit copy sink).
std::size_t NumStages(const Pipeline& pipe) {
  return pipe.filters.size() + 2;
}

// The output tuple of a surviving pair: outer attributes, then inner.
Tuple JoinTuples(const Tuple& outer, const Tuple& inner) {
  Tuple joined;
  joined.reserve(outer.size() + inner.size());
  joined.insert(joined.end(), outer.begin(), outer.end());
  joined.insert(joined.end(), inner.begin(), inner.end());
  return joined;
}

// Joined tuples for one surviving outer row of the index-join probe,
// appended in ascending candidate order — the same body (and the same
// stats semantics) for every execution policy, which is what keeps
// pipelined output byte-identical to the materializing operator's.
Status ProbeIndexJoinRow(const Tuple& outer, std::size_t outer_row,
                         const JoinProbeOp& op, const IndexLayersView& view,
                         std::vector<Tuple>* out, StageCounters* s,
                         ProbeScratch* scratch) {
  const Relation& b = *op.inner;
  const auto& mp = std::get<MovingPoint>(outer[std::size_t(op.attr_outer)]);
  MODB_RETURN_IF_ERROR(
      CollectJoinCandidates(mp, outer_row, op, view, scratch));
  s->units_scanned += scratch->units_scanned;
  s->index_candidates += scratch->candidates.size();
  for (int64_t j : scratch->candidates) {
    const Tuple& inner = b.tuple(std::size_t(j));
    ++s->predicate_evals;
    if (!op.pred.fn(outer, outer_row, inner, std::size_t(j))) continue;
    ++s->index_hits;
    out->push_back(JoinTuples(outer, inner));
  }
  return Status::OK();
}

void ProbeNestedLoopRow(const Tuple& outer, std::size_t outer_row,
                        const JoinProbeOp& op, std::vector<Tuple>* out,
                        StageCounters* s) {
  const Relation& b = *op.inner;
  for (std::size_t j = op.distinct_pairs ? outer_row + 1 : 0;
       j < b.NumTuples(); ++j) {
    ++s->predicate_evals;
    if (!op.pred.fn(outer, outer_row, b.tuple(j), j)) continue;
    out->push_back(JoinTuples(outer, b.tuple(j)));
  }
}

// ---- index-join candidate runs (CollectJoinCandidates) ------------------

// A run merges at most this many consecutive probe cubes...
constexpr std::size_t kMaxRunUnits = 64;
// ...and only while its bounding cube stays within this factor of its
// members' summed volumes, so a traversal over the run visits little
// the members' own traversals would not.
constexpr double kMaxRunInflation = 2.0;

// `c` grown by `expand` in x and y: a probe cube of the join distance.
Cube Grown(Cube c, double expand) {
  c.rect.min_x -= expand;
  c.rect.min_y -= expand;
  c.rect.max_x += expand;
  c.rect.max_y += expand;
  return c;
}

// True when `entry` intersects the grown bounding cube of some unit of
// `block`. Unit intervals are disjoint and time-ordered, so the units
// overlapping the entry in time are one contiguous stretch, found by
// binary search on the interval end; each costs one exact test, counted
// in `*tested`.
bool HitsBlockUnit(std::span<const UPoint> block, double expand,
                   const Cube& entry, std::uint64_t* tested) {
  auto it = std::partition_point(
      block.begin(), block.end(),
      [&entry](const UPoint& u) { return u.interval().end() < entry.min_t; });
  for (; it != block.end() && it->interval().start() <= entry.max_t; ++it) {
    ++*tested;
    if (Cube::Intersect(Grown(it->BoundingCube(), expand), entry)) return true;
  }
  return false;
}

// True when `entry` intersects some member of a time-ordered run. Both
// bounds of the members' time spans are non-decreasing, so the members
// overlapping the entry in time are one contiguous stretch, found by
// binary search on max_t.
bool HitsRunMember(const std::vector<Cube>& run, const Cube& entry) {
  auto it = std::partition_point(
      run.begin(), run.end(),
      [&entry](const Cube& m) { return m.max_t < entry.min_t; });
  for (; it != run.end() && it->min_t <= entry.max_t; ++it) {
    if (Cube::Intersect(*it, entry)) return true;
  }
  return false;
}

// Smallest window i in [lo, num_windows) with s_i + width >= start —
// the first window a unit starting at `start` can overlap — or
// num_windows when there is none. s_i + width is non-decreasing in i.
std::uint64_t FirstWindowReaching(const WindowSweepOp& op, Instant start,
                                  std::uint64_t lo) {
  std::uint64_t hi = op.num_windows;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (op.Start(mid) + op.width >= start) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Sweeps one row's units across the windows each overlaps and appends
// one record per qualifying window, in window order. A unit visits
// window i iff end >= s_i and start <= s_i + width, and adds into the
// row's slot for i in unit order; the rect-crossing range and speed
// are computed once per unit.
void SweepWindowRow(const MovingPoint& mp, const WindowSweepOp& op,
                    WorkerState* w, StageCounters* s) {
  std::vector<WindowSlot>& slots = w->slots;
  std::uint64_t cursor = 0;
  std::uint64_t base = 0;  // window of slots[0] (no unit visits earlier)
  std::size_t used = 0;    // slots[0, used) may hold contributions
  bool started = false;
  for (const UPoint& u : mp.units()) {
    ++s->units_scanned;
    const TimeInterval& iv = u.interval();
    cursor = FirstWindowReaching(op, iv.start(), cursor);
    if (cursor == op.num_windows) break;  // later units start later still
    if (!started) {
      base = cursor;
      started = true;
    }
    TRange unit;
    unit.lo = iv.start();
    unit.hi = iv.end();
    unit.lc = iv.left_closed();
    unit.rc = iv.right_closed();
    const double speed = u.Speed();
    TRange inside;
    if (op.rect) {
      const LinearMotion& m = u.motion();
      inside = IntersectRanges(
          AxisCrossingRange(m.x0, m.x1, op.rect->min_x, op.rect->max_x),
          AxisCrossingRange(m.y0, m.y1, op.rect->min_y, op.rect->max_y));
    }
    for (std::uint64_t i = cursor; i < op.num_windows; ++i) {
      TRange window;
      window.lo = op.Start(i);
      if (iv.end() < window.lo) break;
      window.hi = window.lo + op.width;
      window.rc = false;  // closed-open: [s, s + width)
      const TRange clip = IntersectRanges(unit, window);
      if (clip.empty) continue;
      const std::size_t k = std::size_t(i - base);
      if (k >= slots.size()) slots.resize(k + 1);
      used = std::max(used, k + 1);
      WindowSlot& slot = slots[k];
      const double dur = clip.hi - clip.lo;
      slot.distance += speed * dur;
      slot.covered += dur;
      if (!slot.qualifies) {
        slot.qualifies = !op.rect || !IntersectRanges(clip, inside).empty;
      }
    }
  }
  for (std::size_t k = 0; k < used; ++k) {
    WindowSlot& slot = slots[k];
    if (slot.qualifies) {
      w->records.push_back({base + k, slot.distance, slot.covered});
    }
    slot = WindowSlot{};
  }
}

// Evaluates one source row's moving point at the batch instants into
// the row's own cells [row*k, (row+1)*k) and counts its set flags.
Status ProbeBatchRow(const MovingPoint& mp, std::size_t row,
                     const BatchProbeOp& op, BatchOutput* cells,
                     BatchScratch* scratch, StageCounters* s) {
  const std::size_t k = op.instants.size();
  const std::size_t off = row * k;
  std::uint8_t* flags = cells->flags.data() + off;
  if (op.kind == BatchProbeOp::Kind::kAtInstantXY) {
    MODB_RETURN_IF_ERROR(batch_internal::AtInstantBatchXYCore(
        mp, op.instants, cells->xs.data() + off, cells->ys.data() + off,
        flags, scratch));
  } else {
    MODB_RETURN_IF_ERROR(
        batch_internal::PresentBatchCore(mp, op.instants, flags));
  }
  for (std::size_t q = 0; q < k; ++q) s->rows_out += flags[q];
  return Status::OK();
}

// Per-window totals, folded from the morsels' record buffers strictly
// in morsel order — ascending source-row order — so each sum adds the
// same operands in the same order as a serial row-by-row pass. A morsel
// that finishes ahead of a predecessor parks its buffer until the
// prefix before it has been folded; in-order morsels fold at once, so
// a serial run never buffers more than one morsel.
class WindowFold {
 public:
  WindowFold(std::size_t num_morsels, std::uint64_t num_windows)
      : parked_(num_morsels), done_(num_morsels, false),
        totals_(num_windows) {}

  // Takes morsel `seq`'s records; leaves `records` empty for reuse.
  void Deposit(std::size_t seq, std::vector<WindowRecord>* records) {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq != next_) {
      parked_[seq].swap(*records);
      done_[seq] = true;
      return;
    }
    Fold(*records);
    records->clear();
    for (++next_; next_ < done_.size() && done_[next_]; ++next_) {
      Fold(parked_[next_]);
      std::vector<WindowRecord>().swap(parked_[next_]);
    }
  }

  // Appends one row per window. Call only after every morsel deposited.
  void Emit(const WindowSweepOp& op, Relation* out) const {
    for (std::uint64_t i = 0; i < totals_.size(); ++i) {
      const Total& t = totals_[i];
      const Instant s = op.Start(i);
      Tuple row;
      row.emplace_back(RealValue(s));
      row.emplace_back(RealValue(s + op.width));
      row.emplace_back(IntValue(t.count));
      row.emplace_back(RealValue(t.distance));
      row.emplace_back(RealValue(t.covered > 0 ? t.distance / t.covered : 0.0));
      // Insert cannot fail: rows conform to the window schema.
      (void)out->Insert(std::move(row));
    }
  }

 private:
  struct Total {
    std::int64_t count = 0;
    double distance = 0;
    double covered = 0;
  };

  void Fold(const std::vector<WindowRecord>& records) {
    for (const WindowRecord& r : records) {
      Total& t = totals_[r.window];
      ++t.count;
      t.distance += r.distance;
      t.covered += r.covered;
    }
  }

  std::mutex mu_;
  std::vector<std::vector<WindowRecord>> parked_;
  std::vector<bool> done_;
  std::size_t next_ = 0;
  std::vector<Total> totals_;
};

// One morsel through the fused stage chain. Returns non-OK only for
// source faults (spilled page errors), unsorted batch instants and an
// index entry naming no inner row; predicate work never fails. A window
// sweep leaves its records in w->records and a batch probe writes its
// rows' cells in place; neither takes an `out`.
Status ProcessMorsel(const Pipeline& pipe, const IndexLayersView& view,
                     const Morsel& m, WorkerState* w,
                     std::vector<Tuple>* out, BatchOutput* cells) {
  w->rows.clear();
  w->mat.clear();
  const bool from_spill = pipe.spilled != nullptr;

  // Scan: enumerate (and for spilled sources, materialize) the morsel's
  // rows. The pushed-down window tests the resident stats record first,
  // so disqualified rows never fault a page.
  StageCounters& scan = w->stages[0];
  scan.rows_in += m.end - m.begin;
  // Readahead sweep: hint every page run this morsel will fault —
  // qualifying rows only, so the pushdown still saves the skipped I/O —
  // before the materialize loop starts paying for them.
  if (from_spill) {
    for (std::size_t i = m.begin; i < m.end; ++i) {
      if (pipe.scan_window &&
          !pipe.spilled->stats(i).MayIntersectWindow(pipe.scan_window->t0,
                                                     pipe.scan_window->t1)) {
        continue;
      }
      pipe.spilled->PrefetchRow(i);
    }
  }
  for (std::size_t i = m.begin; i < m.end; ++i) {
    if (from_spill) {
      if (pipe.scan_window &&
          !pipe.spilled->stats(i).MayIntersectWindow(pipe.scan_window->t0,
                                                     pipe.scan_window->t1)) {
        ++scan.pushdown_skips;
        continue;
      }
      Result<Tuple> t = pipe.spilled->MaterializeTuple(i);
      if (!t.ok()) return t.status();
      w->mat.push_back(std::move(*t));
    }
    w->rows.push_back(i);
  }
  scan.rows_out += w->rows.size();

  auto tuple_at = [&](std::size_t k) -> const Tuple& {
    return from_spill ? w->mat[k] : pipe.rel->tuple(w->rows[k]);
  };

  // Filters: in-place compaction of the surviving row list.
  for (std::size_t f = 0; f < pipe.filters.size(); ++f) {
    StageCounters& s = w->stages[1 + f];
    s.rows_in += w->rows.size();
    std::size_t kept = 0;
    for (std::size_t k = 0; k < w->rows.size(); ++k) {
      ++s.predicate_evals;
      if (!pipe.filters[f].fn(tuple_at(k))) continue;
      if (kept != k) {
        w->rows[kept] = w->rows[k];
        if (from_spill) w->mat[kept] = std::move(w->mat[k]);
      }
      ++kept;
    }
    w->rows.resize(kept);
    if (from_spill) w->mat.resize(kept);
    s.rows_out += kept;
  }

  // Terminal: emit this morsel's output tuples (window records for a
  // sweep, cells for a batch probe).
  StageCounters& term = w->stages[NumStages(pipe) - 1];
  term.rows_in += w->rows.size();
  if (pipe.batch) {
    const std::size_t attr = std::size_t(pipe.batch->attr);
    for (std::size_t k = 0; k < w->rows.size(); ++k) {
      MODB_RETURN_IF_ERROR(
          ProbeBatchRow(std::get<MovingPoint>(tuple_at(k)[attr]), w->rows[k],
                        *pipe.batch, cells, &w->batch, &term));
    }
    return Status::OK();
  }
  if (pipe.window) {
    w->records.clear();
    const std::size_t attr = std::size_t(pipe.window->attr);
    for (std::size_t k = 0; k < w->rows.size(); ++k) {
      SweepWindowRow(std::get<MovingPoint>(tuple_at(k)[attr]), *pipe.window,
                     w, &term);
    }
    term.rows_out += w->records.size();
  } else if (pipe.join) {
    for (std::size_t k = 0; k < w->rows.size(); ++k) {
      if (pipe.join->kind == JoinProbeOp::Kind::kIndex) {
        MODB_RETURN_IF_ERROR(ProbeIndexJoinRow(tuple_at(k), w->rows[k],
                                               *pipe.join, view, out, &term,
                                               &w->probe));
      } else {
        ProbeNestedLoopRow(tuple_at(k), w->rows[k], *pipe.join, out, &term);
      }
    }
  } else if (pipe.project) {
    for (std::size_t k = 0; k < w->rows.size(); ++k) {
      const Tuple& t = tuple_at(k);
      Tuple projected;
      projected.reserve(pipe.project->indices.size());
      for (int idx : pipe.project->indices) {
        projected.push_back(t[std::size_t(idx)]);
      }
      out->push_back(std::move(projected));
    }
  } else {
    for (std::size_t k = 0; k < w->rows.size(); ++k) {
      out->push_back(tuple_at(k));
    }
  }
  if (!pipe.window) term.rows_out += out->size();
  return Status::OK();
}

const char* TerminalOpName(const Pipeline& pipe) {
  if (pipe.join) return "join_probe";
  if (pipe.project) return "project";
  if (pipe.window) return "window_sweep";
  if (pipe.batch) return "batch";
  return "sink";
}

// Runs one pipeline step morsel-parallel and appends its output to
// `out` in morsel order (a batch probe fills `cells` instead). `node`
// (when kept) receives one child per stage plus the root-level
// morsel/steal counters.
Status RunPipeline(const Pipeline& pipe, const IndexLayersView& view,
                   const ExecOptions& options, Relation* out,
                   BatchOutput* cells, ExecStats* node) {
  const std::size_t n = pipe.NumSourceRows();
  const std::size_t workers = ResolveWorkerCount(options.parallel);
  std::size_t morsel_rows = PickMorselRows(n, workers, pipe.morsel_rows);
  if (pipe.window && pipe.morsel_rows == 0 && pipe.window->num_windows > 0) {
    morsel_rows = std::min<std::size_t>(
        morsel_rows, std::max<std::uint64_t>(
                         1, kWindowCellsPerMorsel / pipe.window->num_windows));
  }
  MorselScheduler sched(n, morsel_rows, workers);
  const std::size_t num_morsels = sched.num_morsels();

  // Fixed-slot sink: every cell exists before any morsel runs, so each
  // worker writes its rows' cells in place, disjoint from every other.
  if (pipe.batch) {
    const std::size_t num_cells = n * pipe.batch->instants.size();
    const bool xy = pipe.batch->kind == BatchProbeOp::Kind::kAtInstantXY;
    cells->xs.assign(xy ? num_cells : 0, 0.0);
    cells->ys.assign(xy ? num_cells : 0, 0.0);
    cells->flags.assign(num_cells, 0);
  }
  std::vector<std::vector<Tuple>> outputs(
      pipe.window || pipe.batch ? 0 : num_morsels);
  std::optional<WindowFold> fold;
  if (pipe.window) fold.emplace(num_morsels, pipe.window->num_windows);
  std::vector<WorkerState> states(workers);
  for (WorkerState& w : states) w.stages.resize(NumStages(pipe));
  FirstError error;
  const ExecTestHooks* hooks = GetExecTestHooks();

  auto worker_loop = [&](std::size_t w) {
    WorkerState& state = states[w];
    Morsel m;
    bool stolen = false;
    while (!error.Failed() && sched.Next(w, &m, &stolen)) {
      // Cooperative deadline checkpoint: one clock read per morsel,
      // before any of the morsel's work (including the test hook, so a
      // hook-injected stall is charged to the NEXT checkpoint — the
      // morsel that observed the stall still completes).
      if (options.deadline) {
        MODB_COUNTER_INC("exec.deadline_checks");
        if (std::chrono::steady_clock::now() >= *options.deadline) {
          MODB_COUNTER_INC("exec.deadline_exceeded");
          error.Record(m.seq,
                       Status::DeadlineExceeded(
                           "query execution deadline expired at morsel " +
                           std::to_string(m.seq) + " of " +
                           std::to_string(num_morsels)));
          break;
        }
      }
      if (hooks != nullptr && hooks->before_morsel) {
        hooks->before_morsel(w, m.seq);
      }
      ++state.morsels;
      if (stolen) ++state.morsels_stolen;
      Status s = ProcessMorsel(pipe, view, m, &state,
                               outputs.empty() ? nullptr : &outputs[m.seq],
                               cells);
      if (!s.ok()) {
        error.Record(m.seq, std::move(s));
      } else if (fold) {
        fold->Deposit(m.seq, &state.records);
      }
    }
  };

  if (workers == 1 || num_morsels <= 1) {
    // Serial inline (or nothing to overlap): never resolves a pool.
    worker_loop(0);
  } else {
    ThreadPool& pool = ResolvePool(options.parallel);
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining = workers;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.Submit([&, w] {
        worker_loop(w);
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining == 0) done.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return remaining == 0; });
  }

  if (error.Failed()) {
    if (cells != nullptr) *cells = BatchOutput{};
    return error.Take();
  }

  // Deterministic sink: concatenate per-morsel outputs in ascending
  // sequence order — ascending source-row order, the serial order (the
  // window fold already consumed its morsels in that order).
  if (fold) fold->Emit(*pipe.window, out);
  for (std::size_t seq = 0; seq < outputs.size(); ++seq) {
    for (Tuple& t : outputs[seq]) {
      // Insert cannot fail: tuples conform to the output schema.
      (void)out->Insert(std::move(t));
    }
  }

  // Merge worker-local stage counters (sums, schedule-independent).
  std::vector<StageCounters> totals(NumStages(pipe));
  std::uint64_t morsels = 0, morsels_stolen = 0;
  for (const WorkerState& w : states) {
    morsels += w.morsels;
    morsels_stolen += w.morsels_stolen;
    for (std::size_t s = 0; s < totals.size(); ++s) {
      StageCounters& t = totals[s];
      const StageCounters& c = w.stages[s];
      t.rows_in += c.rows_in;
      t.rows_out += c.rows_out;
      t.predicate_evals += c.predicate_evals;
      t.index_candidates += c.index_candidates;
      t.index_hits += c.index_hits;
      t.units_scanned += c.units_scanned;
      t.pushdown_skips += c.pushdown_skips;
    }
  }

  if (node != nullptr) {
    node->workers += workers;
    node->morsels += morsels;
    node->morsels_stolen += morsels_stolen;
    auto stage_node = [&](const char* op, const StageCounters& c) {
      ExecStats s;
      s.op = op;
      s.tuples_in = c.rows_in;
      s.tuples_out = c.rows_out;
      s.predicate_evals = c.predicate_evals;
      s.index_candidates = c.index_candidates;
      s.index_hits = c.index_hits;
      s.units_scanned = c.units_scanned;
      s.pushdown_skips = c.pushdown_skips;
      node->children.push_back(std::move(s));
    };
    stage_node("scan", totals[0]);
    for (std::size_t f = 0; f < pipe.filters.size(); ++f) {
      stage_node("select", totals[1 + f]);
    }
    stage_node(TerminalOpName(pipe), totals[NumStages(pipe) - 1]);
    // A batch probe emits cells, not tuples: the root counts set flags.
    if (pipe.batch) node->tuples_out = totals[NumStages(pipe) - 1].rows_out;
  }
  // Roll the pipeline's counters into the parent node so wrapper-level
  // semantics (predicate_evals, index candidates/hits, units scanned,
  // pushdown skips) survive even without children.
  if (node != nullptr) {
    for (const StageCounters& c : totals) {
      node->predicate_evals += c.predicate_evals;
      node->index_candidates += c.index_candidates;
      node->index_hits += c.index_hits;
      node->units_scanned += c.units_scanned;
      node->pushdown_skips += c.pushdown_skips;
    }
  }

  MODB_COUNTER_ADD("exec.morsels_scheduled", morsels);
  MODB_COUNTER_ADD("exec.morsels_stolen", morsels_stolen);
  MODB_COUNTER_ADD("exec.pushdown_skips", totals[0].pushdown_skips);
  return Status::OK();
}

}  // namespace

Status CollectJoinCandidates(const MovingPoint& mp, std::size_t outer_row,
                             const JoinProbeOp& op,
                             const IndexLayersView& view,
                             ProbeScratch* scratch) {
  std::vector<int64_t>& candidates = scratch->candidates;
  candidates.clear();
  const std::size_t inner_rows = op.inner->NumTuples();
  std::vector<std::uint32_t>& stamps = scratch->stamps;
  if (stamps.size() != inner_rows) {
    stamps.assign(inner_rows, 0);
    scratch->generation = 0;
  }
  if (++scratch->generation == 0) {  // wrapped: forget every stamp
    std::fill(stamps.begin(), stamps.end(), 0);
    scratch->generation = 1;
  }
  const std::uint32_t generation = scratch->generation;
  // Ids below `first` are never candidates: a distinct-pairs predicate
  // rejects j <= i.
  const std::uint64_t first = op.distinct_pairs ? outer_row + 1 : 0;
  std::optional<std::int64_t> bad_id;
  // True when `id` is an inner row this outer row has not admitted yet.
  auto fresh = [&](std::int64_t id) {
    if (id < 0 || std::uint64_t(id) >= inner_rows) {
      bad_id = id;
      return false;
    }
    return std::uint64_t(id) >= first &&
           stamps[std::size_t(id)] != generation;
  };
  auto admit = [&](std::int64_t id) {
    stamps[std::size_t(id)] = generation;
    candidates.push_back(id);
  };

  std::vector<Cube>& run = scratch->run;
  run.clear();
  Cube run_cube;
  double run_volume = 0;
  RTree3D::QueryCounters counters;
  auto probe_run = [&] {
    if (run.size() == 1) {
      view.QueryVisit(
          run[0],
          [&](std::int64_t id) {
            if (fresh(id)) admit(id);
          },
          &counters);
    } else {
      view.QueryVisit(
          run_cube,
          [&](std::int64_t id, const Cube& entry) {
            if (fresh(id) && HitsRunMember(run, entry)) admit(id);
          },
          &counters);
    }
    run.clear();
  };

  const Cube& bounds = view.Bounds();
  std::uint64_t units_scanned = 0;
  // Sealed history first: one traversal per block whose grown cube
  // meets the index. The grown block cube contains every member's grown
  // cube, so it finds every entry a member would; an admitted id has
  // passed the member test exactly.
  const std::span<const UPoint> units(mp.units());
  std::span<const Cube> blocks;
  if (op.outer_blocks) blocks = op.outer_blocks->Row(outer_row);
  blocks = blocks.first(std::min(blocks.size(), units.size() / kUnitsPerBlock));
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Cube c = Grown(blocks[b], op.expand);
    if (!Cube::Intersect(c, bounds)) continue;
    const std::span<const UPoint> block =
        units.subspan(b * kUnitsPerBlock, kUnitsPerBlock);
    view.QueryVisit(
        c,
        [&](std::int64_t id, const Cube& entry) {
          if (fresh(id) &&
              HitsBlockUnit(block, op.expand, entry, &units_scanned)) {
            admit(id);
          }
        },
        &counters);
  }
  // The units after the last block, in runs.
  for (const UPoint& u : units.subspan(blocks.size() * kUnitsPerBlock)) {
    ++units_scanned;
    const Cube c = Grown(u.BoundingCube(), op.expand);
    // Bbox prefilter: a probe cube disjoint from every layer cannot
    // produce candidates, so it joins no run.
    if (!Cube::Intersect(c, bounds)) continue;
    const double volume = c.Volume();
    if (!run.empty()) {
      Cube merged = run_cube;
      merged.Extend(c);
      // Time order is checked, not assumed: HitsRunMember relies on it.
      if (run.size() < kMaxRunUnits && c.min_t >= run.back().min_t &&
          c.max_t >= run.back().max_t &&
          merged.Volume() <= kMaxRunInflation * (run_volume + volume)) {
        run.push_back(c);
        run_cube = merged;
        run_volume += volume;
        continue;
      }
      probe_run();
    }
    run.push_back(c);
    run_cube = c;
    run_volume = volume;
  }
  if (!run.empty()) probe_run();
  counters.Flush();
  scratch->units_scanned = units_scanned;
  if (bad_id) {
    return Status::Internal("index entry id " + std::to_string(*bad_id) +
                            " is not a row of the " +
                            std::to_string(inner_rows) +
                            "-row inner relation");
  }
  std::sort(candidates.begin(), candidates.end());
  return Status::OK();
}

std::uint64_t CountWindows(Instant t0, Instant t1, Instant step,
                           std::uint64_t limit) {
  WindowSweepOp grid;
  grid.t0 = t0;
  grid.step = step;
  // s_i is non-decreasing in i, so the emitted windows are a prefix
  // [0, count) and count is the first i failing s_i < t1.
  if (grid.Start(limit) < t1) return limit + 1;
  std::uint64_t lo = 0;
  std::uint64_t hi = limit;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (grid.Start(mid) < t1) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<Relation> RunPlan(const PhysicalPlan& plan, const ExecOptions& options,
                         BatchOutput* batch) {
  MODB_RETURN_IF_ERROR(ValidateParallelOptions(options.parallel));
  // An already-expired deadline fails up front — before any build step
  // or scan — so a request admitted after its budget ran out never pays
  // for work it cannot finish.
  if (options.deadline &&
      std::chrono::steady_clock::now() >= *options.deadline) {
    MODB_COUNTER_INC("exec.deadline_exceeded");
    return Status::DeadlineExceeded(
        "query execution deadline expired before the plan started");
  }
  OptionalTimer timer(options.stats != nullptr);

  // Exactly one pipeline step produces the output.
  std::size_t pipe_steps = 0;
  for (const PlanStep& step : plan.steps) {
    if (step.pipe.has_value() == step.build.has_value()) {
      return Status::InvalidArgument(
          "plan step must be exactly one of build or pipeline");
    }
    if (!step.pipe) continue;
    ++pipe_steps;
    if (step.pipe->batch.has_value() != (batch != nullptr)) {
      return Status::InvalidArgument(
          "a BatchOutput is required by, and only by, a batch-probe plan");
    }
  }
  if (pipe_steps != 1) {
    return Status::InvalidArgument(
        "plan must contain exactly one pipeline step, got " +
        std::to_string(pipe_steps));
  }

  ExecStats node;
  node.op = plan.root_op;
  node.tuples_in = plan.legacy_tuples_in;
  node.materializations = 1;  // the sink; stages materialize nothing
  ExecStats* stats = options.stats != nullptr ? &node : nullptr;

  Relation out(plan.out_name, plan.out_schema);
  std::vector<std::optional<RTree3D>> built(plan.steps.size());
  std::vector<bool> executed(plan.steps.size(), false);

  // Deterministic topological schedule: repeatedly run the
  // lowest-index step whose dependencies have all completed. Build
  // steps run serially (their output is a shared read-only index);
  // pipeline steps run morsel-parallel.
  for (std::size_t done = 0; done < plan.steps.size();) {
    std::size_t ready = plan.steps.size();
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
      if (executed[i]) continue;
      bool deps_ok = true;
      for (std::size_t d : plan.steps[i].deps) {
        if (d >= plan.steps.size() || !executed[d]) {
          deps_ok = false;
          break;
        }
      }
      if (deps_ok) {
        ready = i;
        break;
      }
    }
    if (ready == plan.steps.size()) {
      return Status::InvalidArgument("plan DAG has a dependency cycle");
    }
    const PlanStep& step = plan.steps[ready];
    if (step.build) {
      OptionalTimer build_timer(stats != nullptr);
      Result<RTree3D> tree =
          BuildMovingPointIndex(*step.build->rel, step.build->attr);
      if (!tree.ok()) return tree.status();
      built[ready].emplace(std::move(*tree));
      if (stats != nullptr) {
        ExecStats b;
        b.op = "build_index";
        b.tuples_in = step.build->rel->NumTuples();
        b.index_builds = 1;
        b.wall_ns = build_timer.ElapsedNs();
        node.children.push_back(std::move(b));
      }
      node.index_builds += 1;
    } else {
      const Pipeline& pipe = *step.pipe;
      // Resolve the index the probe runs against: a live relation's
      // layered view, a prebuilt tree, or this plan's build step — all
      // wrapped as an IndexLayersView so the probe has one body.
      IndexLayersView view;
      if (pipe.join && pipe.join->kind == JoinProbeOp::Kind::kIndex) {
        if (pipe.join->layers) {
          view = *pipe.join->layers;
        } else if (pipe.join->tree != nullptr) {
          view = IndexLayersView::Single(pipe.join->tree);
        } else if (pipe.join->build_step >= 0 &&
                   std::size_t(pipe.join->build_step) < built.size() &&
                   built[std::size_t(pipe.join->build_step)]) {
          view = IndexLayersView::Single(
              &*built[std::size_t(pipe.join->build_step)]);
        } else {
          return Status::InvalidArgument(
              "index join probe has no layered view, no prebuilt tree, and "
              "no completed build step");
        }
      }
      MODB_RETURN_IF_ERROR(
          RunPipeline(pipe, view, options, &out, batch, &node));
    }
    executed[ready] = true;
    ++done;
  }

  if (batch == nullptr) node.tuples_out = out.NumTuples();
  node.wall_ns = timer.ElapsedNs();
  if (options.stats != nullptr) *options.stats = std::move(node);
  MODB_COUNTER_INC("exec.plans_run");
  MODB_COUNTER_INC("exec.relations_materialized");
  return out;
}

}  // namespace exec
}  // namespace modb
