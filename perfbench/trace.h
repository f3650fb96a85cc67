// Span recording for the benchmark's traced run. A traced operation is
// one root span (the client call plus the in-process replay of the same
// request) and one child span per layer boundary the benchmark times.
// Spans live in per-thread buffers and are written out when the run
// ends; self time (a span's duration minus the part of it that its
// children cover) is derived afterwards, never while timing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 for a root span
  std::uint64_t request = 0;  // shared by every span of one operation
  // Both views outlive the buffer: names are literals, kinds are
  // literals or the workload's kind names.
  std::string_view name;  // layer boundary, e.g. "db.run"
  std::string_view kind;  // query kind, "ingest" or "maintenance"
  Clock::time_point start;
  Clock::time_point end;
};

/// One thread's spans. Ids are unique across buffers: the buffer's
/// index sits in the top 16 bits.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint64_t index) : next_(index << 48) {}

  /// Opens a request: returns the root span's id. The root's end is set
  /// by EndRoot once every child is recorded.
  std::uint64_t BeginRoot(std::string_view name, std::string_view kind,
                          Clock::time_point start);
  void EndRoot(std::uint64_t root, Clock::time_point end);
  /// Records a finished child of `parent` (a span of this buffer).
  void Child(std::uint64_t parent, std::string_view name,
             Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_;
  std::vector<Span> spans_;
};

/// Self times (ns) of every span, grouped by (name, kind), in recording
/// order.
struct TraceSummary {
  std::map<std::pair<std::string_view, std::string_view>, std::vector<double>>
      layers;
  std::size_t roots = 0;
  std::size_t spans = 0;
  /// Children that start before or end after their parent, plus roots
  /// whose self times do not sum to their duration.
  std::size_t violations = 0;
};

/// Derives self times and checks span consistency: every child nests
/// inside its parent, siblings do not overlap, and per root span the
/// self times of the tree sum to the root's duration.
TraceSummary Summarize(const std::vector<const SpanBuffer*>& buffers);

/// Writes every span as one tab-separated line under a header line
/// (times in ns since `epoch`). Returns false if the file cannot be
/// written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                Clock::time_point epoch);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
