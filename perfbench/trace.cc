#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t Ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

std::uint64_t SpanBuffer::BeginRoot(std::string_view name,
                                    std::string_view kind,
                                    Clock::time_point start) {
  Span s;
  s.id = ++next_;
  s.request = s.id;
  s.name = name;
  s.kind = kind;
  s.start = start;
  s.end = start;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanBuffer::EndRoot(std::uint64_t root, Clock::time_point end) {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == root) {
      it->end = end;
      return;
    }
  }
}

void SpanBuffer::Child(std::uint64_t parent, std::string_view name,
                       Clock::time_point start, Clock::time_point end) {
  std::uint64_t request = 0;
  std::string_view kind;
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == parent) {
      request = it->request;
      kind = it->kind;
      break;
    }
  }
  Span s;
  s.id = ++next_;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.kind = kind;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
}

TraceSummary Summarize(const std::vector<const SpanBuffer*>& buffers) {
  TraceSummary out;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    // A request's spans are contiguous in its buffer, root first.
    for (std::size_t begin = 0; begin < spans.size();) {
      std::size_t end = begin + 1;
      while (end < spans.size() && spans[end].request == spans[begin].request) {
        ++end;
      }
      std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
      for (std::size_t i = begin; i < end; ++i) {
        if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
      }
      std::int64_t self_sum = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const Span& s = spans[i];
        std::vector<std::size_t> kids = children[s.id];
        std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
          return spans[a].start < spans[b].start;
        });
        // Covered part of s: the union of its children clipped to s.
        std::int64_t covered = 0;
        Clock::time_point frontier = s.start;
        for (std::size_t k : kids) {
          const Span& c = spans[k];
          if (c.start < s.start || c.end > s.end || c.end < c.start) {
            ++out.violations;
          }
          if (c.start < frontier) ++out.violations;  // overlaps a sibling
          const Clock::time_point lo = std::max(c.start, frontier);
          const Clock::time_point hi = std::min(c.end, s.end);
          if (hi > lo) {
            covered += Ns(hi - lo);
            frontier = hi;
          }
        }
        const std::int64_t self = Ns(s.end - s.start) - covered;
        self_sum += self;
        out.layers[{s.name, s.kind}].push_back(double(self));
      }
      const Span& root = spans[begin];
      if (root.parent != 0 || self_sum != Ns(root.end - root.start)) {
        ++out.violations;
      }
      ++out.roots;
      out.spans += end - begin;
      begin = end;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                Clock::time_point epoch) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "request\tid\tparent\tname\tkind\tstart_ns\tend_ns\n";
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& s : buffer->spans()) {
      out << s.request << '\t' << s.id << '\t' << s.parent << '\t' << s.name
          << '\t' << s.kind << '\t' << Ns(s.start - epoch) << '\t'
          << Ns(s.end - epoch) << '\n';
    }
  }
  return bool(out);
}

}  // namespace perfbench
