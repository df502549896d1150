// Host-time spans recorded by the benchmark around each call it makes into
// a simulator layer, plus the arithmetic that turns them into per-layer self
// times.
//
// Spans live in memory while a pass runs (a push per open, two clock reads
// per span) and are written out once, when the benchmark ends. A span's
// parent is the innermost span open when it started; its cell is the
// workload x runtime cell (or fleet window) it belongs to, inherited from the
// parent when not given.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace pagoda::perfbench {

struct Span {
  const char* name = "";      // static string: "pass", "cell", or a layer
  std::int64_t start_ns = 0;  // host time since the recorder was created
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the span list; -1 = root
  std::int32_t cell = -1;     // -1 = not inside a cell
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name, int cell = -1);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder (the untraced pass) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int cell = -1)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, cell) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Self time per span name, in ns: each span's duration minus the durations
/// of its direct children (children nest inside their parent and do not
/// overlap on one thread, so their sum is the covered part).
std::map<std::string, double> self_time_ns(std::span<const Span> spans);

/// One JSON object per line: name, start_ns, end_ns, parent, cell.
void write_spans_jsonl(std::ostream& os, std::span<const Span> spans);

}  // namespace pagoda::perfbench
