#include "spans.h"

#include <ostream>

#include "common/check.h"

namespace pagoda::perfbench {

int SpanRecorder::open(const char* name, int cell) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (cell < 0 && parent >= 0) {
    cell = spans_[static_cast<std::size_t>(parent)].cell;
  }
  const std::int64_t t = now_ns();
  spans_.push_back(Span{name, t, t, parent, cell});
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  PAGODA_CHECK_MSG(!stack_.empty() && stack_.back() == id,
                   "spans must close innermost first");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::map<std::string, double> self_time_ns(std::span<const Span> spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    PAGODA_CHECK(static_cast<std::size_t>(s.parent) < spans.size());
    self[static_cast<std::size_t>(s.parent)] -=
        static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
  }
  return by_name;
}

void write_spans_jsonl(std::ostream& os, std::span<const Span> spans) {
  for (const Span& s : spans) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"cell\":" << s.cell << "}\n";
  }
}

}  // namespace pagoda::perfbench
