#include "trace.h"

#include <fstream>

namespace pb {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent,
                            std::uint64_t request) {
  Span s;
  s.id = tag_ | spans_.size();
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  spans_.push_back(s);
  return s.id;
}

void SpanLog::close(std::uint64_t id) {
  spans_[static_cast<std::size_t>(id - tag_)].end_ns = now_ns();
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',';
    if (s.parent == Span::kNoParent) {
      out << "-";
    } else {
      out << s.parent;
    }
    out << ',' << s.request << ',' << s.name << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace pb
