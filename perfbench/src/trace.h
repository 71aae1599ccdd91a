// Span recording for the traced run.  Each client thread owns one SpanLog
// (no locking on the hot path); the logs are merged after a trial and
// written out when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace pb {

using Clock = std::chrono::steady_clock;

// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

class SpanLog {
 public:
  // `tag` makes span ids unique across the logs of one run.
  explicit SpanLog(std::uint64_t tag) : tag_(tag << 40) {}

  // Opens a span starting now; close() stamps its end.
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t request);
  void close(std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t tag_;
  std::vector<Span> spans_;
};

// Writes spans as CSV (id,parent,request,name,start_ns,end_ns).  Returns
// false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace pb
