// Sample statistics, output digests and span self-time arithmetic used by
// the serving benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "gemm/matrix.h"
#include "nn/runner.h"

namespace pb {

// A percentile is reported only when at least this many samples rank above
// it, so one outlier cannot be the reported value.
constexpr std::int64_t kMinBeyond = 10;

// 1-based nearest rank of quantile q (0 < q < 1) among n samples:
// ceil(q * n), computed in per-mille integers so 0.9 * 100 is exactly 90.
std::int64_t nearest_rank(std::int64_t n, double q);

// True when n samples leave at least kMinBeyond samples above the q rank.
bool percentile_supported(std::int64_t n, double q);

// Nearest-rank percentile; throws std::runtime_error naming `what` when the
// sample cannot support q (see percentile_supported).
double percentile(std::vector<double> samples, double q, const char* what);

// Median (mean of the middle pair for even sizes); throws when empty.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

// Order-sensitive 64-bit digest of every field of a result, used to compare
// served outputs with direct reference calls without keeping the outputs.
// Doubles enter by bit pattern, so equal digests mean bit-identical values
// up to a 2^-64 collision chance.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(int v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(double v);
  Digest& add(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc908ULL;
};

std::uint64_t digest(const af::engine::CostEstimate& e);
std::uint64_t digest(const af::nn::ModelReport& r);
std::uint64_t digest(const af::gemm::Mat64& m);

// One traced interval.  Spans of one client call share `request`; `parent`
// is the id of the span that caused this one (kNoParent for a root).
struct Span {
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};
  std::uint64_t id = 0;
  std::uint64_t parent = kNoParent;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Per span name: how many spans, their summed duration, and their summed
// self time — each span's duration minus the part of its interval covered
// by the union of its children (clipped to the parent).
struct SelfTime {
  std::string name;
  std::int64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

}  // namespace pb
