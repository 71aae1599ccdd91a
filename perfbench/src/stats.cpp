#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace pb {

std::int64_t nearest_rank(std::int64_t n, double q) {
  const std::int64_t q_pm = std::llround(q * 1000.0);
  return (q_pm * n + 999) / 1000;
}

bool percentile_supported(std::int64_t n, double q) {
  return n > 0 && n - nearest_rank(n, q) >= kMinBeyond;
}

double percentile(std::vector<double> samples, double q, const char* what) {
  const auto n = static_cast<std::int64_t>(samples.size());
  if (!percentile_supported(n, q)) {
    throw std::runtime_error(std::string(what) + ": " + std::to_string(n) +
                             " samples cannot support percentile " +
                             std::to_string(q));
  }
  const auto rank = static_cast<std::size_t>(nearest_rank(n, q));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::runtime_error("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

Digest& Digest::add(std::uint64_t v) {
  // splitmix64 finalizer over the running state.
  std::uint64_t z = h_ ^ (v + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  h_ = z ^ (z >> 31);
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return add(bits);
}

Digest& Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) add(static_cast<std::uint64_t>(c));
  return *this;
}

namespace {

void add_activity(Digest& d, const af::arch::ActivityCounters& a) {
  d.add(a.mult_ops).add(a.csa_ops).add(a.cpa_ops).add(a.hreg_writes)
      .add(a.vreg_writes).add(a.wreg_writes).add(a.acc_writes)
      .add(a.hreg_bypassed_bit_cycles).add(a.vreg_bypassed_bit_cycles)
      .add(a.streaming_cycles);
}

void add_decision(Digest& d, const af::arch::ModeDecision& m) {
  d.add(m.k).add(m.cycles).add(m.period_ps).add(m.time_ps);
}

}  // namespace

std::uint64_t digest(const af::engine::CostEstimate& e) {
  Digest d;
  d.add(e.k).add(e.cycles).add(e.period_ps).add(e.time_ps).add(e.energy_pj);
  add_activity(d, e.activity);
  d.add(e.stall_cycles).add(e.dram_bytes).add(e.spad_peak_bytes);
  return d.value();
}

std::uint64_t digest(const af::nn::ModelReport& r) {
  Digest d;
  d.add(r.model_name).add(static_cast<std::uint64_t>(r.layers.size()));
  for (const af::nn::LayerReport& l : r.layers) {
    d.add(l.name).add(static_cast<int>(l.kind));
    d.add(l.shape.m).add(l.shape.n).add(l.shape.t).add(l.k_hat);
    add_decision(d, l.arrayflex);
    add_decision(d, l.conventional);
    d.add(l.arrayflex_power.energy_pj).add(l.arrayflex_power.time_ps);
    d.add(l.conventional_power.energy_pj).add(l.conventional_power.time_ps);
    d.add(l.dram_bytes).add(l.stall_cycles).add(l.spad_peak_bytes);
  }
  d.add(r.arrayflex_time_ps).add(r.conventional_time_ps);
  d.add(r.arrayflex_energy_pj).add(r.conventional_energy_pj);
  d.add(r.arrayflex_dram_bytes).add(r.arrayflex_stall_cycles);
  d.add(r.spad_peak_bytes);
  return d.value();
}

std::uint64_t digest(const af::gemm::Mat64& m) {
  Digest d;
  d.add(m.rows()).add(m.cols());
  for (const std::int64_t v : m.data()) d.add(v);
  return d.value();
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != Span::kNoParent) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::map<std::string, SelfTime> by_name;
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& s : spans) {
    covered.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
        const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (run_hi < lo) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    const std::int64_t duration = s.end_ns - s.start_ns;
    SelfTime& agg = by_name[s.name];
    agg.name = s.name;
    agg.count += 1;
    agg.total_ns += static_cast<double>(duration);
    agg.self_ns += static_cast<double>(duration - union_ns);
  }
  std::vector<SelfTime> out;
  for (auto& [name, agg] : by_name) out.push_back(agg);
  return out;
}

}  // namespace pb
