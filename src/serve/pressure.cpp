#include "serve/pressure.h"

#include <array>

#include "util/status.h"

namespace af::serve {

namespace {

constexpr std::array<const char*, 4> kTermNames = {
    "depth_per_shard", "wait_p99_ms", "backlog_macs_per_shard",
    "backlog_bytes_per_shard"};

template <class Terms>
std::array<double, 4> terms(const Terms& t) {
  return {t.depth_per_shard, t.wait_p99_ms, t.backlog_macs_per_shard,
          t.backlog_bytes_per_shard};
}

}  // namespace

bool PressureLimits::hot(const PressureSample& s) const {
  const std::array<double, 4> limit = terms(*this);
  const std::array<double, 4> value = terms(s);
  for (std::size_t i = 0; i < limit.size(); ++i) {
    if (limit[i] > 0.0 && value[i] >= limit[i]) return true;
  }
  return false;
}

bool PressureLimits::cool(const PressureSample& s,
                          const PressureLimits& lower) const {
  const std::array<double, 4> limit = terms(*this);
  const std::array<double, 4> low = terms(lower);
  const std::array<double, 4> value = terms(s);
  for (std::size_t i = 0; i < limit.size(); ++i) {
    if (limit[i] > 0.0 && value[i] > low[i]) return false;
  }
  return true;
}

PressureLimits PressureLimits::scaled(double factor) const {
  return {factor * depth_per_shard, factor * wait_p99_ms,
          factor * backlog_macs_per_shard, factor * backlog_bytes_per_shard};
}

void PressureLimits::validate(const char* band, bool needs_active) const {
  const std::array<double, 4> limit = terms(*this);
  bool active = false;
  for (std::size_t i = 0; i < limit.size(); ++i) {
    AF_CHECK(limit[i] >= 0.0, band << "." << kTermNames[i]
                                   << " must be >= 0, got " << limit[i]);
    active = active || limit[i] > 0.0;
  }
  AF_CHECK(!needs_active || active,
           band << " needs at least one positive limit");
}

int PressureBand::step(const PressureSample& s) {
  if (upper.hot(s)) {
    cool_streak = 0;
    if (++hot_streak < up_patience) return 0;
    hot_streak = 0;
    return 1;
  }
  if (upper.cool(s, lower)) {
    hot_streak = 0;
    if (++cool_streak < down_patience) return 0;
    cool_streak = 0;
    return -1;
  }
  hot_streak = 0;
  cool_streak = 0;
  return 0;
}

}  // namespace af::serve
