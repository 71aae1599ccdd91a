// Queue pressure and the one hysteresis every serving decision built on it
// shares.  A PressureSample is the queue at one instant; PressureLimits is
// a band of thresholds over the same four terms; a PressureBand turns a
// stream of samples into +1 / -1 / 0 moves with patience on each side.
//
// The server runs two bands off ONE sample per control tick: the
// autoscaler (ServerOptions::grow / shrink, its move clamped to the shard
// bounds) and the overload detector (ServerOptions::overload, exiting at
// half the entry limits).  Admission's instantaneous trip is
// PressureLimits::hot on a sample of the dispatcher's lock-free mirrors.
// None of them touches a thread or a clock, so hysteresis is unit-testable
// on synthetic traces.

#pragma once

namespace af::serve {

// Every term except the wait is per live shard.
struct PressureSample {
  double depth_per_shard = 0.0;          // queued requests
  double wait_p99_ms = 0.0;              // window p99 enqueue->dispatch wait
  double backlog_macs_per_shard = 0.0;   // queued simulated work
  double backlog_bytes_per_shard = 0.0;  // queued projected DRAM traffic
};

// One limit per PressureSample term.  As an upper band a term takes part
// only when its limit is > 0; a band's lower limits apply to exactly the
// terms its upper band activates.
struct PressureLimits {
  double depth_per_shard = 0.0;
  double wait_p99_ms = 0.0;
  double backlog_macs_per_shard = 0.0;
  double backlog_bytes_per_shard = 0.0;

  // Some active term is at or above its limit.
  bool hot(const PressureSample& s) const;
  // Every term active here is at or below its `lower` limit.
  bool cool(const PressureSample& s, const PressureLimits& lower) const;
  PressureLimits scaled(double factor) const;
  // Throws af::Error(kInvalidArgument) unless every term is >= 0 (NaN
  // fails) and — when `needs_active` — at least one is > 0.
  void validate(const char* band, bool needs_active) const;
};

// step() returns +1 after up_patience consecutive hot ticks, -1 after
// down_patience consecutive cool ticks, 0 otherwise.  Hot wins a tick that
// is both; a tick that is neither resets both streaks, so a load
// oscillating faster than either patience never moves the output.
struct PressureBand {
  PressureLimits upper;
  PressureLimits lower;
  int up_patience = 1;
  int down_patience = 1;

  int step(const PressureSample& s);

  int hot_streak = 0;
  int cool_streak = 0;
};

}  // namespace af::serve
