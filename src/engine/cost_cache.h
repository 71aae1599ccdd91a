// Bounded, sharded memoization of the cost queries that are expensive to
// recompute, behind the engine:: facade.
//
// Not every estimate is worth storing.  With magic memory an analytic
// estimate is the paper's O(1) closed forms (Eqs. 3-6): recomputing one
// takes about as long as a hash lookup, and storing it costs memory that
// is never given back.  So Engine stores an estimate only when a miss is
// costly (Engine::evaluate_cached and friends enforce this):
//
//   estimates  (fingerprint, shape, k, occupancy) -> CostEstimate
//              Stored when the engine MEASURES (the cycle backend, where
//              a miss is a full simulation) or when the memory model is on
//              (a miss is a DMA plan, several microseconds).  The value is
//              the full finalized estimate, memory-aware re-timing and
//              DRAM pricing included.  `occupancy` is kDenseOccupancy for
//              dense queries and the non-zero tile count for block-sparse
//              ones; only a measuring engine with magic memory stores
//              sparse estimates (with the model on, the DMA plan depends
//              on WHICH tiles are occupied, so there is no sound key).
//
//   sweeps     (fingerprint, shape) -> vector<ModeSweepEntry>
//              The optimizer's compute-only per-mode projection (Eq. 6
//              argmin inputs), used by admission, the sticky reconfig
//              policy and the inference runner.  Kept apart from estimates
//              because with the memory model on the finalized time
//              includes DMA stalls while mode SELECTION deliberately does
//              not, so the two must not share entries.
//
// Capacity: each store holds at most `stripe_capacity` entries per stripe,
// fixed at construction, so at most capacity() entries in all.  The
// default (kDefaultStripeCapacity x kStripes = 16384 per store) sits far
// above a serving working set: a traced LLM decode trial misses about a
// hundred distinct shapes.  A full stripe evicts by CLOCK: a hit sets the
// entry's reference bit; an insert sweeps the stripe's hand forward,
// clearing set bits, and replaces the first entry whose bit was clear.  New
// entries start clear, so a stream of never-repeated shapes recycles its
// own slots and leaves the repeatedly hit ones in place.
//
// Invalidation is structural, not epochal: every key carries the owning
// engine's 64-bit cost fingerprint (geometry + supported modes + memory
// knobs + per-mode clock periods + all EnergyParams), so an engine built
// over different wiring can share the same cache object and never read a
// stale entry.  clear() exists for tests and explicit resets.
//
// Thread safety: fully internally synchronized.  Keys hash across
// kStripes independent mutex-guarded stripes, so concurrent admission
// threads rarely touch the same lock; hit/miss counters are relaxed
// atomics.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/optimizer.h"
#include "engine/engine.h"
#include "gemm/reference.h"

namespace af::engine {

class CostCache {
 public:
  // Occupancy token of a dense query (sparse tokens are nnz >= 0, so the
  // two can never collide).
  static constexpr std::int64_t kDenseOccupancy = -1;
  static constexpr std::size_t kStripes = 16;
  static constexpr std::size_t kDefaultStripeCapacity = 1024;

  // `stripe_capacity` entries per stripe and store (>= 1).
  explicit CostCache(std::size_t stripe_capacity = kDefaultStripeCapacity);
  ~CostCache();

  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  // Estimate store.  find() counts a hit or a miss; insert() is
  // first-writer-wins (concurrent misses compute identical values, so
  // dropping the second write is harmless).
  std::optional<CostEstimate> find(std::uint64_t fingerprint,
                                   const gemm::GemmShape& shape, int k,
                                   std::int64_t occupancy) const;
  void insert(std::uint64_t fingerprint, const gemm::GemmShape& shape, int k,
              std::int64_t occupancy, const CostEstimate& estimate);

  // Sweep store (compute-only mode projections, winner flagged).  Values
  // are shared_ptr so a hit is a refcount bump, not a vector copy.
  std::shared_ptr<const std::vector<arch::ModeSweepEntry>> find_sweep(
      std::uint64_t fingerprint, const gemm::GemmShape& shape) const;
  void insert_sweep(
      std::uint64_t fingerprint, const gemm::GemmShape& shape,
      std::shared_ptr<const std::vector<arch::ModeSweepEntry>> sweep);

  // Cumulative lookup counters across both stores (relaxed; serving stats).
  std::int64_t hits() const;
  std::int64_t misses() const;

  // Entries across both stores (test introspection).
  std::int64_t size() const;
  // Most entries either store can hold: stripe_capacity x kStripes.
  std::int64_t capacity() const;

  // Drop every entry (counters keep running).
  void clear();

 private:
  struct Key;
  struct Stripe;

  Stripe& stripe_for(const Key& key) const;

  const std::size_t stripe_capacity_;
  std::unique_ptr<Stripe[]> stripes_;
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
};

}  // namespace af::engine
