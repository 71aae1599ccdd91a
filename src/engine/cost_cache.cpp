#include "engine/cost_cache.h"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/status.h"

namespace af::engine {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

struct CostCache::Key {
  std::uint64_t fingerprint = 0;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t t = 0;
  int k = 0;  // 0 marks a sweep entry (real modes are >= 1)
  std::int64_t occupancy = kDenseOccupancy;

  bool operator==(const Key&) const = default;

  std::size_t hash() const {
    std::uint64_t h = fingerprint;
    h = splitmix64(h ^ static_cast<std::uint64_t>(m));
    h = splitmix64(h ^ static_cast<std::uint64_t>(n));
    h = splitmix64(h ^ static_cast<std::uint64_t>(t));
    h = splitmix64(h ^ static_cast<std::uint64_t>(k));
    h = splitmix64(h ^ static_cast<std::uint64_t>(occupancy));
    return static_cast<std::size_t>(h);
  }
};

namespace {

// One stripe's worth of one store: at most `capacity` slots, evicted by
// CLOCK (see cost_cache.h).  Not synchronized; the stripe's mutex guards it.
template <typename Key, typename Value>
class ClockStore {
 public:
  const Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    Slot& slot = slots_[it->second];
    slot.referenced = true;
    return &slot.value;
  }

  void insert(const Key& key, Value value, std::size_t capacity) {
    if (index_.contains(key)) return;  // first writer wins
    if (slots_.size() < capacity) {
      index_.emplace(key, slots_.size());
      slots_.push_back({key, std::move(value), false});
      return;
    }
    while (slots_[hand_].referenced) {
      slots_[hand_].referenced = false;
      hand_ = (hand_ + 1) % slots_.size();
    }
    Slot& victim = slots_[hand_];
    index_.erase(victim.key);
    index_.emplace(key, hand_);
    victim = {key, std::move(value), false};
    hand_ = (hand_ + 1) % slots_.size();
  }

  std::size_t size() const { return slots_.size(); }

  void clear() {
    index_.clear();
    slots_.clear();
    hand_ = 0;
  }

 private:
  struct Slot {
    Key key;
    Value value;
    bool referenced = false;
  };
  struct Hash {
    std::size_t operator()(const Key& key) const { return key.hash(); }
  };

  std::unordered_map<Key, std::size_t, Hash> index_;  // key -> slot
  std::vector<Slot> slots_;
  std::size_t hand_ = 0;
};

using SweepPtr = std::shared_ptr<const std::vector<arch::ModeSweepEntry>>;

}  // namespace

struct CostCache::Stripe {
  std::mutex mutex;
  ClockStore<Key, CostEstimate> estimates;
  ClockStore<Key, SweepPtr> sweeps;
};

CostCache::CostCache(std::size_t stripe_capacity)
    : stripe_capacity_(stripe_capacity),
      stripes_(std::make_unique<Stripe[]>(kStripes)) {
  AF_CHECK(stripe_capacity_ >= 1, "CostCache needs a stripe capacity >= 1");
}

CostCache::~CostCache() = default;

CostCache::Stripe& CostCache::stripe_for(const Key& key) const {
  return stripes_[key.hash() % kStripes];
}

std::optional<CostEstimate> CostCache::find(std::uint64_t fingerprint,
                                            const gemm::GemmShape& shape,
                                            int k,
                                            std::int64_t occupancy) const {
  const Key key{fingerprint, shape.m, shape.n, shape.t, k, occupancy};
  Stripe& stripe = stripe_for(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (const CostEstimate* hit = stripe.estimates.find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *hit;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void CostCache::insert(std::uint64_t fingerprint,
                       const gemm::GemmShape& shape, int k,
                       std::int64_t occupancy, const CostEstimate& estimate) {
  const Key key{fingerprint, shape.m, shape.n, shape.t, k, occupancy};
  Stripe& stripe = stripe_for(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.estimates.insert(key, estimate, stripe_capacity_);
}

SweepPtr CostCache::find_sweep(std::uint64_t fingerprint,
                               const gemm::GemmShape& shape) const {
  const Key key{fingerprint, shape.m, shape.n, shape.t, /*k=*/0,
                kDenseOccupancy};
  Stripe& stripe = stripe_for(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (const SweepPtr* hit = stripe.sweeps.find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *hit;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void CostCache::insert_sweep(std::uint64_t fingerprint,
                             const gemm::GemmShape& shape, SweepPtr sweep) {
  const Key key{fingerprint, shape.m, shape.n, shape.t, /*k=*/0,
                kDenseOccupancy};
  Stripe& stripe = stripe_for(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.sweeps.insert(key, std::move(sweep), stripe_capacity_);
}

std::int64_t CostCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

std::int64_t CostCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

std::int64_t CostCache::size() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < kStripes; ++i) {
    Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += static_cast<std::int64_t>(stripe.estimates.size() +
                                       stripe.sweeps.size());
  }
  return total;
}

std::int64_t CostCache::capacity() const {
  return static_cast<std::int64_t>(stripe_capacity_ * kStripes);
}

void CostCache::clear() {
  for (std::size_t i = 0; i < kStripes; ++i) {
    Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.estimates.clear();
    stripe.sweeps.clear();
  }
}

}  // namespace af::engine
