#include "serve/dispatcher.h"

#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "util/status.h"

namespace af::serve {
namespace {

constexpr std::chrono::microseconds kIdleWait{500};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---- "global": the PR-4 data path, kept as the semantics oracle ------------

class GlobalDispatcher final : public Dispatcher {
 public:
  explicit GlobalDispatcher(const DispatcherOptions& options)
      : queue_(options.queue_capacity, options.drr_quantum,
               options.drr_deadline_urgent_ms,
               options.drr_deadline_weight_cap),
        max_batch_(options.max_batch),
        max_batch_bytes_(options.max_batch_bytes),
        can_scale_(options.can_scale),
        live_(options.live_shards) {
    AF_CHECK(options.live_shards >= 1 &&
                 options.live_shards <= options.max_shards,
             "live_shards must be in [1, max_shards]");
  }

  const std::string& name() const override {
    static const std::string kName = "global";
    return kName;
  }

  SubmitResult submit_for(Request& r,
                          std::chrono::microseconds timeout) override {
    switch (queue_.push_for(r, timeout)) {
      case PushResult::kAccepted:
        return SubmitResult::kAccepted;
      case PushResult::kFull:
        return SubmitResult::kWouldBlock;
      case PushResult::kClosed:
        break;
    }
    return SubmitResult::kClosed;
  }

  std::optional<Batch> next_batch(int shard) override {
    if (!can_scale_) {
      // Fixed pool: this worker can never be retired, so park fully
      // blocking in pop() — an idle server makes no timed wakeups at all
      // (the pre-dispatcher behaviour).  Expiry needs no timed wakeup
      // either: a request can only sit past its deadline while the queue is
      // non-empty, and then pop() isn't parked — the reaper inside
      // assemble_batch runs at every dispatch.
      std::optional<Request> head = queue_.pop();
      if (!head) return std::nullopt;
      return assemble_batch(std::move(*head), queue_, max_batch_,
                            max_batch_bytes_);
    }
    for (;;) {
      if (shard >= live_.load(std::memory_order_acquire)) return std::nullopt;
      if (std::optional<Request> head = queue_.try_pop()) {
        return assemble_batch(std::move(*head), queue_, max_batch_,
                              max_batch_bytes_);
      }
      // kClosed is final (closed AND drained; no push succeeds after
      // close), so the tri-state wait doubles as the shutdown check — no
      // separate closed()/size() round-trip under the lock.
      if (queue_.wait_nonempty_for(kIdleWait) == WaitStatus::kClosed) {
        return std::nullopt;
      }
    }
  }

  void set_live_shards(int live) override {
    AF_CHECK(can_scale_,
             "set_live_shards on a fixed-pool dispatcher (can_scale=false): "
             "its workers block in pop() and would never observe the change");
    AF_CHECK(live >= 1, "at least one shard must stay live");
    live_.store(live, std::memory_order_release);
    // Retiring workers wake within one idle-wait tick; nothing to drain —
    // the single queue serves whoever remains.
  }

  int live_shards() const override {
    return live_.load(std::memory_order_acquire);
  }

  void close() override { queue_.close(); }

  std::size_t depth() const override { return queue_.size(); }

  std::size_t approx_depth() const override { return queue_.approx_size(); }

  std::int64_t approx_cost() const override { return queue_.approx_cost(); }

  std::int64_t approx_bytes() const override { return queue_.approx_bytes(); }

  std::vector<Request> drain_remaining() override {
    AF_CHECK(queue_.closed(), "drain_remaining before close");
    return queue_.drain_all();
  }

 private:
  RequestQueue queue_;
  const int max_batch_;
  const std::int64_t max_batch_bytes_;
  const bool can_scale_;
  std::atomic<int> live_;
};

// ---- "stealing": per-shard deques + rand-victim round stealing -------------

class StealingDispatcher final : public Dispatcher {
 public:
  explicit StealingDispatcher(const DispatcherOptions& options)
      : max_batch_(options.max_batch),
        max_batch_bytes_(options.max_batch_bytes),
        live_(options.live_shards),
        rng_state_(options.steal_seed) {
    AF_CHECK(options.max_shards >= 1, "stealing dispatcher needs a slot");
    AF_CHECK(options.live_shards >= 1 &&
                 options.live_shards <= options.max_shards,
             "live_shards must be in [1, max_shards]");
    queues_.reserve(static_cast<std::size_t>(options.max_shards));
    for (int i = 0; i < options.max_shards; ++i) {
      queues_.push_back(std::make_unique<RequestQueue>(
          options.queue_capacity, options.drr_quantum,
          options.drr_deadline_urgent_ms, options.drr_deadline_weight_cap));
    }
    probe_seq_.resize(static_cast<std::size_t>(options.max_shards));
    banned_ = std::make_unique<std::atomic<bool>[]>(
        static_cast<std::size_t>(options.max_shards));
    modes_ = std::make_unique<std::atomic<int>[]>(
        static_cast<std::size_t>(options.max_shards));
    for (int i = 0; i < options.max_shards; ++i) {
      banned_[i].store(false);
      modes_[i].store(0);  // 0 = mode not yet published
    }
  }

  const std::string& name() const override {
    static const std::string kName = "stealing";
    return kName;
  }

  SubmitResult submit_for(Request& r,
                          std::chrono::microseconds timeout) override {
    const int home = route(r);
    // No dispatcher-level wakeup state: the home queue's own condvar wakes
    // exactly its parked worker (see next_batch), so a submit touches
    // nothing shared across homes — the whole point of this dispatcher.
    switch (queues_[static_cast<std::size_t>(home)]->push_for(r, timeout)) {
      case PushResult::kAccepted:
        return SubmitResult::kAccepted;
      case PushResult::kFull:
        return SubmitResult::kWouldBlock;
      case PushResult::kClosed:
        break;
    }
    return SubmitResult::kClosed;
  }

  std::optional<Batch> next_batch(int shard) override {
    for (;;) {
      const int live_now = live_.load(std::memory_order_acquire);
      if (shard >= live_now) return std::nullopt;
      // Anti-starvation sweep: a submit that raced a scale-down can land
      // in a retired deque AFTER its drain, and under sustained saturation
      // no live worker ever runs dry to steal it.  Every 64th dispatch,
      // probe the retired slots — a relaxed-load hint each, so the cost is
      // a few loads per 64 batches and the orphan's wait is bounded by ~64
      // dispatch times instead of the next load dip.
      if ((probe_seq_[static_cast<std::size_t>(shard)].value++ & 63u) == 0) {
        for (int s = live_now; s < static_cast<int>(queues_.size()); ++s) {
          if (queues_[static_cast<std::size_t>(s)]->approx_size() == 0) {
            continue;
          }
          if (std::optional<Request> head =
                  queues_[static_cast<std::size_t>(s)]->try_pop()) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            Batch batch = assemble_batch(
                std::move(*head), *queues_[static_cast<std::size_t>(s)],
                max_batch_, max_batch_bytes_);
            batch.stolen = true;
            top_up(batch, s);
            return batch;
          }
        }
      }
      // Own deque first: affinity keeps a tenant's coalescable stream here.
      if (std::optional<Request> head = queues_[shard]->try_pop()) {
        Batch batch = assemble_batch(std::move(*head), *queues_[shard],
                                     max_batch_, max_batch_bytes_);
        top_up(batch, shard);
        return batch;
      }
      // Dry: steal a whole DRR round from a random victim.  The scan
      // covers every slot — retired ones included, so a submission that
      // raced a scale-down is still served.  Two passes for pipeline-mode
      // locality: the first only takes victims whose pending round is in
      // the mode THIS shard's array is already configured in (peek_mode
      // hint), so the stolen batch skips the reconfiguration drain; the
      // second takes anyone.  Skipped entirely when the thief has not
      // published a mode yet (a fresh array drains regardless).
      const int n = static_cast<int>(queues_.size());
      const int start = static_cast<int>(
          splitmix64(rng_state_.fetch_add(1, std::memory_order_relaxed)) %
          static_cast<std::uint64_t>(n));
      const int my_mode =
          modes_[static_cast<std::size_t>(shard)].load(
              std::memory_order_relaxed);
      for (int pass = my_mode > 0 ? 0 : 1; pass < 2; ++pass) {
        for (int i = 0; i < n; ++i) {
          const int victim = (start + i) % n;
          if (victim == shard) continue;
          // Lock-free emptiness hint first: a dry victim costs a relaxed
          // load, not a mutex round-trip — idle probing must not become the
          // cross-queue contention this dispatcher exists to remove.  A
          // stale zero is recovered on the next probe or idle-wait tick.
          if (queues_[victim]->approx_size() == 0) continue;
          if (pass == 0) {
            const std::optional<int> head_mode = queues_[victim]->peek_mode();
            if (!head_mode || *head_mode != my_mode) continue;
          }
          if (std::optional<Request> head = queues_[victim]->try_pop()) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            // Riders come from the VICTIM's deque: the stolen unit is the
            // victim's whole DRR round, so fairness moves with the work.
            Batch batch = assemble_batch(std::move(*head), *queues_[victim],
                                         max_batch_, max_batch_bytes_);
            batch.stolen = true;
            top_up(batch, victim);
            return batch;
          }
        }
      }
      if (closed_.load(std::memory_order_acquire) && depth() == 0) {
        return std::nullopt;
      }
      // Park on the OWN deque's condvar: a push to this home wakes exactly
      // this worker with the request already local (the precision-wakeup
      // path the global queue's blocking pop enjoys).  The timeout is the
      // safety net that keeps stealing, retirement and close() responsive
      // when this home sees no traffic.
      queues_[shard]->wait_nonempty_for(kIdleWait);
    }
  }

  void set_live_shards(int live) override {
    // Serialized against close(): a close landing mid-drain would make the
    // re-submits below fail and silently destroy accepted requests (their
    // clients' promises with them).  Holding the control mutex, the drain
    // completes before close marks the queues — workers keep popping
    // throughout, so the blocking re-submits always make progress.
    std::lock_guard<std::mutex> control(control_mutex_);
    AF_CHECK(live >= 1 && live <= static_cast<int>(queues_.size()),
             "live shard count must be in [1, max_shards]");
    AF_CHECK(!closed_.load(), "set_live_shards after close");
    const int old = live_.exchange(live, std::memory_order_acq_rel);
    // Scale-down: drain each retired deque back into the steal pool —
    // every orphan rehashes onto the surviving live set, so nothing waits
    // behind a parked worker.  (Retiring workers parked on their own
    // deques notice shard >= live at the next idle-wait tick.)
    for (int s = live; s < old; ++s) {
      for (Request& r : queues_[static_cast<std::size_t>(s)]->drain_all()) {
        submit(std::move(r));
      }
    }
  }

  void set_banned(int shard, bool banned) override {
    // Shares the control mutex with set_live_shards/close: the drain's
    // blocking re-submits must never race a close, which would silently
    // destroy accepted requests (same reasoning as the scale-down drain).
    std::lock_guard<std::mutex> control(control_mutex_);
    AF_CHECK(shard >= 0 && shard < static_cast<int>(queues_.size()),
             "set_banned shard " << shard << " out of range");
    if (closed_.load()) return;  // the shutdown drain supersedes quarantine
    banned_[static_cast<std::size_t>(shard)].store(banned,
                                                   std::memory_order_release);
    if (!banned) return;
    // Rehome the quarantined deque's backlog — the retiring-deque drain
    // reused — so nothing waits behind a worker that stopped serving.  A
    // submission racing this drain may still land here (stale flag read);
    // the steal scan covers every slot, banned included, so it is served.
    for (Request& r :
         queues_[static_cast<std::size_t>(shard)]->drain_all()) {
      submit(std::move(r));
    }
  }

  int live_shards() const override {
    return live_.load(std::memory_order_acquire);
  }

  void close() override {
    // Waits for any in-flight scale-down drain (see set_live_shards).
    std::lock_guard<std::mutex> control(control_mutex_);
    // Queues close FIRST, closed_ flips LAST: workers exit on
    // closed_ && depth()==0, so once they can observe closed_, no push can
    // succeed anymore and anything accepted earlier is still visible in
    // some queue's depth — an accepted request can never strand behind
    // already-exited workers.  (RequestQueue::close also wakes that
    // queue's parked worker, so every worker re-checks within one sweep.)
    for (auto& q : queues_) q->close();
    closed_.store(true, std::memory_order_release);
  }

  std::size_t depth() const override {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q->size();
    return total;
  }

  std::size_t approx_depth() const override {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q->approx_size();
    return total;
  }

  std::int64_t approx_cost() const override {
    std::int64_t total = 0;
    for (const auto& q : queues_) total += q->approx_cost();
    return total;
  }

  std::int64_t approx_bytes() const override {
    std::int64_t total = 0;
    for (const auto& q : queues_) total += q->approx_bytes();
    return total;
  }

  std::vector<Request> drain_remaining() override {
    // The control mutex orders this after any in-flight scale-down or
    // quarantine drain — their blocking re-submits land in some queue
    // before we sweep, so nothing slips between the drains.
    std::lock_guard<std::mutex> control(control_mutex_);
    AF_CHECK(closed_.load(), "drain_remaining before close");
    std::vector<Request> out;
    for (auto& q : queues_) {
      for (Request& r : q->drain_all()) out.push_back(std::move(r));
    }
    return out;
  }

  void set_shard_mode(int shard, int k) override {
    AF_CHECK(shard >= 0 && shard < static_cast<int>(queues_.size()),
             "set_shard_mode shard " << shard << " out of range");
    modes_[static_cast<std::size_t>(shard)].store(k,
                                                  std::memory_order_relaxed);
  }

  std::int64_t steals() const override {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  // Affinity routing with quarantine and retry steering: the hash picks
  // the home among the live prefix; a banned (quarantined) home — or the
  // shard that just failed this request (Request::avoid_shard) — is
  // stepped over by linear probing.  When every live slot except the
  // failing one is banned, the avoid preference yields first; when every
  // live slot is banned outright, the raw home takes the push and the
  // backlog waits there (served meanwhile by the steal scan, which covers
  // every slot) until a probe recovers some shard.
  int route(const Request& r) const {
    const int live = std::max(1, live_.load(std::memory_order_acquire));
    const int home =
        static_cast<int>(affinity_hash(r) % static_cast<std::size_t>(live));
    const auto open = [&](int s) {
      return !banned_[static_cast<std::size_t>(s)].load(
          std::memory_order_acquire);
    };
    for (int i = 0; i < live; ++i) {
      const int candidate = (home + i) % live;
      if (open(candidate) && candidate != r.avoid_shard) return candidate;
    }
    for (int i = 0; i < live; ++i) {
      const int candidate = (home + i) % live;
      if (open(candidate)) return candidate;
    }
    return home;
  }
  // A round that came up short of max_batch tops up with compatible riders
  // from the other deques (skipping `swept`, already coalesced).  Riders
  // are charged to their own tenants' deficits in their own queues — the
  // same contract as the global dispatcher's cross-tenant coalescing — so
  // partitioned deques never cost batching efficiency: a short local round
  // pays a few extra probes exactly when the worker was about to go
  // stealing anyway, and deep deques (the loaded case) never probe at all.
  void top_up(Batch& batch, int swept) {
    // An expired-only batch (the popped head was overdue) has no front()
    // to match riders against — the worker just resolves the expiries.
    if (batch.requests.empty()) return;
    int budget = max_batch_ - static_cast<int>(batch.requests.size());
    if (budget <= 0) return;
    // The byte budget continues across deques: what assemble_batch already
    // admitted counts against it (same contract as the local sweep).
    std::int64_t byte_budget = std::numeric_limits<std::int64_t>::max();
    if (max_batch_bytes_ > 0) {
      byte_budget = max_batch_bytes_;
      for (const Request& r : batch.requests) byte_budget -= r.drr_bytes;
      if (byte_budget <= 0) return;
    }
    for (std::size_t i = 0; i < queues_.size() && budget > 0; ++i) {
      if (static_cast<int>(i) == swept) continue;
      if (queues_[i]->approx_size() == 0) continue;
      std::vector<Request> riders = queues_[i]->pop_all_if(
          [&](const Request& r) {
            if (!compatible(batch.requests.front(), r)) return false;
            if (r.drr_bytes > byte_budget) return false;
            byte_budget -= r.drr_bytes;
            return true;
          },
          budget);
      budget -= static_cast<int>(riders.size());
      for (Request& r : riders) batch.requests.push_back(std::move(r));
    }
  }

  const int max_batch_;
  const std::int64_t max_batch_bytes_;
  std::vector<std::unique_ptr<RequestQueue>> queues_;
  std::atomic<int> live_;
  std::atomic<bool> closed_{false};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::uint64_t> rng_state_;
  // Quarantined slots (set_banned): skipped by submit routing, still
  // covered by the steal scan.  One flag per slot, read lock-free on the
  // submit hot path.
  std::unique_ptr<std::atomic<bool>[]> banned_;
  // Pipeline mode each shard's array is currently configured in (0 until
  // first published by the executor) — the locality-aware steal scan's
  // preference signal.
  std::unique_ptr<std::atomic<int>[]> modes_;
  // Per-shard dispatch counters driving the periodic retired-slot probe —
  // one cache line each, touched only by that shard's worker, so the hot
  // path shares nothing across shards (the dispatcher's whole point).
  struct alignas(64) ProbeCounter {
    std::uint32_t value = 0;
  };
  std::vector<ProbeCounter> probe_seq_;
  // Serializes set_live_shards against close (control plane only; never
  // taken on the submit or dispatch hot paths).
  std::mutex control_mutex_;
};

struct DispatcherEntry {
  std::string description;
  std::unique_ptr<Dispatcher> (*create)(const DispatcherOptions&);
};

// Ordered (std::map) so registered_dispatchers() is stable for the CI
// drift check against the README table.
const std::map<std::string, DispatcherEntry>& registry() {
  static const std::map<std::string, DispatcherEntry> entries = {
      {"global",
       {"one shared DRR queue for every shard — serializes all submits and "
        "pops through a single lock; the semantics oracle",
        [](const DispatcherOptions& o) -> std::unique_ptr<Dispatcher> {
          return std::make_unique<GlobalDispatcher>(o);
        }}},
      {"stealing",
       {"per-shard bounded DRR deques with tenant/model submit affinity, "
        "rand-victim stealing of whole DRR rounds when a deque runs dry, and "
        "compatible-rider top-up for short batches",
        [](const DispatcherOptions& o) -> std::unique_ptr<Dispatcher> {
          return std::make_unique<StealingDispatcher>(o);
        }}},
  };
  return entries;
}

}  // namespace

Dispatcher::~Dispatcher() = default;

std::size_t affinity_hash(const Request& r) {
  if (r.kind == RequestKind::kGemm || r.kind == RequestKind::kGemmBatch) {
    // Batched cost queries share the GEMM rule: a tenant's stream lands in
    // one deque, where same-backend batch requests coalesce locally.
    return std::hash<std::string>{}(r.tenant);
  }
  const std::size_t model_hash =
      std::hash<const void*>{}(static_cast<const void*>(r.model.get()));
  return static_cast<std::size_t>(
      splitmix64(static_cast<std::uint64_t>(model_hash) +
                 0x632be59bd9b4e019ULL * (r.slice_index + 1)));
}

std::string registered_dispatcher_list() {
  std::string known;
  for (const auto& [key, entry] : registry()) {
    if (!known.empty()) known += ", ";
    known += "\"" + key + "\"";
  }
  return known;
}

std::unique_ptr<Dispatcher> make_dispatcher(const std::string& name,
                                            const DispatcherOptions& options) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    AF_CHECK(false, "unknown dispatcher \""
                        << name << "\" (registered: "
                        << registered_dispatcher_list() << ")");
  }
  AF_CHECK(options.max_batch >= 1, "max_batch must be at least 1");
  AF_CHECK(options.max_batch_bytes >= 0,
           "max_batch_bytes must be non-negative");
  return it->second.create(options);
}

std::vector<std::string> registered_dispatchers() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, entry] : registry()) names.push_back(name);
  return names;
}

std::string dispatcher_description(const std::string& name) {
  const auto it = registry().find(name);
  AF_CHECK(it != registry().end(), "unknown dispatcher \"" << name << "\"");
  return it->second.description;
}

}  // namespace af::serve
