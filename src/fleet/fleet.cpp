#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <utility>

#include "util/status.h"

namespace af::fleet {
namespace {

using serve::Clock;

[[noreturn]] void throw_code(ErrorCode code, const std::string& message) {
  throw Error(message, code);
}

double ms_until(Clock::time_point when, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(when - now).count();
}

Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

std::string to_string(ServerHealth health) {
  switch (health) {
    case ServerHealth::kHealthy:
      return "healthy";
    case ServerHealth::kUnhealthy:
      return "unhealthy";
    case ServerHealth::kDraining:
      return "draining";
    case ServerHealth::kDead:
      return "dead";
  }
  return "unknown";
}

// One submission's fleet-side state.  Owns operand copies so any server
// can serve it at any time; `done` is the exactly-once resolution.
template <typename Result>
struct Fleet::Ticket {
  static constexpr bool kGemm = std::is_same_v<Result, serve::GemmResult>;
  std::string tenant;
  gemm::Mat32 a;                            // GEMM operands
  std::shared_ptr<const gemm::Mat32> b;
  std::shared_ptr<const nn::Model> model;   // inference payload
  serve::SubmitOptions submit;  // deadline_ms recomputed per attempt
  Clock::time_point enqueue;
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<int> failovers{0};
  std::atomic<bool> hedged{false};  // the one hedge was claimed (GEMM only)
  std::atomic<int> server{-1};      // latest placement; a hedge avoids it
  serve::Completion<Result> done;
};

struct Fleet::Node {
  int index = -1;
  // Replaced wholesale by restart_server; submit paths copy the
  // shared_ptr under `mutex` and call the server unlocked.
  std::shared_ptr<serve::Server> server;
  ServerHealth health = ServerHealth::kHealthy;
  int fail_streak = 0;
  int ok_streak = 0;
  std::int64_t placed = 0;
  std::int64_t probe_failures = 0;
  // Attempts submitted here whose continuation has not run yet — what
  // drain_server waits on; `idle` is notified when it reaches zero.
  std::int64_t in_flight = 0;
  mutable std::mutex mutex;  // guards everything above (except index)
  std::condition_variable idle;
};

Fleet::Fleet(std::vector<FleetServerSpec> specs, FleetOptions options)
    : specs_(std::move(specs)), options_(std::move(options)) {
  AF_CHECK(!specs_.empty(), "a fleet needs at least one server spec");
  AF_CHECK(options_.max_failovers >= 0,
           "max_failovers must be non-negative, got " << options_.max_failovers);
  AF_CHECK(options_.hedge_ms >= 0.0,
           "hedge_ms must be non-negative, got " << options_.hedge_ms);
  AF_CHECK(options_.probe_timeout_ms > 0.0,
           "probe_timeout_ms must be positive, got " << options_.probe_timeout_ms);
  AF_CHECK(options_.unhealthy_after >= 1 && options_.healthy_after >= 1,
           "probe streak thresholds must be at least 1");
  AF_CHECK(options_.block_retry_ms > 0.0,
           "block_retry_ms must be positive, got " << options_.block_retry_ms);
  overload_policy_ = serve::parse_overload_policy(options_.overload_policy);
  router_ = make_router(options_.router, options_.router_options);

  nodes_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    auto node = std::make_unique<Node>();
    node->index = static_cast<int>(i);
    node->server =
        std::make_shared<serve::Server>(specs_[i].config, specs_[i].options);
    nodes_.push_back(std::move(node));
  }
  if (options_.probe_interval_ms > 0.0 || options_.hedge_ms > 0.0) {
    background_ = std::thread([this] { background_loop(); });
  }
}

Fleet::~Fleet() { shutdown(); }

void Fleet::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shut_down_.exchange(true)) return;
  admission_closed_.store(true);
  {
    std::lock_guard<std::mutex> lock(background_mutex_);
  }
  background_cv_.notify_all();
  if (background_.joinable()) background_.join();
  // Graceful: every server drains and SERVES its queue, and joining its
  // workers waits out the continuations that resolve the outstanding
  // tickets — with values, not failovers (admission is closed, so a
  // failover resolves its ticket with the attempt's error instead).
  for (auto& node : nodes_) {
    std::shared_ptr<serve::Server> server;
    {
      std::lock_guard<std::mutex> lock(node->mutex);
      server = node->server;
    }
    if (server) server->shutdown();
  }
}

ServerHealth Fleet::health(int server) const {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  std::lock_guard<std::mutex> lock(nodes_[server]->mutex);
  return nodes_[server]->health;
}

// --- placement -------------------------------------------------------------

std::vector<ServerLoad> Fleet::snapshot_loads(int exclude) const {
  std::vector<ServerLoad> loads(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    std::lock_guard<std::mutex> lock(node.mutex);
    loads[i].server = static_cast<int>(i);
    const bool routable = node.health == ServerHealth::kHealthy &&
                          node.server != nullptr &&
                          static_cast<int>(i) != exclude &&
                          !admission_closed_.load();
    loads[i].routable = routable;
    loads[i].backlog_macs = routable ? node.server->backlog_cost_macs() : 0;
  }
  return loads;
}

template <typename Result>
void Fleet::submit_to(int server, const TicketPtr<Result>& ticket,
                      PlaceKind kind) {
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> srv;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    if (node.health != ServerHealth::kHealthy || !node.server) {
      throw_code(ErrorCode::kUnavailable,
                 (detail::MessageBuilder() << "server " << server << " is "
                                           << to_string(node.health)).str());
    }
    srv = node.server;
    node.placed += 1;
    node.in_flight += 1;
  }
  // Everything is counted BEFORE the submit: the continuation may resolve
  // the ticket on a worker before submit returns, and a stats() reader
  // woken by that must already see this attempt.  A refused submit rolls
  // the counts back.
  std::atomic<std::int64_t>* attempts =
      kind == PlaceKind::kFailover ? &failovers_
      : kind == PlaceKind::kHedge  ? &hedges_
                                   : nullptr;
  if (attempts != nullptr) attempts->fetch_add(1, std::memory_order_relaxed);
  try {
    serve::SubmitOptions submit = ticket->submit;
    // Per-server admission never blocks: a full queue throws kOverloaded
    // and placement moves on; the fleet-level "block" policy owns the
    // waiting.
    submit.admission_timeout_ms = 0.0;
    if (ticket->deadline != Clock::time_point::max()) {
      const double remaining = ms_until(ticket->deadline, Clock::now());
      if (remaining <= 0.0) {
        throw_code(ErrorCode::kDeadlineExceeded,
                   "deadline exhausted before placement");
      }
      submit.deadline_ms = remaining;
    }
    ticket->server.store(server, std::memory_order_relaxed);
    auto then = [this, ticket, server, hedge = kind == PlaceKind::kHedge](
                    serve::Outcome<Result> outcome) {
      on_settled(ticket, server, hedge, std::move(outcome));
    };
    if constexpr (Ticket<Result>::kGemm) {
      srv->submit_gemm(ticket->tenant, ticket->a, ticket->b, submit,
                       std::move(then));
    } else {
      srv->submit_inference(ticket->tenant, ticket->model, submit,
                            std::move(then));
    }
  } catch (...) {
    if (attempts != nullptr) {
      attempts->fetch_sub(1, std::memory_order_relaxed);
    }
    end_attempt(node, /*unplace=*/true);
    throw;
  }
}

void Fleet::end_attempt(Node& node, bool unplace) {
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    if (unplace) node.placed -= 1;
    idle = --node.in_flight == 0;
  }
  if (idle) node.idle.notify_all();
}

namespace {

// Candidate order behind the router's first choice: every other routable
// slot, least-loaded first — the spill sequence when servers reject.
std::vector<int> spill_candidates(const std::vector<ServerLoad>& loads,
                                  int first) {
  std::vector<int> rest;
  for (const ServerLoad& load : loads) {
    if (load.routable && load.server != first) rest.push_back(load.server);
  }
  std::sort(rest.begin(), rest.end(), [&loads](int a, int b) {
    if (loads[a].backlog_macs != loads[b].backlog_macs) {
      return loads[a].backlog_macs < loads[b].backlog_macs;
    }
    return a < b;
  });
  return rest;
}

}  // namespace

template <typename Result>
int Fleet::try_place(const TicketPtr<Result>& ticket, int exclude,
                     PlaceKind kind, bool* overloaded_everywhere) {
  *overloaded_everywhere = false;
  const std::vector<ServerLoad> loads = snapshot_loads(exclude);
  int first = -1;
  {
    std::lock_guard<std::mutex> lock(router_mutex_);
    first = router_->place(affinity_key(ticket->tenant), loads);
  }
  if (first < 0) return -1;
  std::vector<int> candidates{first};
  for (const int slot : spill_candidates(loads, first)) {
    candidates.push_back(slot);
  }
  int overload_rejections = 0;
  int other_failures = 0;
  for (const int slot : candidates) {
    try {
      submit_to(slot, ticket, kind);
      if (overload_rejections > 0) {
        rerouted_overload_.fetch_add(1, std::memory_order_relaxed);
      }
      return slot;
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kDeadlineExceeded) throw;
      if (e.code() == ErrorCode::kOverloaded) {
        ++overload_rejections;
      } else {
        // kUnavailable / kShutdown race: the slot died between the load
        // snapshot and the submit — simply not a candidate any more.
        ++other_failures;
      }
    }
  }
  *overloaded_everywhere = overload_rejections > 0 && other_failures == 0;
  return -1;
}

// --- client entry points ---------------------------------------------------

std::future<serve::GemmResult> Fleet::submit_gemm(
    const std::string& tenant, gemm::Mat32 a,
    std::shared_ptr<const gemm::Mat32> b, const serve::SubmitOptions& submit) {
  AF_CHECK(b != nullptr, "submit_gemm needs a weight matrix");
  if (admission_closed_.load()) {
    throw_code(ErrorCode::kShutdown, "submit_gemm on a shut-down fleet");
  }
  auto ticket = std::make_shared<Ticket<serve::GemmResult>>();
  ticket->tenant = tenant;
  ticket->a = std::move(a);
  ticket->b = std::move(b);
  ticket->submit = submit;
  return place_new(ticket);
}

std::future<serve::InferenceResult> Fleet::submit_inference(
    const std::string& tenant, std::shared_ptr<const nn::Model> model,
    const serve::SubmitOptions& submit) {
  AF_CHECK(model != nullptr, "submit_inference needs a model");
  if (admission_closed_.load()) {
    throw_code(ErrorCode::kShutdown, "submit_inference on a shut-down fleet");
  }
  auto ticket = std::make_shared<Ticket<serve::InferenceResult>>();
  ticket->tenant = tenant;
  ticket->model = std::move(model);
  ticket->submit = submit;
  return place_new(ticket);
}

template <typename Result>
std::future<Result> Fleet::place_new(const TicketPtr<Result>& ticket) {
  ticket->enqueue = Clock::now();
  if (ticket->submit.deadline_ms > 0.0) {
    ticket->deadline = ticket->enqueue + from_ms(ticket->submit.deadline_ms);
  }
  std::future<Result> future = ticket->done.get_future();

  submitted_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    tenant_books_[ticket->tenant].submitted += 1;
  }
  const Clock::time_point admission_deadline =
      ticket->submit.admission_timeout_ms >= 0.0
          ? ticket->enqueue + from_ms(ticket->submit.admission_timeout_ms)
          : Clock::time_point::max();
  bool degraded_already = false;
  try {
    while (true) {
      bool overloaded_everywhere = false;
      if (try_place(ticket, /*exclude=*/-1, PlaceKind::kInitial,
                    &overloaded_everywhere) >= 0) {
        if constexpr (Ticket<Result>::kGemm) {
          if (options_.hedge_ms > 0.0) {
            std::lock_guard<std::mutex> lock(hedge_mutex_);
            hedge_watch_.push_back(ticket);
          }
        }
        return future;
      }
      if (!overloaded_everywhere) {
        throw_code(ErrorCode::kUnavailable, "no routable server in the fleet");
      }
      if (overload_policy_ == serve::OverloadPolicy::kReject) {
        throw_code(ErrorCode::kOverloaded,
                   "every routable server rejected the request");
      }
      if constexpr (Ticket<Result>::kGemm) {
        if (overload_policy_ == serve::OverloadPolicy::kDegrade) {
          // Shed fidelity, not the request: one cost-only retry.
          if (degraded_already) {
            throw_code(ErrorCode::kOverloaded,
                       "every routable server rejected, even cost-only");
          }
          ticket->submit.want_output = false;
          ticket->submit.backend.clear();
          degraded_already = true;
          degraded_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      // "block" — and inference's "degrade", which has no cost-only
      // fallback and so composes as block.
      if (Clock::now() >= admission_deadline) {
        throw_code(ErrorCode::kOverloaded,
                   "fleet admission timed out under overload");
      }
      if (ticket->deadline != Clock::time_point::max() &&
          Clock::now() >= ticket->deadline) {
        throw_code(ErrorCode::kDeadlineExceeded,
                   "deadline exhausted while blocked on admission");
      }
      if (admission_closed_.load()) {
        throw_code(ErrorCode::kShutdown,
                   "fleet shut down while blocked on admission");
      }
      std::this_thread::sleep_for(from_ms(options_.block_retry_ms));
    }
  } catch (...) {
    // Nothing was admitted: unwind the books so a thrown submit is not a
    // permanently dangling "submitted" entry.
    submitted_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> lock(tenants_mutex_);
      tenant_books_[ticket->tenant].submitted -= 1;
    }
    throw;
  }
}

// --- settlement: resolve or fail over --------------------------------------

bool Fleet::failover_safe(const std::exception_ptr& eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const Error& e) {
    // The three codes that certify NO result was delivered to anyone:
    // kUnavailable (killed/drained before running — never executed),
    // kShutdown (admission race with a dying server), kEngineFault (the
    // server's own retries exhausted; the run threw, produced nothing).
    return e.code() == ErrorCode::kUnavailable ||
           e.code() == ErrorCode::kShutdown ||
           e.code() == ErrorCode::kEngineFault;
  } catch (...) {
    return false;
  }
}

template <typename Result>
void Fleet::on_settled(const TicketPtr<Result>& ticket, int server,
                       bool hedge, serve::Outcome<Result> outcome) {
  end_attempt(*nodes_[server], /*unplace=*/false);
  if (!outcome.ok() && failover_safe(outcome.error) &&
      !ticket->done.settled()) {
    failover(ticket, server, std::move(outcome.error));
  } else {
    resolve(ticket, std::move(outcome), hedge);
  }
}

template <typename Result>
void Fleet::failover(const TicketPtr<Result>& ticket, int from,
                     std::exception_ptr error) {
  // Runs on the thread that settled the failed attempt.  Each pass burns
  // one unit of the ticket's failover budget, so the overload backoff
  // below sleeps that thread for at most max_failovers x block_retry_ms.
  while (true) {
    if (ticket->done.settled()) return;  // a hedge landed first
    if (admission_closed_.load()) break;
    if (ticket->deadline != Clock::time_point::max() &&
        Clock::now() >= ticket->deadline) {
      error = std::make_exception_ptr(Error(
          "deadline exhausted during failover", ErrorCode::kDeadlineExceeded));
      break;
    }
    if (ticket->failovers.fetch_add(1) >= options_.max_failovers) break;
    try {
      bool overloaded_everywhere = false;
      if (try_place(ticket, from, PlaceKind::kFailover,
                    &overloaded_everywhere) >= 0) {
        return;  // re-admitted; the new attempt's continuation owns it
      }
      if (!overloaded_everywhere) break;  // no survivor to take it
      // All survivors overloaded: back off briefly and try again on the
      // remaining failover budget rather than dropping a live request.
      std::this_thread::sleep_for(from_ms(options_.block_retry_ms));
    } catch (const Error&) {
      break;  // deadline tripped inside placement
    }
  }
  resolve(ticket, serve::Outcome<Result>{{}, std::move(error)},
          /*from_hedge=*/false);
}

void Fleet::book_resolution(const std::string& tenant, bool ok) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantBook& book = tenant_books_[tenant];
  if (ok) {
    book.ok += 1;
  } else {
    book.err += 1;
  }
}

template <typename Result>
void Fleet::resolve(const TicketPtr<Result>& ticket,
                    serve::Outcome<Result> outcome, bool from_hedge) {
  const bool ok = outcome.ok();
  auto book = [&] {
    if (ok && from_hedge) hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    (ok ? resolved_ok_ : resolved_err_)
        .fetch_add(1, std::memory_order_relaxed);
    book_resolution(ticket->tenant, ok);
  };
  const bool won =
      ok ? ticket->done.set_value(std::move(outcome.value), book)
         : ticket->done.set_error(std::move(outcome.error), book);
  if (won) return;
  if (!ticket->hedged.load()) {
    // One attempt in flight at a time without a hedge: a second settle
    // is a lifecycle bug, not a race.
    resolve_double_sets_.fetch_add(1, std::memory_order_relaxed);
  } else if (ok) {
    // The other half of a hedged pair got here first: this result is the
    // cancelled loser.  (A losing error is simply dropped.)
    duplicate_results_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- the background thread: probes and hedges ------------------------------

void Fleet::background_loop() {
  const bool probing = options_.probe_interval_ms > 0.0;
  const bool hedging = options_.hedge_ms > 0.0;
  // Hedge scans run four times per hedge_ms, so a hedge fires at most a
  // quarter hedge_ms late — plus a probe round in progress, which is
  // bounded by probe_timeout_ms (see probe_round).
  Clock::duration tick = from_ms(hedging ? options_.hedge_ms / 4.0
                                         : options_.probe_interval_ms);
  if (probing) tick = std::min(tick, from_ms(options_.probe_interval_ms));
  Clock::time_point next_probe =
      Clock::now() + from_ms(options_.probe_interval_ms);
  std::unique_lock<std::mutex> lock(background_mutex_);
  while (!background_cv_.wait_for(
      lock, tick, [this] { return admission_closed_.load(); })) {
    lock.unlock();
    if (hedging) scan_hedges();
    if (probing && Clock::now() >= next_probe) {
      probe_round();
      next_probe = Clock::now() + from_ms(options_.probe_interval_ms);
    }
    lock.lock();
  }
}

void Fleet::scan_hedges() {
  const Clock::time_point now = Clock::now();
  const Clock::duration hedge_after = from_ms(options_.hedge_ms);
  std::vector<TicketPtr<serve::GemmResult>> due;
  {
    // Claim under the lock, submit outside it.
    std::lock_guard<std::mutex> lock(hedge_mutex_);
    std::erase_if(hedge_watch_, [&](const TicketPtr<serve::GemmResult>& t) {
      if (t->done.settled()) return true;
      const bool slow = now - t->enqueue >= hedge_after;
      const bool near_deadline = t->deadline != Clock::time_point::max() &&
                                 t->deadline - now <= hedge_after;
      if (!slow && !near_deadline) return false;
      t->hedged.store(true);
      due.push_back(t);
      return true;
    });
  }
  for (const TicketPtr<serve::GemmResult>& ticket : due) {
    if (ticket->done.settled() || admission_closed_.load()) continue;
    try {
      bool overloaded_everywhere = false;
      try_place(ticket, ticket->server.load(std::memory_order_relaxed),
                PlaceKind::kHedge, &overloaded_everywhere);
      // Placement failed: the original attempt is still in flight, so the
      // ticket is NOT at risk — just unhedged (one shot per ticket keeps
      // hedge load bounded).
    } catch (const Error&) {
      // Deadline tripped during placement; the original attempt's own
      // deadline handling delivers the verdict.
    }
  }
}

void Fleet::probe_round() {
  // The probe payload: a tiny cost-only GEMM any backend answers in
  // microseconds — proves admission AND a worker dispatch round-trip.
  const auto probe_b = std::make_shared<const gemm::Mat32>(2, 2);
  const gemm::Mat32 probe_a(1, 2);
  serve::SubmitOptions submit;
  submit.want_output = false;
  submit.deadline_ms = options_.probe_timeout_ms;
  submit.admission_timeout_ms = 0.0;
  // Every probe goes out before any is awaited, and all share one
  // timeout: a round lasts at most probe_timeout_ms however many servers
  // stall.  A future we time out on is simply abandoned — the server
  // resolves it eventually (unpause / quiesce) and nobody is waiting.
  std::vector<std::pair<Node*, std::future<serve::GemmResult>>> probes;
  for (auto& node_ptr : nodes_) {
    Node& node = *node_ptr;
    std::shared_ptr<serve::Server> server;
    {
      std::lock_guard<std::mutex> lock(node.mutex);
      if (node.health == ServerHealth::kDead ||
          node.health == ServerHealth::kDraining || !node.server) {
        continue;  // explicit lifecycle states are not probe territory
      }
      server = node.server;
    }
    probes_sent_.fetch_add(1, std::memory_order_relaxed);
    std::future<serve::GemmResult> future;
    try {
      future = server->submit_gemm("__fleet_probe__", probe_a, probe_b, submit);
    } catch (...) {
      // Refused at admission: an invalid future records a failure below.
    }
    probes.emplace_back(&node, std::move(future));
  }
  const Clock::time_point deadline =
      Clock::now() + from_ms(options_.probe_timeout_ms);
  for (auto& [node_ptr, future] : probes) {
    Node& node = *node_ptr;
    bool ok = false;
    try {
      if (future.valid() &&
          future.wait_until(deadline) == std::future_status::ready) {
        future.get();  // throws on kDeadlineExceeded etc.
        ok = true;
      }
    } catch (...) {
      ok = false;
    }
    bool flipped_down = false;
    bool flipped_up = false;
    {
      std::lock_guard<std::mutex> lock(node.mutex);
      if (node.health == ServerHealth::kDead ||
          node.health == ServerHealth::kDraining) {
        continue;  // lifecycle moved on while we probed
      }
      if (ok) {
        node.ok_streak += 1;
        node.fail_streak = 0;
        if (node.health == ServerHealth::kUnhealthy &&
            node.ok_streak >= options_.healthy_after) {
          node.health = ServerHealth::kHealthy;
          flipped_up = true;
        }
      } else {
        node.fail_streak += 1;
        node.ok_streak = 0;
        node.probe_failures += 1;
        if (node.health == ServerHealth::kHealthy &&
            node.fail_streak >= options_.unhealthy_after) {
          node.health = ServerHealth::kUnhealthy;
          flipped_down = true;
        }
      }
    }
    if (!ok) probe_failures_.fetch_add(1, std::memory_order_relaxed);
    if (flipped_down) {
      unhealthy_transitions_.fetch_add(1, std::memory_order_relaxed);
    }
    if (flipped_up) recoveries_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- failpoints & lifecycle ------------------------------------------------

void Fleet::kill_server(int server) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> victim;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    if (node.health == ServerHealth::kDead) return;
    node.health = ServerHealth::kDead;
    victim = node.server;  // kept for post-mortem stats(); never routed to
  }
  // Quiesce OUTSIDE the node lock: it settles the stranded requests on
  // this thread, and their continuations take node locks to fail over.
  if (victim) victim->quiesce();
}

void Fleet::stall_server(int server, bool stalled) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> srv;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    srv = node.server;
  }
  if (srv) srv->pause_serving(stalled);
}

void Fleet::drain_server(int server, double flush_timeout_ms) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  AF_CHECK(flush_timeout_ms >= 0.0,
           "flush_timeout_ms must be non-negative, got " << flush_timeout_ms);
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> victim;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    if (node.health == ServerHealth::kDead) return;
    node.health = ServerHealth::kDraining;  // no new placements land here
    victim = node.server;
  }
  // Flush: the server keeps serving, so its in-flight attempts settle
  // naturally; give them the budget before quiescing the rest.
  {
    std::unique_lock<std::mutex> lock(node.mutex);
    node.idle.wait_for(lock, from_ms(flush_timeout_ms),
                       [&node] { return node.in_flight == 0; });
  }
  // Whatever is still queued fails kUnavailable and fails over — the
  // no-loss half of a rolling restart.
  if (victim) victim->quiesce();
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    node.health = ServerHealth::kDead;
  }
}

void Fleet::restart_server(int server) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  Node& node = *nodes_[server];
  std::lock_guard<std::mutex> lock(node.mutex);
  AF_CHECK(node.health == ServerHealth::kDead,
           "restart_server(" << server << ") on a " << to_string(node.health)
                             << " server; kill or drain it first");
  // The old server's requests were all settled by quiesce, so dropping
  // the last shared_ptr here destroys it safely.
  node.server = std::make_shared<serve::Server>(
      specs_[static_cast<std::size_t>(server)].config,
      specs_[static_cast<std::size_t>(server)].options);
  node.fail_streak = 0;
  node.ok_streak = 0;
  node.health = ServerHealth::kHealthy;
}

// --- stats -----------------------------------------------------------------

FleetStats Fleet::stats() const {
  FleetStats out;
  out.router = router_->name();
  out.submitted = submitted_.load();
  out.resolved_ok = resolved_ok_.load();
  out.resolved_err = resolved_err_.load();
  out.failovers = failovers_.load();
  out.hedges = hedges_.load();
  out.hedge_wins = hedge_wins_.load();
  out.duplicate_results = duplicate_results_.load();
  out.rerouted_overload = rerouted_overload_.load();
  out.degraded = degraded_.load();
  out.probes_sent = probes_sent_.load();
  out.probe_failures = probe_failures_.load();
  out.unhealthy_transitions = unhealthy_transitions_.load();
  out.recoveries = recoveries_.load();
  out.resolve_double_sets = resolve_double_sets_.load();
  for (const auto& node_ptr : nodes_) {
    Node& node = *node_ptr;
    FleetServerSummary summary;
    std::shared_ptr<serve::Server> server;
    {
      std::lock_guard<std::mutex> lock(node.mutex);
      summary.server = node.index;
      summary.health = node.health;
      summary.placed = node.placed;
      summary.probe_failures = node.probe_failures;
      server = node.server;
    }
    if (server) summary.stats = server->stats();
    out.servers.push_back(std::move(summary));
  }
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    out.tenants = tenant_books_;
  }
  return out;
}

}  // namespace af::fleet
