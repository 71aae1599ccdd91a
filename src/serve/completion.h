// Settle-once completion: the serving stack's one delivery primitive.
//
// A Completion<T> carries exactly one outcome — a value or an error — from
// the thread that produces it to whoever consumes it.  The first
// set_value / set_error wins and returns true; every later call returns
// false and delivers nothing (the caller counts it: ServerStats::
// promise_double_sets, FleetStats::resolve_double_sets).  Where the
// outcome goes is chosen once, BEFORE the completion is shared with the
// settling thread:
//
//   then(fn)      a continuation, run inline on the settling thread;
//   get_future()  a std::future, the blocking client's view.
//
// The future path is a plain std::promise underneath — its one shared
// state is the only allocation, exactly as before completions existed; the
// continuation path never allocates a promise at all.  An armed completion
// destroyed unsettled never runs its continuation (the server only does
// that to submissions it refused, which throw instead).
//
// Continuations run on whatever thread settles: a shard worker, the worker
// reaping an expired deadline, a quiesce() caller.  That thread holds no
// serve or fleet mutex while they run, so a continuation may call back
// into the server that settled it (stats(), submit_*) or into another one.
// A continuation must not throw (it runs noexcept — an escape terminates)
// and must not block on work only its own thread could finish, such as a
// blocking submit into the settling server's full queue.

#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <optional>
#include <utility>

namespace af::serve {

// What a continuation receives: `value` is meaningful only when `error` is
// null.
template <typename T>
struct Outcome {
  T value{};
  std::exception_ptr error;
  bool ok() const { return error == nullptr; }
};

template <typename T>
class Completion {
 public:
  using Continuation = std::function<void(Outcome<T>)>;

  Completion() = default;
  // Moved only while unshared (a request travelling through the queue).
  Completion(Completion&& other) noexcept
      : settled_(other.settled_.load(std::memory_order_relaxed)),
        promise_(std::move(other.promise_)),
        then_(std::move(other.then_)) {}
  Completion& operator=(Completion&& other) noexcept {
    settled_.store(other.settled_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    promise_ = std::move(other.promise_);
    then_ = std::move(other.then_);
    return *this;
  }
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  // Arms the future path (std::promise::get_future semantics).
  std::future<T> get_future() { return promise_.emplace().get_future(); }

  // Arms the continuation path.
  void then(Continuation fn) { then_ = std::move(fn); }

  bool settled() const { return settled_.load(std::memory_order_acquire); }

  // The first settle wins.  `book` — the winner's accounting — runs after
  // the claim and before delivery, so anyone woken by the outcome already
  // sees it; a losing call books and delivers nothing.
  template <typename Book = void (*)()>
  bool set_value(T value, Book&& book = [] {}) {
    if (!claim()) return false;
    book();
    deliver(Outcome<T>{std::move(value), nullptr});
    return true;
  }

  template <typename Book = void (*)()>
  bool set_error(std::exception_ptr error, Book&& book = [] {}) {
    if (!claim()) return false;
    book();
    deliver(Outcome<T>{T{}, std::move(error)});
    return true;
  }

 private:
  bool claim() { return !settled_.exchange(true, std::memory_order_acq_rel); }

  // Each target is released right after use, not with the completion:
  // the settling thread keeps no share of the promise's state (nor of what
  // the continuation captured), so the client's side is what outlives it.
  void deliver(Outcome<T> outcome) noexcept {
    if (then_) {
      const Continuation then = std::move(then_);
      then(std::move(outcome));
    } else if (promise_) {
      if (outcome.ok()) {
        promise_->set_value(std::move(outcome.value));
      } else {
        promise_->set_exception(std::move(outcome.error));
      }
      promise_.reset();
    }
  }

  std::atomic<bool> settled_{false};
  std::optional<std::promise<T>> promise_;
  Continuation then_;
};

}  // namespace af::serve
