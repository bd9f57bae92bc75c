#pragma once

#include <exception>
#include <memory>
#include <vector>

#include "arch/tas.h"
#include "cml/sync_cells.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

// ML Threads: the "Modula-3 style thread package" the paper builds on MP
// (section 1; Cooper & Morrisett, "Adding Threads to Standard ML").  A
// typed veneer over the Figure 3 scheduler:
//
//   * fork_thread returns a first-class handle; join waits for the thread
//     and yields its result (plumbed through an IVar).
//   * Mutex / CondVar with Modula-3 semantics live in threads/sync.h.
//   * Alerts: a polite asynchronous cancellation request.  `alert` marks
//     the target; the target observes it at `test_alert` / `alert_pause`
//     (which raise Alerted) — the "timer-driven polling in the target
//     proc" that section 3.4 prescribes in place of a proc-interruption
//     facility.  An alerted exit propagates out of join as Alerted.

namespace mp::threads {

// Raised in the target thread when it polls a pending alert, and re-raised
// from join when the thread exited that way.
class Alerted : public std::exception {
 public:
  const char* what() const noexcept override { return "thread alerted"; }
};

namespace detail {

struct ThreadRec {
  explicit ThreadRec(Scheduler& s) : done(s) {}
  cml::IVar<std::uint64_t> done;  // raw-encoded result, delivered at exit
  std::atomic<bool> alerted{false};
  std::atomic<bool> alert_exit{false};
  std::atomic<bool> finished{false};
};

// Maps scheduler thread ids to their records so test_alert can find the
// calling thread's record.  Guarded by a raw spin word (it sits below the
// platform and entries are touched only at fork/exit/poll), taken through
// the runtime's shared spin loop (arch/tas.h).
class AlertRegistry {
 public:
  static AlertRegistry& instance() {
    static AlertRegistry reg;
    return reg;
  }

  void set(int tid, ThreadRec* rec) {
    arch::TasGuard guard(word_);
    entries_.emplace_back(tid, rec);
  }
  void clear(int tid) {
    arch::TasGuard guard(word_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == tid) {
        entries_.erase(it);
        return;
      }
    }
  }
  ThreadRec* find(int tid) {
    arch::TasGuard guard(word_);
    for (const auto& [id, rec] : entries_) {
      if (id == tid) return rec;
    }
    return nullptr;
  }

 private:
  AlertRegistry() = default;
  arch::TasWord word_;
  std::vector<std::pair<int, ThreadRec*>> entries_;
};

}  // namespace detail

// A first-class handle to a forked thread producing a T (T must fit a
// machine word, like continuation payloads; use cont::Unit for
// effects-only threads).  Handles are copyable; join may be called by any
// number of threads.
template <typename T>
class Thread {
 public:
  Thread() = default;

  bool valid() const { return rec_ != nullptr; }

  // Wait for the thread to finish and return its result; re-raises Alerted
  // if the thread exited through an alert.
  T join() {
    MPNJ_CHECK(rec_ != nullptr, "join of an invalid thread handle");
    const std::uint64_t raw = rec_->done.get();
    if (rec_->alert_exit.load(std::memory_order_acquire)) throw Alerted();
    return cont::detail::decode_slot<T>(raw);
  }

  // Request cancellation: the target observes it at its next alert poll.
  void alert() {
    MPNJ_CHECK(rec_ != nullptr, "alert of an invalid thread handle");
    rec_->alerted.store(true, std::memory_order_release);
  }

  bool finished() const {
    return rec_ != nullptr && rec_->finished.load(std::memory_order_acquire);
  }

 private:
  template <typename U, typename F>
  friend Thread<U> fork_thread(Scheduler& s, F&& body,
                               Scheduler::SpawnOpts opts);

  std::shared_ptr<detail::ThreadRec> rec_;
};

// Fork a thread computing body() -> T; returns a joinable handle.  `opts`
// (stack class, debug name) passes straight through to Scheduler::fork.
template <typename T, typename F>
Thread<T> fork_thread(Scheduler& s, F&& body, Scheduler::SpawnOpts opts = {}) {
  static_assert(std::is_invocable_r_v<T, F>,
                "fork_thread<T> body must be callable as T()");
  Thread<T> handle;
  handle.rec_ = std::make_shared<detail::ThreadRec>(s);
  auto rec = handle.rec_;
  s.fork(
      [&s, rec, body = std::forward<F>(body)]() mutable {
        detail::AlertRegistry::instance().set(s.id(), rec.get());
        std::uint64_t raw = 0;
        try {
          raw = cont::detail::encode_slot<T>(body());
        } catch (const Alerted&) {
          rec->alert_exit.store(true, std::memory_order_release);
        }
        detail::AlertRegistry::instance().clear(s.id());
        rec->finished.store(true, std::memory_order_release);
        rec->done.put(raw);  // wakes every joiner
      },
      opts);
  return handle;
}

// Raise Alerted in the calling thread if someone has alerted it.
inline void test_alert(Scheduler& s) {
  detail::ThreadRec* rec = detail::AlertRegistry::instance().find(s.id());
  if (rec != nullptr && rec->alerted.load(std::memory_order_acquire)) {
    rec->alerted.store(false, std::memory_order_release);  // consumed
    throw Alerted();
  }
}

// A yield that also polls for alerts (Modula-3's AlertPause shape).
inline void alert_pause(Scheduler& s) {
  s.yield();
  test_alert(s);
}

}  // namespace mp::threads
