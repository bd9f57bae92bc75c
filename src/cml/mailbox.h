#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <type_traits>

#include "cont/cont.h"
#include "gc/roots.h"
#include "mp/platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

// An asynchronous buffered channel (CML's mailbox): send enqueues and
// returns immediately — it never parks the sender waiting for a receiver —
// while recv blocks (the thread, never the proc) until a message is
// available.  Messages from one sender are received in the order they were
// sent; messages from different senders interleave in enqueue order.
//
// This is the complement of cml::Channel's rendezvous discipline, for the
// cases where the *sender* must not inherit the receiver's pace: a shard
// owner delivering replies to connection writers (src/kv) must never be
// parked by one stalled connection, or that connection head-of-line blocks
// the shard for everyone else.  The cost of the decoupling is that the
// buffer is unbounded — a mailbox provides no backpressure, so the
// producer-side protocol must bound what can be outstanding (kv bounds it
// by the rendezvous on the *request* channel: a connection can only owe as
// many replies as requests it managed to submit).
//
// Synthesized from Mutex + CondVar per section 3.3's recipe, so waiting
// receivers park through the scheduler and cost nothing.  Buffered
// messages sit in PayloadSlots, so a GC-traced payload (gc::Value) stays
// rooted, and current across collections, while it waits.  Not selective:
// a mailbox is not an Event and cannot appear in a choose(); use a
// rendezvous Channel when selectivity matters.

namespace mp::cml {

namespace detail {

// Holds one word-sized T.  A GC-traced T lives in a GlobalRoot so
// collections keep it current while it is parked inside a C++ structure;
// any other T is just its raw word.
template <typename T>
class PayloadSlot {
  static constexpr bool kTraced = cont::is_gc_traced<T>::value;

 public:
  void set([[maybe_unused]] Platform& p, const T& v) {
    const std::uint64_t raw = cont::detail::encode_slot(v);
    if constexpr (kTraced) {
      word_ = gc::GlobalRoot(p.heap(), gc::Value::from_raw_bits(raw));
    } else {
      word_ = raw;
    }
  }
  T get() const {
    if constexpr (kTraced) {
      return cont::detail::decode_slot<T>(word_.get().raw_bits());
    } else {
      return cont::detail::decode_slot<T>(word_);
    }
  }

 private:
  std::conditional_t<kTraced, gc::GlobalRoot, std::uint64_t> word_{};
};

}  // namespace detail

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(threads::Scheduler& sched)
      : sched_(sched), mu_(sched), cv_(sched) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Enqueue `v` and return.  Never blocks beyond the internal mutex.
  void send(const T& v) {
    mu_.lock();
    q_.emplace_back().set(sched_.platform(), v);
    cv_.signal();
    mu_.unlock();
  }

  // Dequeue the oldest message, parking this thread until one exists.
  T recv() {
    mu_.lock();
    while (q_.empty()) cv_.wait(mu_);
    return pop_and_unlock();
  }

  // Dequeue without blocking: nullopt when the mailbox is empty.
  std::optional<T> try_recv() {
    mu_.lock();
    if (q_.empty()) {
      mu_.unlock();
      return std::nullopt;
    }
    return pop_and_unlock();
  }

  // Momentary size (racy under concurrent senders; for tests and metrics).
  std::size_t size() {
    mu_.lock();
    const std::size_t n = q_.size();
    mu_.unlock();
    return n;
  }

 private:
  // The slot leaves the queue under the mutex but is read only after the
  // unlock, so a traced payload stays rooted until the value is returned.
  T pop_and_unlock() {
    detail::PayloadSlot<T> slot = std::move(q_.front());
    q_.pop_front();
    mu_.unlock();
    return slot.get();
  }

  threads::Scheduler& sched_;
  threads::Mutex mu_;
  threads::CondVar cv_;
  std::deque<detail::PayloadSlot<T>> q_;
};

}  // namespace mp::cml
