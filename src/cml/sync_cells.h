#pragma once

#include <optional>

#include "cml/mailbox.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

// Synchronizing memory cells in the CML tradition, synthesized — like the
// channels — from mutex locks, refs and continuations (paper section 3.3):
// each cell is a Mutex-guarded PayloadSlot plus CondVars to wait on.
//
//   * IVar<T>    — write-once cell; readers block until it is filled.
//   * MVar<T>    — a one-slot channel with take/put semantics.
//   * Mailbox<T> — unbounded buffered channel; send never blocks
//                  (cml/mailbox.h).

namespace mp::cml {

// Write-once synchronizing variable.
template <typename T>
class IVar {
 public:
  explicit IVar(threads::Scheduler& sched)
      : sched_(sched), mu_(sched), filled_(sched) {}
  IVar(const IVar&) = delete;
  IVar& operator=(const IVar&) = delete;

  // Fill the cell and wake every blocked reader.  Filling twice panics
  // (the ML version raises Put).
  void put(const T& v) {
    mu_.lock();
    MPNJ_CHECK(!full_, "IVar::put on a full IVar");
    slot_.set(sched_.platform(), v);
    full_ = true;
    filled_.broadcast();
    mu_.unlock();
  }

  // Read the cell, blocking until it has been filled.
  T get() {
    mu_.lock();
    while (!full_) filled_.wait(mu_);
    mu_.unlock();
    return slot_.get();  // immutable once full
  }

  bool full() {
    mu_.lock();
    const bool f = full_;
    mu_.unlock();
    return f;
  }

 private:
  threads::Scheduler& sched_;
  threads::Mutex mu_;
  threads::CondVar filled_;
  bool full_ = false;
  detail::PayloadSlot<T> slot_;
};

// One-slot synchronizing variable: put blocks while full, take blocks
// while empty.
template <typename T>
class MVar {
 public:
  explicit MVar(threads::Scheduler& sched)
      : sched_(sched), mu_(sched), not_full_(sched), not_empty_(sched) {}
  MVar(const MVar&) = delete;
  MVar& operator=(const MVar&) = delete;

  void put(const T& v) {
    mu_.lock();
    while (full_) not_full_.wait(mu_);  // Mesa: re-check after waking
    fill(v);
    mu_.unlock();
  }

  T take() {
    mu_.lock();
    while (!full_) not_empty_.wait(mu_);
    T v = drain();
    mu_.unlock();
    return v;
  }

  bool try_put(const T& v) {
    mu_.lock();
    const bool ok = !full_;
    if (ok) fill(v);
    mu_.unlock();
    return ok;
  }

  std::optional<T> try_take() {
    mu_.lock();
    std::optional<T> v;
    if (full_) v = drain();
    mu_.unlock();
    return v;
  }

 private:
  // Both run under mu_ and wake one waiter of the opposite side.
  void fill(const T& v) {
    slot_.set(sched_.platform(), v);
    full_ = true;
    not_empty_.signal();
  }
  T drain() {
    full_ = false;
    not_full_.signal();
    return slot_.get();
  }

  threads::Scheduler& sched_;
  threads::Mutex mu_;
  threads::CondVar not_full_;
  threads::CondVar not_empty_;
  bool full_ = false;
  detail::PayloadSlot<T> slot_;
};

}  // namespace mp::cml
