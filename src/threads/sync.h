#pragma once

#include <deque>

#include "threads/qlock.h"
#include "threads/scheduler.h"

// Thread-level synchronization synthesized from mutex locks, refs and
// first-class continuations, as section 3.3 promises ("more elaborate
// synchronization constructs such as reader/writer locks, semaphores,
// channels, etc., can be synthesized from mutex locks, refs, and
// first-class continuations").  Parked threads cost nothing and their proc
// runs other work; a release hands ownership to a waiter directly.
//
// Every primitive waits through the MCS-style claim/release core of
// qlock.h (docs/SYNC.md): each waiter owns a cache-line-padded claim node,
// joins with one RMW (or an O(1) push under the primitive's short spin
// guard), spins briefly on its own flag and then parks through the
// scheduler, and each release grants the head claim directly: FIFO-fair
// across procs, no shared spin word, no proc ever burned on a waiter.  The
// RWLock is phase-fair: a releasing writer admits the whole waiting reader
// batch before the next writer.
//
// The Mutex alone keeps a second discipline, the paper's protocol, as the
// ablation baseline the A-LOCK table measures (MPNJ_LOCK=tas): state
// guarded by a platform test-and-set MutexLock (Anderson backoff per the
// platform's lock_backoff knob), waiters parked on a deque.  A Mutex samples
// the discipline once at construction from MPNJ_LOCK (or
// set_lock_discipline), mirroring the MPNJ_QUEUE knob.

namespace mp::threads {

// Which waiting protocol newly constructed Mutexes use.
enum class LockDiscipline {
  kQueue,  // qlock.h claim/release core (default)
  kTas,    // paper baseline: test-and-set guard + Anderson backoff
};

// Process-wide discipline: MPNJ_LOCK=tas|queue in the environment, else
// kQueue.  set_lock_discipline overrides the environment (benches, tests);
// a Mutex samples the discipline in its constructor, so flipping it does
// not affect live objects.
LockDiscipline lock_discipline();
void set_lock_discipline(LockDiscipline d);

// Blocking mutual exclusion with direct ownership handoff to the longest
// waiting thread.
class Mutex {
 public:
  explicit Mutex(Scheduler& sched);
  void lock();
  bool try_lock();
  void unlock();
  // Debug accessor (invariant checks): true while some thread holds the
  // mutex.  Only meaningful to a caller that owns the lock or otherwise
  // excludes concurrent lock/unlock.
  bool held() const;

 private:
  Scheduler& sched_;
  const bool tas_;
  // queue discipline: the lock is the claim queue.
  QueueLock q_;
  // tas discipline: spin-guarded state + parked waiters.
  MutexLock spin_;
  bool held_ = false;
  std::deque<ThreadState> waiters_;
};

// Condition variable paired with Mutex (Mesa semantics: re-lock after wake,
// caller re-checks its predicate).
class CondVar {
 public:
  explicit CondVar(Scheduler& sched);
  void wait(Mutex& m);
  void signal();
  void broadcast();

 private:
  Scheduler& sched_;
  MutexLock spin_;  // guards the waiter queue
  WaitList waiters_;
};

// Cyclic barrier for `parties` threads.  Safe to reuse immediately: each
// episode is tagged with a generation, and a resumed waiter checks it was
// released by its own generation's flip.
class Barrier {
 public:
  Barrier(Scheduler& sched, int parties);
  void arrive_and_wait();
  long generation() const { return generation_; }

 private:
  Scheduler& sched_;
  MutexLock spin_;
  int parties_;
  int waiting_ = 0;
  long generation_ = 0;
  WaitList waiters_;
};

// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Scheduler& sched, long initial);
  void acquire();
  bool try_acquire();
  void release();

 private:
  Scheduler& sched_;
  MutexLock spin_;
  long count_;
  WaitList waiters_;
};

// Reader/writer lock, phase-fair: once a writer is queued new readers wait,
// and a releasing writer admits the entire waiting reader batch before the
// next writer, so neither side starves.
class RWLock {
 public:
  explicit RWLock(Scheduler& sched);
  void lock_shared();
  void unlock_shared();
  void lock_exclusive();
  void unlock_exclusive();

 private:
  Scheduler& sched_;
  MutexLock spin_;
  int readers_ = 0;
  bool writer_ = false;
  WaitList read_waiters_;
  WaitList write_waiters_;
};

// One-shot countdown latch: await() returns once count_down() has been
// called `count` times.  The workloads use this as their join mechanism.
class CountdownLatch {
 public:
  CountdownLatch(Scheduler& sched, long count);
  void count_down();
  void await();
  long remaining();

 private:
  Scheduler& sched_;
  MutexLock spin_;
  long count_;
  WaitList waiters_;
};

}  // namespace mp::threads
