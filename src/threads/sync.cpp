#include "threads/sync.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "arch/panic.h"
#include "fuzz/hooks.h"

namespace mp::threads {

// ----- lock discipline knob -----

namespace {

LockDiscipline env_discipline() {
  if (const char* env = std::getenv("MPNJ_LOCK")) {
    if (std::strcmp(env, "tas") == 0) return LockDiscipline::kTas;
  }
  return LockDiscipline::kQueue;
}

std::atomic<LockDiscipline>& discipline_cell() {
  static std::atomic<LockDiscipline> cell{env_discipline()};
  return cell;
}

}  // namespace

LockDiscipline lock_discipline() {
  return discipline_cell().load(std::memory_order_relaxed);
}

void set_lock_discipline(LockDiscipline d) {
  discipline_cell().store(d, std::memory_order_relaxed);
}

// ----- Mutex -----

Mutex::Mutex(Scheduler& sched)
    : sched_(sched), tas_(lock_discipline() == LockDiscipline::kTas) {
  if (tas_) {
    spin_ = sched_.platform().mutex_lock();
  } else {
    q_.init(sched_);
  }
}

void Mutex::lock() {
  if (!tas_) {
    q_.lock();
    return;
  }
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (!held_) {
    held_ = true;
    p.unlock(spin_);
    return;
  }
  // Park holding the spin lock; the park callback releases it once the
  // thread is safely on the waiter queue (the protocol the paper's send/
  // receive use in Figure 5).
  MPNJ_METRIC_COUNT(kLockParkWaits, 1);
  sched_.suspend([&](ThreadState t) {
    waiters_.push_back(std::move(t));
    p.unlock(spin_);
  });
  // Resumed: ownership was handed to us directly (held_ stayed true).
}

bool Mutex::try_lock() {
  if (!tas_) return q_.try_lock();
  Platform& p = sched_.platform();
  p.lock(spin_);
  const bool got = !held_;
  if (got) held_ = true;
  p.unlock(spin_);
  return got;
}

void Mutex::unlock() {
  if (!tas_) {
    q_.unlock();
    return;
  }
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(held_, "Mutex::unlock of an unheld mutex");
  if (waiters_.empty()) {
    held_ = false;
    p.unlock(spin_);
    return;
  }
  ThreadState next = std::move(waiters_.front());
  waiters_.pop_front();
  p.unlock(spin_);
  MPNJ_METRIC_COUNT(kLockHandoffs, 1);
  sched_.reschedule(std::move(next));  // handoff: held_ remains true
}

bool Mutex::held() const {
  if (!tas_) return q_.held();
  Platform& p = sched_.platform();
  p.lock(spin_);
  const bool h = held_;
  p.unlock(spin_);
  return h;
}

// ----- CondVar -----

CondVar::CondVar(Scheduler& sched) : sched_(sched) {
  spin_ = sched_.platform().mutex_lock();
}

void CondVar::wait(Mutex& m) {
  MPNJ_CHECK(m.held(), "CondVar::wait without the monitor held");
  // Enqueue the claim while still inside the monitor, release the monitor
  // on this frame, then wait.  A signal landing between the unlock and the
  // park simply grants the claim early and claim_wait returns without
  // parking; one landing before the unlock is also fine — the signaler
  // never touches the monitor, so there is no lock-order cycle.  The
  // monitor is released and retaken through its own lock()/unlock(), so
  // either Mutex discipline pairs with this CondVar.
  Platform& p = sched_.platform();
  QNode n;
  p.lock(spin_);
  waiters_.push(&n);
  p.unlock(spin_);
  m.unlock();
  claim_wait(sched_, n);
  m.lock();
}

void CondVar::signal() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  QNode* n = waiters_.pop();
  p.unlock(spin_);
  if (n != nullptr) claim_grant(sched_, *n);
}

void CondVar::broadcast() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  WaitList batch = waiters_.take();
  p.unlock(spin_);
  QNode* n;
  while ((n = batch.pop()) != nullptr) claim_grant(sched_, *n);
}

// ----- Barrier -----

Barrier::Barrier(Scheduler& sched, int parties)
    : sched_(sched), parties_(parties) {
  spin_ = sched_.platform().mutex_lock();
}

void Barrier::arrive_and_wait() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  const long gen = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    generation_++;
    WaitList batch = waiters_.take();
    const long released = generation_;
    p.unlock(spin_);
    QNode* n;
    while ((n = batch.pop()) != nullptr) {
      // Stamp the releasing generation before the grant; the waiter checks
      // it was freed by its own episode's flip.
      n->tag = released;
      if (fuzz::injected(fuzz::InjectedBug::kBarrierGeneration)) {
        // Deliberately re-introduced bug (MPNJ_FUZZ_INJECT): stamp the
        // pre-flip generation, as if the flip forgot to advance before
        // releasing.  Every released waiter's reuse guard then trips.
        n->tag = released - 1;
      }
      claim_grant(sched_, *n);
    }
    return;
  }
  QNode n;
  waiters_.push(&n);
  p.unlock(spin_);
  claim_wait(sched_, n);
  MPNJ_CHECK(n.tag == gen + 1,
             "Barrier waiter resumed outside its own generation");
}

// ----- Semaphore -----

Semaphore::Semaphore(Scheduler& sched, long initial)
    : sched_(sched), count_(initial) {
  MPNJ_CHECK(initial >= 0, "Semaphore initialized with a negative count");
  spin_ = sched_.platform().mutex_lock();
}

void Semaphore::acquire() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (count_ > 0) {
    count_--;
    p.unlock(spin_);
    return;
  }
  QNode n;
  waiters_.push(&n);
  p.unlock(spin_);
  claim_wait(sched_, n);  // the permit passed to us with the grant
}

bool Semaphore::try_acquire() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  const bool got = count_ > 0;
  if (got) count_--;
  p.unlock(spin_);
  return got;
}

void Semaphore::release() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(count_ >= 0, "Semaphore count went negative");
  QNode* n = waiters_.pop();
  if (n != nullptr) {
    MPNJ_CHECK(count_ == 0, "Semaphore waiter parked with permits free");
    p.unlock(spin_);
    claim_grant(sched_, *n);  // the permit passes to the waiter
    return;
  }
  count_++;
  p.unlock(spin_);
}

// ----- RWLock -----

RWLock::RWLock(Scheduler& sched) : sched_(sched) {
  spin_ = sched_.platform().mutex_lock();
}

void RWLock::lock_shared() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (!writer_ && write_waiters_.empty()) {
    readers_++;
    p.unlock(spin_);
    return;
  }
  QNode n;
  read_waiters_.push(&n);
  p.unlock(spin_);
  claim_wait(sched_, n);  // the granter already counted us as a reader
}

void RWLock::unlock_shared() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(readers_ > 0, "RWLock::unlock_shared without a shared hold");
  MPNJ_CHECK(!writer_, "RWLock held shared and exclusive at once");
  if (--readers_ == 0) {
    QNode* w = write_waiters_.pop();
    if (w != nullptr) {
      writer_ = true;
      p.unlock(spin_);
      claim_grant(sched_, *w);
      return;
    }
  }
  p.unlock(spin_);
}

void RWLock::lock_exclusive() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (!writer_ && readers_ == 0) {
    writer_ = true;
    p.unlock(spin_);
    return;
  }
  QNode n;
  write_waiters_.push(&n);
  p.unlock(spin_);
  claim_wait(sched_, n);  // the granter set writer_ on our behalf
}

void RWLock::unlock_exclusive() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(writer_, "RWLock::unlock_exclusive without the exclusive hold");
  MPNJ_CHECK(readers_ == 0, "RWLock held shared and exclusive at once");
  // Phase-fair: the reader batch that accumulated behind this writer goes
  // first, then the next writer — neither side starves.
  if (!read_waiters_.empty()) {
    writer_ = false;
    WaitList batch = read_waiters_.take();
    readers_ += batch.size();
    p.unlock(spin_);
    QNode* n;
    while ((n = batch.pop()) != nullptr) claim_grant(sched_, *n);
    return;
  }
  QNode* w = write_waiters_.pop();
  if (w != nullptr) {
    // writer_ stays true: direct handoff to the next writer.
    p.unlock(spin_);
    claim_grant(sched_, *w);
    return;
  }
  writer_ = false;
  p.unlock(spin_);
}

// ----- CountdownLatch -----

CountdownLatch::CountdownLatch(Scheduler& sched, long count)
    : sched_(sched), count_(count) {
  MPNJ_CHECK(count >= 0, "CountdownLatch initialized with a negative count");
  spin_ = sched_.platform().mutex_lock();
}

void CountdownLatch::count_down() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (count_ > 0 && --count_ == 0) {
    WaitList batch = waiters_.take();
    p.unlock(spin_);
    QNode* n;
    while ((n = batch.pop()) != nullptr) claim_grant(sched_, *n);
    return;
  }
  MPNJ_CHECK(count_ > 0 || waiters_.empty(),
             "CountdownLatch waiters survived the release");
  p.unlock(spin_);
}

void CountdownLatch::await() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (count_ == 0) {
    p.unlock(spin_);
    return;
  }
  QNode n;
  waiters_.push(&n);
  p.unlock(spin_);
  claim_wait(sched_, n);
}

long CountdownLatch::remaining() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  const long c = count_;
  p.unlock(spin_);
  return c;
}

}  // namespace mp::threads
