// Unit tests for the one-shot continuation layer: callcc/throw semantics,
// segment lifetime, proc idle-loop integration, cross-thread migration, and
// the direct (unwind-free) control transfers.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <semaphore>
#include <thread>
#include <utility>
#include <vector>

#include "cml/cml.h"
#include "cont/cont.h"
#include "cont/exec.h"
#include "cont/segment.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"

namespace {

using mp::cont::callcc;
using mp::cont::Cont;
using mp::cont::ContRef;
using mp::cont::exit_to_idle;
using mp::cont::fire_preloaded;
using mp::cont::make_entry;
using mp::cont::run_from_idle;
using mp::cont::SegmentPool;
using mp::cont::throw_to;
using mp::cont::Unit;

// A minimal stand-in for a platform proc: an ExecContext plus an idle loop
// context, driven directly by the test thread.  The real platform backends
// (src/mp) are built the same way.
class ManualProc {
 public:
  ManualProc() {
    exec_.idle_ctx = &idle_ctx_;
    mp::cont::set_current_exec(&exec_);
  }
  ~ManualProc() { mp::cont::set_current_exec(nullptr); }

  void run(std::function<void()> f) {
    run_from_idle(make_entry(std::move(f)), exec_);
  }
  void resume(ContRef k) { run_from_idle(std::move(k), exec_); }

 private:
  mp::cont::ExecContext exec_;
  mp::arch::Context idle_ctx_;
};

class ContTest : public ::testing::Test {
 protected:
  void SetUp() override {
    baseline_segments_ = SegmentPool::instance().outstanding();
    baseline_cores_ = mp::cont::live_core_count();
  }
  void TearDown() override {
    EXPECT_EQ(SegmentPool::instance().outstanding(), baseline_segments_)
        << "stack segments leaked by test";
    EXPECT_EQ(mp::cont::live_core_count(), baseline_cores_)
        << "continuation cores leaked by test";
  }

  std::int64_t baseline_segments_ = 0;
  std::size_t baseline_cores_ = 0;
};

TEST_F(ContTest, EntryRunsToCompletion) {
  ManualProc proc;
  bool ran = false;
  proc.run([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST_F(ContTest, EntryRunsNestedCalls) {
  ManualProc proc;
  long result = 0;
  proc.run([&] {
    std::function<long(long)> fib = [&](long n) {
      return n < 2 ? n : fib(n - 1) + fib(n - 2);
    };
    result = fib(15);
  });
  EXPECT_EQ(result, 610);
}

TEST_F(ContTest, CallccImplicitReturn) {
  ManualProc proc;
  int got = 0;
  proc.run([&] { got = callcc<int>([](Cont<int>) { return 42; }); });
  EXPECT_EQ(got, 42);
}

TEST_F(ContTest, CallccThrowDeliversValue) {
  ManualProc proc;
  int got = 0;
  bool after_throw = false;
  proc.run([&] {
    got = callcc<int>([&](Cont<int> k) -> int {
      throw_to(std::move(k), 7);
      after_throw = true;  // unreachable
      return 0;
    });
  });
  EXPECT_EQ(got, 7);
  EXPECT_FALSE(after_throw);
}

TEST_F(ContTest, ThrowRunsDestructorsOfAbandonedFrames) {
  ManualProc proc;
  bool dtor_ran = false;
  bool dtor_ran_before_resume = false;
  proc.run([&] {
    callcc<Unit>([&](Cont<Unit> k) -> Unit {
      struct Raii {
        bool* flag;
        ~Raii() { *flag = true; }
      };
      Raii r{&dtor_ran};
      throw_to(std::move(k), Unit{});
    });
    dtor_ran_before_resume = dtor_ran;
  });
  EXPECT_TRUE(dtor_ran);
  EXPECT_TRUE(dtor_ran_before_resume);
}

TEST_F(ContTest, SuspendAndResumeAcrossIdle) {
  ManualProc proc;
  Cont<int> saved;
  std::vector<int> trace;
  proc.run([&] {
    trace.push_back(1);
    int v = callcc<int>([&](Cont<int> k) -> int {
      saved = std::move(k);
      exit_to_idle();
    });
    trace.push_back(v);
  });
  // The thread is suspended; the proc is back in its idle loop.
  EXPECT_EQ(trace, (std::vector<int>{1}));
  saved.preload(2);
  proc.resume(std::move(saved).take_ref());
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
}

TEST_F(ContTest, TwoThreadsPingPongOnOneProc) {
  // A miniature round-robin scheduler: the shape of Figure 1 in the paper.
  ManualProc proc;
  std::deque<ContRef> ready;
  std::vector<int> trace;

  auto dispatch_or_exit = [&]() -> void {
    if (ready.empty()) exit_to_idle();
    ContRef next = std::move(ready.front());
    ready.pop_front();
    fire_preloaded(std::move(next));
  };
  auto yield = [&] {
    callcc<Unit>([&](Cont<Unit> k) -> Unit {
      k.preload(Unit{});
      ready.push_back(std::move(k).take_ref());
      dispatch_or_exit();
      return Unit{};  // unreachable; dispatch_or_exit transfers control
    });
  };

  auto body = [&](int id) {
    for (int i = 0; i < 3; i++) {
      trace.push_back(id * 10 + i);
      yield();
    }
  };
  ready.push_back(make_entry([&] { body(2); dispatch_or_exit(); }));
  proc.run([&] { body(1); dispatch_or_exit(); });
  EXPECT_EQ(trace, (std::vector<int>{10, 20, 11, 21, 12, 22}));
}

TEST_F(ContTest, NestedCallcc) {
  ManualProc proc;
  int got = 0;
  proc.run([&] {
    got = callcc<int>([&](Cont<int> outer) -> int {
      int inner_v = callcc<int>([&](Cont<int> inner) -> int {
        throw_to(std::move(inner), 5);
      });
      throw_to(std::move(outer), inner_v + 100);
    });
  });
  EXPECT_EQ(got, 105);
}

TEST_F(ContTest, PointerPayload) {
  ManualProc proc;
  int cell = 99;
  int* got = nullptr;
  proc.run([&] {
    got = callcc<int*>([&](Cont<int*> k) -> int* {
      throw_to(std::move(k), &cell);
    });
  });
  ASSERT_EQ(got, &cell);
  EXPECT_EQ(*got, 99);
}

TEST_F(ContTest, SmallStructPayload) {
  struct Pair {
    std::int32_t a;
    std::int32_t b;
  };
  ManualProc proc;
  Pair got{0, 0};
  proc.run([&] {
    got = callcc<Pair>([](Cont<Pair> k) -> Pair {
      throw_to(std::move(k), Pair{3, 4});
    });
  });
  EXPECT_EQ(got.a, 3);
  EXPECT_EQ(got.b, 4);
}

TEST_F(ContTest, ManySequentialCaptures) {
  ManualProc proc;
  long sum = 0;
  proc.run([&] {
    for (int i = 0; i < 20000; i++) {
      sum += callcc<int>([&](Cont<int> k) -> int { throw_to(std::move(k), 1); });
    }
  });
  EXPECT_EQ(sum, 20000);
}

TEST_F(ContTest, ChainOfSuspendedThreadsReclaimedWithoutFiring) {
  // Threads suspended on the "queue" are dropped without ever being resumed;
  // reference counting must reclaim their whole segment chains.
  ManualProc proc;
  {
    std::vector<Cont<Unit>> parked;
    for (int i = 0; i < 50; i++) {
      proc.run([&] {
        callcc<Unit>([&](Cont<Unit> k) -> Unit {
          parked.push_back(std::move(k));
          exit_to_idle();
        });
        ADD_FAILURE() << "abandoned thread was resumed";
      });
    }
    EXPECT_EQ(parked.size(), 50u);
  }  // parked handles dropped here
}

// pthread_self() is a pure function GCC may cache across a continuation
// switch (code holding thread identity across suspension points must re-read
// it through an opaque call; this is the same caveat the runtime documents
// for proc-local state).
__attribute__((noinline)) std::thread::id current_tid() {
  std::atomic_signal_fence(std::memory_order_seq_cst);
  return std::this_thread::get_id();
}

TEST_F(ContTest, MigrationAcrossKernelThreads) {
  Cont<int> saved;
  std::vector<std::string> trace;
  std::thread::id first_id{};
  std::thread::id second_id{};
  std::binary_semaphore parked{0};
  std::binary_semaphore resumed{0};

  // Both threads stay alive for the whole test so their ids are distinct.
  std::thread t1([&] {
    ManualProc proc;
    proc.run([&] {
      first_id = current_tid();
      int v = callcc<int>([&](Cont<int> k) -> int {
        saved = std::move(k);
        exit_to_idle();
      });
      // Resumed on a different kernel thread (t2's proc).
      second_id = current_tid();
      trace.push_back("resumed:" + std::to_string(v));
    });
    parked.release();
    resumed.acquire();  // wait for t2 before exiting
  });
  std::thread t2([&] {
    parked.acquire();
    ASSERT_TRUE(saved.valid());
    ManualProc proc;
    saved.preload(77);
    proc.resume(std::move(saved).take_ref());
    resumed.release();
  });
  t1.join();
  t2.join();
  EXPECT_EQ(trace, (std::vector<std::string>{"resumed:77"}));
  EXPECT_NE(first_id, second_id);
}

TEST_F(ContTest, SegmentsAreRecycled) {
  ManualProc proc;
  const auto created_before = SegmentPool::instance().total_created();
  proc.run([&] {
    for (int i = 0; i < 1000; i++) {
      callcc<int>([&](Cont<int> k) -> int { throw_to(std::move(k), 0); });
    }
  });
  const auto created_after = SegmentPool::instance().total_created();
  // 1000 captures must not allocate 1000 fresh segments.
  EXPECT_LE(created_after - created_before, 8);
}

// ---------- direct transfers ----------

// Counts its own destruction, once: a moved-from copy counts nothing, so a
// record destroyed twice (or never) shows up in the count.
struct DestroyCounter {
  int* count;
  explicit DestroyCounter(int* c) : count(c) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : count(std::exchange(other.count, nullptr)) {}
  DestroyCounter(const DestroyCounter&) = delete;
  ~DestroyCounter() {
    if (count != nullptr) ++*count;
  }
};

TEST_F(ContTest, BootRecordDestroyedExactlyOnceOnEveryExit) {
  ManualProc proc;
  // Implicit throw of a returning body (a direct switch).
  int returned = 0;
  proc.run([&] {
    const int v = callcc<int>(
        [c = DestroyCounter(&returned)](Cont<int>) { return 3; });
    EXPECT_EQ(v, 3);
    EXPECT_EQ(returned, 1);  // retired before the resumed side ran
  });
  // A body that fires its own continuation directly.
  int fired = 0;
  proc.run([&] {
    callcc<Unit>([c = DestroyCounter(&fired)](Cont<Unit> k) -> Unit {
      k.preload(Unit{});
      fire_preloaded(std::move(k).take_ref());
    });
    EXPECT_EQ(fired, 1);
  });
  // throw_to keeps its unwind; the record still goes exactly once.
  int thrown = 0;
  proc.run([&] {
    callcc<int>([c = DestroyCounter(&thrown)](Cont<int> k) -> int {
      throw_to(std::move(k), 1);
    });
    EXPECT_EQ(thrown, 1);
  });
  // A body that parks its continuation and releases the proc: the record
  // goes at that exit, and dropping the never-resumed continuation later
  // reclaims the chain without destroying the record again.
  int parked = 0;
  Cont<int> saved;
  proc.run([&] {
    callcc<int>([&saved, c = DestroyCounter(&parked)](Cont<int> k) -> int {
      saved = std::move(k);
      exit_to_idle();
    });
    ADD_FAILURE() << "abandoned thread was resumed";
  });
  EXPECT_EQ(parked, 1);
  saved = Cont<int>();
  EXPECT_EQ(parked, 1);
}

TEST_F(ContTest, EntryRecordRetiredOnExitAndOnRecycleWhenNeverRun) {
  ManualProc proc;
  // An entry body that returns leaves by the direct path to the idle loop.
  auto ran = std::make_shared<int>(0);
  std::weak_ptr<int> ran_token = ran;
  proc.run([token = std::move(ran)] { ++*token; });
  EXPECT_TRUE(ran_token.expired());
  // An entry continuation that is never fired: recycling its segment
  // destroys the record it never ran.
  auto idle = std::make_shared<int>(0);
  std::weak_ptr<int> idle_token = idle;
  ContRef never = make_entry([token = std::move(idle)] { ++*token; });
  EXPECT_FALSE(idle_token.expired());
  never.reset();
  EXPECT_TRUE(idle_token.expired());
}

// A direct transfer made inside a catch handler (the paper's
// `handle No_More_Procs => throw k`) closes the handler, as leaving it
// normally would: the exception is destroyed and no longer current.
TEST_F(ContTest, DirectTransferInsideCatchHandlerClosesIt) {
  ManualProc proc;
  std::weak_ptr<int> fired_exc;
  bool current_after_fire = true;
  proc.run([&] {
    callcc<Unit>([&](Cont<Unit> k) -> Unit {
      auto exc = std::make_shared<int>(1);
      fired_exc = exc;
      try {
        throw std::move(exc);
      } catch (const std::shared_ptr<int>&) {
        k.preload(Unit{});
        fire_preloaded(std::move(k).take_ref());
      }
      ADD_FAILURE() << "fire returned";
      return Unit{};
    });
    current_after_fire = std::current_exception() != nullptr;
  });
  EXPECT_TRUE(fired_exc.expired());
  EXPECT_FALSE(current_after_fire);

  std::weak_ptr<int> released_exc;
  proc.run([&] {
    auto exc = std::make_shared<int>(2);
    released_exc = exc;
    try {
      throw std::move(exc);
    } catch (const std::shared_ptr<int>&) {
      exit_to_idle();
    }
  });
  EXPECT_TRUE(released_exc.expired());
  EXPECT_EQ(std::current_exception(), nullptr);

  // A handler opened on an earlier segment is not the switching body's to
  // close: it stays open across the switch and closes when its frame does.
  proc.run([&] {
    try {
      throw 3;
    } catch (int) {
      const int v = callcc<int>([](Cont<int> k) -> int {
        k.preload(4);
        fire_preloaded(std::move(k).take_ref());
      });
      EXPECT_EQ(v, 4);
      EXPECT_NE(std::current_exception(), nullptr);
    }
    EXPECT_EQ(std::current_exception(), nullptr);
  });
}

// The frames a direct switch abandons must own nothing; any scheduler or CML
// frame that still held a continuation reference would leave a core (and
// its segment chain) behind for every operation.
TEST_F(ContTest, LiveCoresReturnToBaselineAfterSchedulerTraffic) {
  constexpr int kOps = 10000;
  // Held procs (the evaluated package), and Figure 3's release-when-idle
  // mode, where fork hands the parent to a freshly acquired proc.
  for (const bool hold_procs : {true, false}) {
    mp::NativePlatformConfig cfg;
    cfg.max_procs = 2;
    mp::NativePlatform p(cfg);
    mp::threads::SchedulerConfig sc;
    sc.hold_procs = hold_procs;
    long received = 0;
    mp::threads::Scheduler::run(p, std::move(sc), [&](auto& s) {
      for (int i = 0; i < kOps; i++) s.yield();
      for (int i = 0; i < kOps; i++) s.fork([] {});
      // Every recv parks until the sender arrives, or the send parks.
      mp::cml::Channel<int> ch(s);
      s.fork([&] {
        for (int i = 0; i < kOps; i++) ch.send(i);
      });
      for (int i = 0; i < kOps; i++) received += ch.recv();
    });
    EXPECT_EQ(received, static_cast<long>(kOps) * (kOps - 1) / 2);
    EXPECT_EQ(mp::cont::live_core_count(), baseline_cores_)
        << "hold_procs=" << hold_procs;
  }
}

using ContDeathTest = ContTest;

TEST_F(ContDeathTest, PreloadTwicePanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ManualProc proc;
        Cont<int> saved;
        proc.run([&] {
          callcc<int>([&](Cont<int> k) -> int {
            saved = std::move(k);
            exit_to_idle();
          });
        });
        saved.preload(1);
        saved.preload(2);
      },
      "one-shot violation");
}

TEST_F(ContDeathTest, BodyReturnAfterValueDeliveredPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ManualProc proc;
        proc.run([&] {
          callcc<Unit>([&](Cont<Unit> k) -> Unit {
            k.preload(Unit{});  // value delivered (e.g. queued elsewhere)...
            return Unit{};      // ...so the implicit return throw is a bug
          });
        });
      },
      "one-shot violation");
}

TEST_F(ContDeathTest, CallccOutsideProcPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        callcc<int>([](Cont<int>) { return 1; });
      },
      "callcc outside");
}

TEST_F(ContDeathTest, UserExceptionEscapingBodyPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ManualProc proc;
        proc.run([&] {
          callcc<int>([](Cont<int>) -> int {
            throw std::runtime_error("user error");
          });
        });
      },
      "crossed a continuation boundary");
}

}  // namespace
