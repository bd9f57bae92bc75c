// Tests for ML Threads (the Modula-3 style package, paper section 1):
// typed fork/join handles, multiple joiners, and alerts — plus the
// scheduling-event tracer.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "threads/mlthreads.h"
#include "threads/trace.h"

#include "live_cores.h"

namespace {

class Trace : public mpnj_test::LiveCores {};

using mp::cont::Unit;
using mp::threads::alert_pause;
using mp::threads::Alerted;
using mp::threads::CountdownLatch;
using mp::threads::fork_thread;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;
using mp::threads::Thread;
using mp::threads::TraceKind;
using mp::threads::Tracer;

enum class Backend { kSim, kNative };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "Native";
}

std::unique_ptr<mp::Platform> make_platform(Backend b, int procs) {
  if (b == Backend::kSim) {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(procs);
    return std::make_unique<mp::SimPlatform>(cfg);
  }
  mp::NativePlatformConfig cfg;
  cfg.max_procs = procs;
  return std::make_unique<mp::NativePlatform>(cfg);
}

class MlThreadsTest : public mpnj_test::LiveCoresWithParam<Backend> {};

TEST_P(MlThreadsTest, ForkJoinReturnsValue) {
  auto p = make_platform(GetParam(), 2);
  long got = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Thread<long> t = fork_thread<long>(s, [] { return 41L + 1; });
    got = t.join();
  });
  EXPECT_EQ(got, 42);
}

TEST_P(MlThreadsTest, JoinAfterThreadAlreadyFinished) {
  auto p = make_platform(GetParam(), 2);
  long got = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Thread<long> t = fork_thread<long>(s, [] { return 7L; });
    while (!t.finished()) s.yield();
    got = t.join();  // must not block
  });
  EXPECT_EQ(got, 7);
}

TEST_P(MlThreadsTest, MultipleJoinersAllGetTheResult) {
  auto p = make_platform(GetParam(), 3);
  std::atomic<long> sum{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Thread<long> worker = fork_thread<long>(s, [&] {
      for (int i = 0; i < 10; i++) s.yield();
      return 5L;
    });
    CountdownLatch latch(s, 4);
    for (int i = 0; i < 4; i++) {
      s.fork([&] {
        sum.fetch_add(worker.join());
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_EQ(sum.load(), 20);
}

TEST_P(MlThreadsTest, ParallelFibonacciViaJoin) {
  auto p = make_platform(GetParam(), 4);
  long got = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    std::function<long(int)> fib = [&](int n) -> long {
      if (n < 2) return n;
      if (n < 8) return fib(n - 1) + fib(n - 2);  // sequential cutoff
      Thread<long> left = fork_thread<long>(s, [&, n] { return fib(n - 1); });
      const long right = fib(n - 2);
      return left.join() + right;
    };
    got = fib(15);
  });
  EXPECT_EQ(got, 610);
}

TEST_P(MlThreadsTest, AlertInterruptsAPollingThread) {
  auto p = make_platform(GetParam(), 2);
  bool join_raised = false;
  long iterations = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Thread<Unit> victim = fork_thread<Unit>(s, [&] {
      for (;;) {  // loops forever unless alerted
        iterations++;
        s.platform().work(20);
        alert_pause(s);
      }
      return Unit{};
    });
    for (int i = 0; i < 25; i++) s.yield();
    victim.alert();
    try {
      victim.join();
    } catch (const Alerted&) {
      join_raised = true;
    }
  });
  EXPECT_TRUE(join_raised);
  EXPECT_GT(iterations, 0);
}

TEST_P(MlThreadsTest, UnalertedThreadJoinsNormally) {
  auto p = make_platform(GetParam(), 2);
  long got = -1;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Thread<long> t = fork_thread<long>(s, [&] {
      alert_pause(s);  // polls, but nobody alerts
      alert_pause(s);
      return 3L;
    });
    got = t.join();
  });
  EXPECT_EQ(got, 3);
}

TEST_P(MlThreadsTest, AlertCaughtByTargetIsConsumed) {
  auto p = make_platform(GetParam(), 2);
  long got = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Thread<long> t = fork_thread<long>(s, [&] {
      // The target may catch Alerted itself and finish normally.
      try {
        for (;;) alert_pause(s);
      } catch (const Alerted&) {
        return 99L;
      }
      return 0L;  // unreachable
    });
    for (int i = 0; i < 10; i++) s.yield();
    t.alert();
    got = t.join();
  });
  EXPECT_EQ(got, 99);
}

INSTANTIATE_TEST_SUITE_P(Backends, MlThreadsTest,
                         ::testing::Values(Backend::kSim, Backend::kNative),
                         backend_name);

// ---------- tracer ----------

TEST_F(Trace, RecordsForksYieldsAndExits) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(2);
  mp::SimPlatform p(cfg);
  Tracer tracer;
  SchedulerConfig sc;
  sc.tracer = &tracer;
  Scheduler::run(p, std::move(sc), [&](Scheduler& s) {
    CountdownLatch latch(s, 3);
    for (int i = 0; i < 3; i++) {
      s.fork([&] {
        s.yield();
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_EQ(tracer.count(TraceKind::kFork), 3u);
  EXPECT_EQ(tracer.count(TraceKind::kExit), 3u);
  EXPECT_GE(tracer.count(TraceKind::kYield), 3u);
  EXPECT_GE(tracer.count(TraceKind::kDispatch), 3u);
  // Fork events carry distinct child ids.
  std::set<int> children;
  for (const auto& e : tracer.snapshot()) {
    if (e.kind == TraceKind::kFork) children.insert(e.arg);
  }
  EXPECT_EQ(children.size(), 3u);
}

TEST_F(Trace, DeterministicReplayOnSimulator) {
  auto run_once = [] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    mp::SimPlatform p(cfg);
    Tracer tracer;
    SchedulerConfig sc;
    sc.tracer = &tracer;
    sc.preempt_interval_us = 2000;
    Scheduler::run(p, std::move(sc), [&](Scheduler& s) {
      CountdownLatch latch(s, 10);
      for (int i = 0; i < 10; i++) {
        s.fork([&, i] {
          s.platform().work(100.0 * (i + 1));
          s.yield();
          s.platform().work(3000);
          latch.count_down();
        });
      }
      latch.await();
    });
    return tracer.snapshot();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i++) {
    EXPECT_TRUE(a[i] == b[i]) << "trace diverged at event " << i;
  }
}

TEST_F(Trace, PreemptEventsAppearForComputeBoundThreads) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(1);
  mp::SimPlatform p(cfg);
  Tracer tracer;
  SchedulerConfig sc;
  sc.tracer = &tracer;
  sc.preempt_interval_us = 500;
  Scheduler::run(p, std::move(sc), [&](Scheduler& s) {
    CountdownLatch latch(s, 2);
    for (int i = 0; i < 2; i++) {
      s.fork([&] {
        for (int n = 0; n < 100; n++) s.platform().work(100);
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_GT(tracer.count(TraceKind::kPreempt), 3u);
}

TEST_F(Trace, FormatIsHumanReadable) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(1);
  mp::SimPlatform p(cfg);
  Tracer tracer;
  SchedulerConfig sc;
  sc.tracer = &tracer;
  Scheduler::run(p, std::move(sc), [&](Scheduler& s) {
    s.fork([&] {});
    s.yield();
  });
  const std::string text = tracer.format();
  EXPECT_NE(text.find("fork"), std::string::npos);
  EXPECT_NE(text.find("yield"), std::string::npos);
  EXPECT_NE(text.find("proc"), std::string::npos);
}

}  // namespace
