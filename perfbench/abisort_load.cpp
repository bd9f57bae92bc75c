// abisort: the paper's bitonic sort of 2^12 integers (make_abisort(12)) as
// repeated jobs on 4 procs.  Each job forks a few hundred threads and
// allocates through the collector, and touches no kv, cml or io code, so
// this workload exercises fork/steal/stack-pool and gc.
//
// Three job streams run at once, each starting its next job when the
// previous one is done (a closed loop, like the KV workloads' connections).
// The fourth proc has no stream of its own and lives by stealing, so the
// steal path stays busy while no proc is idle long enough to park.  With a
// single stream a job's serial phases left procs idle and parking, and on
// a shared virtual machine the time to wake a parked proc varied so much
// that throughput varied 1.5x between runs.
//
// A job is checked twice: by the workload's own verify() against its
// sorted reference, and by comparing its output digest with one computed
// here from an independently regenerated and sorted copy of the input.

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "arch/rng.h"
#include "common.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

constexpr int kLog2N = 12;
constexpr int kStreams = kProcs - 1;
// Distinct inputs cycled through by each stream.
constexpr int kInstances = 4;
// Untimed jobs per stream after its inputs are built.
constexpr int kWarmupJobs = 40;

// The digest make_abisort's checksum() gives for a correct sort of the
// input it generates from `seed`.
std::uint64_t sorted_digest(std::uint64_t seed) {
  mp::arch::Rng rng(seed);
  std::vector<int> v(1u << kLog2N);
  for (int& x : v) x = static_cast<int>(rng.below(1u << 30));
  std::sort(v.begin(), v.end());
  std::uint64_t acc = 1469598103934665603ull;
  for (const int x : v) {
    acc = (acc ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
  }
  return acc;
}

class JobStream {
 public:
  JobStream(Run& run, int id)
      : run_(run),
        id_(id),
        seconds_(static_cast<std::size_t>(run.args().seconds)),
        spans_(id) {}

  // `warm` is called once, after this stream's warm-up; `done` says when
  // the round is over.
  template <typename Warm, typename Done>
  void drive(mp::threads::Scheduler& sched, Warm&& warm, Done&& done) {
    for (int i = 0; i < kInstances; i++) {
      const std::uint64_t seed =
          mix64(run_.args().seed * kStreams * kInstances +
                static_cast<std::uint64_t>(id_ * kInstances + i));
      jobs_.push_back({mp::workloads::make_abisort(kLog2N, seed),
                       sorted_digest(seed)});
    }
    for (int i = 0; i < kWarmupJobs; i++) one_job(sched);
    warm();
    while (!done()) one_job(sched);
  }

  const PerSecond& seconds() const { return seconds_; }
  const SpanLog& spans() const { return spans_; }

 private:
  struct Job {
    std::unique_ptr<mp::workloads::Workload> work;
    std::uint64_t digest;  // expected checksum() of the sorted output
  };

  void one_job(mp::threads::Scheduler& sched) {
    Job& job = jobs_[n_++ % kInstances];
    const bool timed = run_.timed();
    const double t0 = now_us();
    job.work->run(sched, kProcs);
    const double t1 = now_us();
    std::uint64_t want = job.digest;
    if (run_.corrupt(n_)) want ^= 1;
    const bool good = job.work->verify() && job.work->checksum() == want;
    run_.count(1, good ? 1 : 0);
    if (timed && run_.traced_at(t0)) {
      const double t2 = now_us();
      const std::uint64_t trace = (static_cast<std::uint64_t>(id_) << 40) | n_;
      spans_.add("abisort.run", trace, 1, t0, t1);
      spans_.add("abisort.verify", trace, 2, t1, t2);
      spans_.add("abisort.job", trace, 0, t0, t2);
    }
    const int s = timed ? run_.second_of(t1) : -1;
    if (s >= 0) {
      seconds_[static_cast<std::size_t>(s)].record(
          static_cast<std::uint64_t>((t1 - t0) * 1e3));
    }
  }

  Run& run_;
  int id_;
  std::vector<Job> jobs_;
  std::uint64_t n_ = 0;  // jobs run
  PerSecond seconds_;
  SpanLog spans_;
};

// One setup round: boot 4 procs, build every stream's inputs, warm up.
// The final round then runs the timed phase.
void round(Run& run, bool final,
           std::vector<std::unique_ptr<JobStream>>* streams,
           double t_round_start) {
  mp::NativePlatformConfig pcfg;
  pcfg.max_procs = kProcs;
  pcfg.seed = run.args().seed;
  mp::NativePlatform platform(pcfg);
  mp::threads::Scheduler::run(platform, {}, [&](mp::threads::Scheduler& sched) {
    std::atomic<int> cold{kStreams};
    std::atomic<bool> round_over{false};
    auto warm = [&] {
      if (cold.fetch_sub(1) != 1) return;
      run.record_setup((now_us() - t_round_start) / 1e6);
      if (final) {
        run.begin_timed();
      } else {
        round_over.store(true);
      }
    };
    auto done = [&] { return final ? run.stopping() : round_over.load(); };

    streams->clear();
    mp::threads::CountdownLatch finished(sched, kStreams);
    for (int i = 0; i < kStreams; i++) {
      streams->push_back(std::make_unique<JobStream>(run, i));
      JobStream* js = streams->back().get();
      sched.fork([&, js] {
        js->drive(sched, warm, done);
        finished.count_down();
      });
    }
    finished.await();
  });
}

}  // namespace

WorkloadResult run_abisort(Run& run) {
  std::vector<std::unique_ptr<JobStream>> streams;
  for (int r = 0; r < kSetupRounds; r++) {
    // The first round's setup is counted from process start.
    const double t0 = r == 0 ? run.process_start_us() : now_us();
    round(run, r == kSetupRounds - 1, &streams, t0);
  }
  WorkloadResult out;
  std::vector<const PerSecond*> parts;
  for (const auto& js : streams) {
    parts.push_back(&js->seconds());
    out.spans.push_back(js->spans());
  }
  out.merged = merge_seconds(parts, run.args().seconds);
  return out;
}

}  // namespace perfbench
