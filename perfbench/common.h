#pragma once

// Shared harness of the end-to-end benchmark (README.md): command line,
// clocks, the timed-phase conductor with its watchdog, fixed-size latency
// histograms, client spans, and the result line.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.h"

namespace perfbench {

namespace metrics = mp::metrics;

// Every workload runs on this many native procs (one OS thread each).
inline constexpr int kProcs = 4;
// Setup is repeated this many times per run; setup_s is their median.
inline constexpr int kSetupRounds = 5;
// Each latency window must hold at least this many ops, so that its p99
// has at least ten samples beyond it.
inline constexpr std::uint64_t kMinWindowOps = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  // Chrome Trace Event JSON written by a traced run ("" = none).
  std::string trace_file;
  // Every Nth expected result is deliberately wrong (0 = off): proves that
  // the checker counts wrong results as failed ops.
  long corrupt_every = 0;
};

double now_us();       // CLOCK_MONOTONIC, microseconds
double cpu_us();       // process user + system CPU time, microseconds
double peak_rss_mb();  // VmHWM of this process, MiB
// CPU time stolen from this (virtual) machine by its host so far, in clock
// ticks summed over all CPUs (/proc/stat); 0 where the kernel does not
// report it.
double steal_ticks();

std::uint64_t mix64(std::uint64_t x);

// Fixed-size log-linear histogram of latencies in nanoseconds: 64
// sub-buckets per power of two (< 1.6% relative bucket width) in 8 KiB, so
// memory does not grow with the number of ops a run completes.
class LatencyHisto {
 public:
  LatencyHisto();
  void record(std::uint64_t ns);
  void merge(const LatencyHisto& other);
  std::uint64_t count() const { return count_; }
  // Quantile in microseconds, interpolated linearly inside its bucket.
  double quantile_us(double q) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

// One timed second's worth of completions, per client.
using PerSecond = std::vector<LatencyHisto>;

// Span aggregation and retention for one client (one MLthread at a time).
// Every span feeds its name's count and total; the first kKeepSpans are
// also kept for the trace file.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t trace;  // shared by the spans of one request or job
    int k;                // 0 = the trace's root, the parent of the others
    double t0_us;
    double t1_us;
  };
  static constexpr std::size_t kKeepSpans = 6000;

  explicit SpanLog(int tid) : tid_(tid) {}
  void add(const char* name, std::uint64_t trace, int k, double t0_us,
           double t1_us);

  int tid() const { return tid_; }
  const std::vector<Span>& kept() const { return kept_; }
  // Per span name (a string literal): spans recorded, total microseconds.
  const std::map<const char*, std::pair<std::uint64_t, double>>& totals()
      const {
    return totals_;
  }

 private:
  int tid_;
  std::vector<Span> kept_;
  std::map<const char*, std::pair<std::uint64_t, double>> totals_;
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

// The run's phase machine and its conductor thread.
//
//   setup rounds -> begin_timed() -> `seconds` timed seconds -> stopping()
//
// The conductor (a plain OS thread, not a runtime proc) samples process CPU
// at every timed-second boundary, ends the timed phase, prints a progress
// line each second, and is the watchdog: if no op completes for
// kStallSeconds, or the process outlives kDeadlineSeconds, it prints a
// failed result (unfinished ops count as failed) and exits nonzero.
class Run {
 public:
  static constexpr int kStallSeconds = 20;
  static constexpr int kDeadlineSeconds = 165;

  explicit Run(const Args& args);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  const Args& args() const { return args_; }
  double process_start_us() const { return start_us_; }

  // ---- workload side ----
  void record_setup(double seconds) { setup_s_.push_back(seconds); }
  // Setup is complete: reset the metrics registry and start the clock.
  void begin_timed();
  bool timed() const {
    return state_.load(std::memory_order_acquire) == kTimed;
  }
  bool stopping() const {
    return state_.load(std::memory_order_acquire) == kStop;
  }
  // Timed second a completion at t_us belongs to, or -1 outside the window.
  int second_of(double t_us) const;
  // Traced runs alternate: spans are recorded in odd seconds only, so the
  // even seconds measure the same run untraced (the tracing overhead).
  bool traced_at(double t_us) const {
    const int s = second_of(t_us);
    return args_.trace && s >= 0 && s % 2 == 1;
  }
  // Progress accounting: ops sent, ops whose result checked out.
  void count(std::uint64_t attempted, std::uint64_t ok) {
    attempted_.fetch_add(attempted, std::memory_order_relaxed);
    ok_.fetch_add(ok, std::memory_order_relaxed);
  }
  void heartbeat() { beats_.fetch_add(1, std::memory_order_relaxed); }
  bool corrupt(std::uint64_t nth) const {
    return args_.corrupt_every > 0 &&
           nth % static_cast<std::uint64_t>(args_.corrupt_every) == 0;
  }

  // ---- after the workload returned ----
  // Joins the conductor; the timed-phase registry snapshot is then valid.
  void finish();
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t ok() const { return ok_.load(); }
  // End-to-end metrics from the merged per-second histograms.
  Metrics end_to_end(const PerSecond& merged) const;
  // Per-layer metrics: registry deltas per op, span means, tracing overhead.
  Metrics per_layer(const PerSecond& merged,
                    const std::vector<SpanLog>& spans) const;
  void write_trace(const std::vector<SpanLog>& spans) const;

 private:
  enum State : int { kSetup, kTimed, kStop };
  // Timed seconds whose histograms one latency window pools.
  using Window = std::vector<int>;

  void conduct();
  std::vector<Window> windows(const PerSecond& merged) const;

  Args args_;
  double start_us_;
  std::atomic<int> state_{kSetup};
  double t_start_us_ = 0;  // published by the release store of kTimed
  std::vector<double> setup_s_;
  // Process CPU time, and CPU time the hypervisor stole from this machine,
  // at each timed-second boundary.
  std::vector<double> cpu_at_;
  std::vector<double> steal_at_;
  metrics::Snapshot delta_;

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> beats_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread conductor_;
};

// The last line of standard output: {"correct","attempted","failed","metrics"}.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics);

// Merge per-client per-second histograms into one per second.
PerSecond merge_seconds(const std::vector<const PerSecond*>& parts,
                        int seconds);

// Layer probes (probes.cpp): fixed-iteration timings of each layer's
// public primitive, added to `out`.
void run_probes(Run& run, Metrics* out);

// Workloads: run setup rounds and the timed phase, fill the merged
// per-second latencies and the client span logs.
struct WorkloadResult {
  PerSecond merged;
  std::vector<SpanLog> spans;
};
WorkloadResult run_kv(Run& run, bool tcp);
WorkloadResult run_abisort(Run& run);

}  // namespace perfbench
