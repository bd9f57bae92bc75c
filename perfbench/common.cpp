#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

constexpr int kSubBits = 6;
constexpr std::uint64_t kSub = 1ull << kSubBits;
constexpr int kMaxBits = 36;  // latencies clamp at 2^36 ns (~69 s)
constexpr std::size_t kNumBuckets = (kMaxBits - kSubBits + 1) * kSub;

std::size_t bucket_index(std::uint64_t v) {
  v = std::min<std::uint64_t>(v, (1ull << kMaxBits) - 1);
  if (v < kSub) return static_cast<std::size_t>(v);
  const int e = 64 - __builtin_clzll(v) - kSubBits - 1;
  return static_cast<std::size_t>(e + 1) * kSub + ((v >> e) - kSub);
}

// [lo, hi) of bucket i, in nanoseconds.
void bucket_bounds(std::size_t i, double* lo, double* hi) {
  if (i < kSub) {
    *lo = static_cast<double>(i);
    *hi = *lo + 1;
    return;
  }
  const int e = static_cast<int>(i / kSub) - 1;
  const double m = static_cast<double>(i % kSub + kSub);
  *lo = std::ldexp(m, e);
  *hi = std::ldexp(m + 1, e);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Quantile of a runtime log2 histogram (bucket i holds [2^(i-1), 2^i)),
// interpolated linearly inside the bucket.
double log2_quantile(const metrics::HistoSnapshot& h, double q) {
  if (h.count == 0) return 0;
  const double rank = q * static_cast<double>(h.count - 1);
  double cum = 0;
  for (std::size_t i = 0; i < metrics::kNumBuckets; i++) {
    const double c = static_cast<double>(h.buckets[i]);
    if (c > 0 && rank < cum + c) {
      const double lo = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = i == 0 ? 1 : std::ldexp(1.0, static_cast<int>(i));
      return lo + (hi - lo) * (rank - cum + 0.5) / c;
    }
    cum += c;
  }
  return std::ldexp(1.0, static_cast<int>(metrics::kNumBuckets) - 1);
}

void sleep_until_us(double t_us) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_us / 1e6);
  ts.tv_nsec = static_cast<long>((t_us - static_cast<double>(ts.tv_sec) * 1e6) *
                                 1e3);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

void json_string(std::string* out, const std::string& s) {
  *out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += '"';
}

}  // namespace

double now_us() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // user nice system idle ... steal
  in >> cpu;
  for (double& x : f) in >> x;
  return in ? f[7] : 0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- LatencyHisto ----

LatencyHisto::LatencyHisto() : buckets_(kNumBuckets, 0) {}

void LatencyHisto::record(std::uint64_t ns) {
  buckets_[bucket_index(ns)]++;
  count_++;
}

void LatencyHisto::merge(const LatencyHisto& other) {
  for (std::size_t i = 0; i < kNumBuckets; i++) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHisto::quantile_us(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  double cum = 0;
  for (std::size_t i = 0; i < kNumBuckets; i++) {
    const double c = static_cast<double>(buckets_[i]);
    if (c > 0 && rank < cum + c) {
      double lo = 0;
      double hi = 0;
      bucket_bounds(i, &lo, &hi);
      return (lo + (hi - lo) * (rank - cum + 0.5) / c) / 1e3;
    }
    cum += c;
  }
  return 0;
}

PerSecond merge_seconds(const std::vector<const PerSecond*>& parts,
                        int seconds) {
  PerSecond out(static_cast<std::size_t>(seconds));
  for (const PerSecond* p : parts) {
    for (std::size_t s = 0; s < out.size() && s < p->size(); s++) {
      out[s].merge((*p)[s]);
    }
  }
  return out;
}

// ---- SpanLog ----

void SpanLog::add(const char* name, std::uint64_t trace, int k, double t0_us,
                  double t1_us) {
  auto& [n, sum] = totals_[name];
  n++;
  sum += t1_us - t0_us;
  if (kept_.size() < kKeepSpans) {
    kept_.push_back({name, trace, k, t0_us, t1_us});
  }
}

// ---- Run ----

Run::Run(const Args& args) : args_(args), start_us_(now_us()) {
  conductor_ = std::thread([this] { conduct(); });
}

Run::~Run() {
  if (conductor_.joinable()) finish();
}

void Run::begin_timed() {
  metrics::registry().reset();
  cpu_at_.assign(1, cpu_us());
  steal_at_.assign(1, steal_ticks());
  t_start_us_ = now_us();
  state_.store(kTimed, std::memory_order_release);
  std::lock_guard<std::mutex> g(mu_);
  cv_.notify_all();
}

int Run::second_of(double t_us) const {
  const double rel = t_us - t_start_us_;
  if (rel < 0) return -1;
  const auto s = static_cast<int>(rel / 1e6);
  return s < args_.seconds ? s : -1;
}

void Run::conduct() {
  std::uint64_t last_beat = 0;
  double last_progress = now_us();
  auto tick = [&](double now) {
    const std::uint64_t beat = beats_.load() + ok_.load();
    if (beat != last_beat) {
      last_beat = beat;
      last_progress = now;
    }
    if (now - last_progress > kStallSeconds * 1e6 ||
        now - start_us_ > kDeadlineSeconds * 1e6) {
      const std::uint64_t att = attempted_.load();
      const std::uint64_t ok = ok_.load();
      std::fprintf(stderr,
                   "perfbench: watchdog: %s after %.1f s; %llu of %llu ops "
                   "unfinished or wrong\n",
                   now - last_progress > kStallSeconds * 1e6 ? "no progress"
                                                             : "deadline",
                   (now - start_us_) / 1e6,
                   static_cast<unsigned long long>(att - std::min(att, ok)),
                   static_cast<unsigned long long>(att));
      print_result(false, std::max<std::uint64_t>(att, 1),
                   std::max<std::uint64_t>(att - std::min(att, ok), 1), {});
      std::fflush(stdout);
      _exit(3);
    }
    std::printf("progress attempted=%llu ok=%llu\n",
                static_cast<unsigned long long>(attempted_.load()),
                static_cast<unsigned long long>(ok_.load()));
    std::fflush(stdout);
  };

  std::unique_lock<std::mutex> lk(mu_);
  while (!done_ && state_.load(std::memory_order_acquire) == kSetup) {
    cv_.wait_for(lk, std::chrono::seconds(1));
    tick(now_us());
  }
  if (state_.load(std::memory_order_acquire) == kTimed) {
    lk.unlock();
    for (int s = 1; s <= args_.seconds; s++) {
      sleep_until_us(t_start_us_ + s * 1e6);
      cpu_at_.push_back(cpu_us());
      steal_at_.push_back(steal_ticks());
      if (s == args_.seconds) {
        delta_ = metrics::registry().snapshot();
        state_.store(kStop, std::memory_order_release);
      }
      tick(now_us());
    }
    lk.lock();
  }
  while (!done_) {
    cv_.wait_for(lk, std::chrono::seconds(1));
    tick(now_us());
  }
}

void Run::finish() {
  {
    std::lock_guard<std::mutex> g(mu_);
    done_ = true;
  }
  cv_.notify_all();
  conductor_.join();
}

std::vector<Run::Window> Run::windows(const PerSecond& merged) const {
  // Keep the seconds in which the host stole no more CPU than in the
  // run's median second: on a shared virtual machine a burst of steal
  // stalls whichever proc it hits, and this keeps such bursts out of the
  // figures without choosing by the figures themselves.  Without steal
  // every second is kept.
  const int secs = static_cast<int>(merged.size());
  std::vector<double> steal;
  for (int s = 0; s < secs; s++) {
    steal.push_back(steal_at_[static_cast<std::size_t>(s) + 1] -
                    steal_at_[static_cast<std::size_t>(s)]);
  }
  const double cut = median(steal);
  std::vector<int> kept;
  std::uint64_t ops = 0;
  for (int s = 0; s < secs; s++) {
    if (steal[static_cast<std::size_t>(s)] <= cut) {
      kept.push_back(s);
      ops += merged[static_cast<std::size_t>(s)].count();
    }
  }
  // As many windows as keep >= kMinWindowOps ops each, at most one per
  // kept second.
  const int k = static_cast<int>(kept.size());
  const int n = std::max(1, static_cast<int>(std::min<std::uint64_t>(
                                static_cast<std::uint64_t>(k),
                                ops / kMinWindowOps)));
  std::vector<Window> out(static_cast<std::size_t>(n));
  for (int i = 0; i < k; i++) {
    out[static_cast<std::size_t>(i * n / k)].push_back(
        kept[static_cast<std::size_t>(i)]);
  }
  return out;
}

Metrics Run::end_to_end(const PerSecond& merged) const {
  std::vector<double> ops_s, p50, p99, cpu;
  for (const Window& w : windows(merged)) {
    LatencyHisto h;
    double cpu_w = 0;
    for (const int s : w) {
      const auto i = static_cast<std::size_t>(s);
      h.merge(merged[i]);
      cpu_w += cpu_at_[i + 1] - cpu_at_[i];
    }
    const auto n = static_cast<double>(h.count());
    if (n == 0) continue;
    ops_s.push_back(n / static_cast<double>(w.size()));
    p50.push_back(h.quantile_us(0.50));
    p99.push_back(h.quantile_us(0.99));
    cpu.push_back(cpu_w / n);
  }
  Metrics m;
  m["ops_per_s"] = {median(ops_s), "1/s"};
  m["p50_us"] = {median(p50), "us"};
  m["p99_us"] = {median(p99), "us"};
  m["cpu_us_per_op"] = {median(cpu), "us"};
  m["setup_s"] = {median(setup_s_), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return m;
}

Metrics Run::per_layer(const PerSecond& merged,
                       const std::vector<SpanLog>& spans) const {
  using metrics::Counter;
  using metrics::Histo;
  const metrics::Snapshot& d = delta_;
  double ops = 0;
  std::vector<double> traced, untraced;
  for (std::size_t s = 0; s < merged.size(); s++) {
    const auto n = static_cast<double>(merged[s].count());
    ops += n;
    (s % 2 ? traced : untraced).push_back(n);
  }
  const double per = ops > 0 ? 1 / ops : 0;
  auto c = [&](Counter k) { return static_cast<double>(d.counter(k)); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto p99 = [&](std::initializer_list<Histo> hs) {
    metrics::HistoSnapshot sum;
    for (const Histo h : hs) {
      const auto& x = d.histo(h);
      sum.count += x.count;
      for (std::size_t b = 0; b < metrics::kNumBuckets; b++) {
        sum.buckets[b] += x.buckets[b];
      }
    }
    return log2_quantile(sum, 0.99);
  };

  Metrics m;
  m["threads.dispatches_per_op"] = {c(Counter::kSchedDispatches) * per,
                                    "count"};
  m["threads.forks_per_op"] = {c(Counter::kSchedForks) * per, "count"};
  m["threads.steal_commit_ratio"] = {
      ratio(c(Counter::kSchedStealCommits), c(Counter::kSchedStealAttempts)),
      "ratio"};
  m["threads.park_waits_per_op"] = {c(Counter::kSchedParkWaits) * per, "count"};
  m["threads.wake_to_dispatch_us_p99"] = {p99({Histo::kSchedWakeToDispatchUs}),
                                          "us"};
  m["threads.lock_park_waits_per_op"] = {c(Counter::kLockParkWaits) * per,
                                         "count"};
  m["cont.pool_hit_ratio"] = {
      ratio(c(Counter::kContPoolHits),
            c(Counter::kContPoolHits) + c(Counter::kContPoolMisses)),
      "ratio"};
  m["mp.lock_spin_iters_per_op"] = {c(Counter::kLockSpinIters) * per, "count"};
  m["cml.offers_parked_per_op"] = {c(Counter::kCmlOffersParked) * per, "count"};
  m["cml.select_retries_per_op"] = {c(Counter::kCmlSelectRetries) * per,
                                    "count"};
  m["io.parked_per_op"] = {c(Counter::kIoParked) * per, "count"};
  m["io.notifies_per_op"] = {c(Counter::kIoNotifies) * per, "count"};
  m["io.wait_us_p99"] = {p99({Histo::kIoWaitUs}), "us"};
  m["gc.minor_per_op"] = {c(Counter::kGcMinor) * per, "count"};
  m["gc.pause_us_p99"] = {p99({Histo::kGcPauseUs}), "us"};
  m["gc.pause_share"] = {
      ratio(c(Counter::kGcPauseUsTotal), args_.seconds * 1e6), "ratio"};
  m["gc.alloc_words_per_op"] = {c(Counter::kGcAllocWords) * per, "count"};
  m["kv.queue_us_p99"] = {p99({Histo::kKvQueueUsGet, Histo::kKvQueueUsSet,
                               Histo::kKvQueueUsDel, Histo::kKvQueueUsRange}),
                          "us"};
  m["kv.req_us_p99"] = {p99({Histo::kKvReqUsGet, Histo::kKvReqUsSet,
                             Histo::kKvReqUsDel, Histo::kKvReqUsRange}),
                        "us"};

  // Client spans: mean duration per span name, over the traced seconds.
  std::map<std::string, std::pair<std::uint64_t, double>> totals;
  for (const SpanLog& log : spans) {
    for (const auto& [name, t] : log.totals()) {
      totals[name].first += t.first;
      totals[name].second += t.second;
    }
  }
  auto mean_span = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.first == 0
               ? 0.0
               : it->second.second / static_cast<double>(it->second.first);
  };
  m["io.client_flush_us"] = {mean_span("io.client_flush"), "us"};
  m["kv.client_encode_us"] = {mean_span("kv.client_encode"), "us"};
  m["kv.client_reply_wait_us"] = {mean_span("kv.client_reply_wait"), "us"};
  m["bench.trace_overhead_ratio"] = {ratio(median(traced), median(untraced)),
                                     "ratio"};
  return m;
}

void Run::write_trace(const std::vector<SpanLog>& spans) const {
  if (args_.trace_file.empty()) return;
  std::string out = "{\"otherData\":{\"workload\":";
  json_string(&out, args_.workload);
  out += ",\"seed\":" + std::to_string(args_.seed) + "},\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const SpanLog& log : spans) {
    for (const SpanLog::Span& s : log.kept()) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%llu,"
                    "\"id\":%llu,\"parent\":%llu}}",
                    first ? "" : ",\n", s.name, log.tid(),
                    s.t0_us - t_start_us_, s.t1_us - s.t0_us,
                    static_cast<unsigned long long>(s.trace),
                    static_cast<unsigned long long>(s.trace * 8 + s.k),
                    static_cast<unsigned long long>(s.k ? s.trace * 8 : 0));
      out += buf;
      first = false;
    }
  }
  out += "]}\n";
  std::FILE* f = std::fopen(args_.trace_file.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s: %s\n",
                 args_.trace_file.c_str(), std::strerror(errno));
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, vu] : metrics) {
    if (!first) out += ", ";
    first = false;
    json_string(&out, name);
    std::snprintf(num, sizeof(num), "%.9g", vu.first);
    out += ": {\"value\": ";
    out += num;
    out += ", \"unit\": ";
    json_string(&out, vu.second);
    out += "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
