// kv_pipe / kv_tcp: the sharded KV service (src/kv, one shard per proc)
// under a closed-loop pipelined load of four connections, over in-process
// duplex pipes or over loopback TCP through the io reactor.
//
// Every connection owns a disjoint key prefix and replays a seeded script
// against a private sequential model, so the model predicts every reply
// byte for byte (per-connection program order holds because a request is
// handed to its shard before the next one is parsed).  The script is the
// make_kv mix (45% SET, 35% GET, 10% DEL, 10% RANGE) over 1024 keys per
// connection with 32-byte values, generated as the run goes, so a run can
// last as long as it is told to.

#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "io/reactor.h"
#include "io/stream.h"
#include "kv/client.h"
#include "kv/server.h"
#include "kv/service.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace perfbench {

namespace {

using mp::kv::Reply;

constexpr int kConns = 4;
constexpr int kWindow = 8;
constexpr int kKeys = 1024;
constexpr int kValueBytes = 32;
// Untimed batches per connection after the preload: lets the shards, the
// stack pool and the CPU settle before the clock starts.
constexpr int kWarmupBatches = 1000;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::string key_name(int conn, int idx) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%03d:k%04d", conn, idx);
  return buf;
}

// Canonical re-encoding of a parsed reply, compared byte for byte with the
// model's expectation (the same encoders on both sides).
std::string reencode(const Reply& rep) {
  std::string out;
  switch (rep.kind) {
    case Reply::Kind::kSimple:
      out = "+" + rep.text + "\r\n";
      break;
    case Reply::Kind::kError:
      out = "-ERR " + rep.text + "\r\n";
      break;
    case Reply::Kind::kInt:
      mp::kv::encode_int(&out, rep.ival);
      break;
    case Reply::Kind::kBulk:
      mp::kv::encode_bulk(&out, rep.text);
      break;
    case Reply::Kind::kNil:
      mp::kv::encode_nil(&out);
      break;
    case Reply::Kind::kArray:
      mp::kv::encode_array_header(&out, rep.items.size());
      for (const std::string& item : rep.items) {
        mp::kv::encode_bulk(&out, item);
      }
      break;
  }
  return out;
}

struct Op {
  mp::kv::Op kind = mp::kv::Op::kGet;
  std::string key;  // point-op key / RANGE lower bound
  std::string value;
  std::string hi;
  long limit = -1;
};

// One connection's seeded request stream and the sequential model that
// predicts its replies.
class Script {
 public:
  Script(std::uint64_t seed, int conn)
      : conn_(conn),
        rng_(mix64(seed ^ (0x9e3779b97f4a7c15ull +
                           static_cast<std::uint64_t>(conn))) |
             1),
        value_(kValueBytes, 'x') {}

  // The preload: SET key `idx` to a seeded value.
  void preload(int idx, Op* op, std::string* expect) {
    op->kind = mp::kv::Op::kSet;
    op->key = key_name(conn_, idx);
    set(op, expect);
  }

  void next(Op* op, std::string* expect) {
    const std::uint64_t r = xorshift(rng_);
    const int idx = static_cast<int>((r >> 32) % kKeys);
    op->key = key_name(conn_, idx);
    expect->clear();
    const auto pick = r % 100;
    if (pick < 45) {
      op->kind = mp::kv::Op::kSet;
      set(op, expect);
    } else if (pick < 80) {
      op->kind = mp::kv::Op::kGet;
      const auto it = model_.find(op->key);
      if (it != model_.end()) {
        mp::kv::encode_bulk(expect, it->second);
      } else {
        mp::kv::encode_nil(expect);
      }
    } else if (pick < 90) {
      op->kind = mp::kv::Op::kDel;
      mp::kv::encode_int(expect, static_cast<long>(model_.erase(op->key)));
    } else {
      op->kind = mp::kv::Op::kRange;
      const int jdx = static_cast<int>((r >> 16) % kKeys);
      op->key = key_name(conn_, std::min(idx, jdx));
      op->hi = key_name(conn_, std::max(idx, jdx));
      op->limit = (r >> 8) % 4 == 0 ? kKeys / 4 : -1;
      std::string body;
      std::size_t items = 0;
      for (auto it = model_.lower_bound(op->key);
           it != model_.end() && it->first <= op->hi; ++it) {
        if (op->limit >= 0 &&
            items / 2 >= static_cast<std::size_t>(op->limit)) {
          break;
        }
        mp::kv::encode_bulk(&body, it->first);
        mp::kv::encode_bulk(&body, it->second);
        items += 2;
      }
      mp::kv::encode_array_header(expect, items);
      *expect += body;
    }
  }

 private:
  void set(Op* op, std::string* expect) {
    for (auto& ch : value_) ch = static_cast<char>('a' + xorshift(rng_) % 26);
    op->value = value_;
    model_[op->key] = value_;
    expect->clear();
    mp::kv::encode_ok(expect);
  }

  int conn_;
  std::uint64_t rng_;
  std::string value_;
  std::map<std::string, std::string> model_;
};

void queue(mp::kv::KvClient& cli, const Op& op) {
  switch (op.kind) {
    case mp::kv::Op::kSet:
      cli.queue_set(op.key, op.value);
      break;
    case mp::kv::Op::kGet:
      cli.queue_get(op.key);
      break;
    case mp::kv::Op::kDel:
      cli.queue_del(op.key);
      break;
    default:
      cli.queue_range(op.key, op.hi, op.limit);
      break;
  }
}

// One client connection: preload, warm-up, then timed batches until the
// round ends.
class Client {
 public:
  Client(Run& run, int conn)
      : run_(run),
        conn_(conn),
        script_(run.args().seed, conn),
        seconds_(static_cast<std::size_t>(run.args().seconds)),
        spans_(conn) {}

  // `warm` is called once, after this client's warm-up; `done` says when
  // the round is over.
  template <typename Warm, typename Done>
  void drive(mp::io::Duplex conn, Warm&& warm, Done&& done) {
    mp::kv::KvClient cli(conn);
    for (int idx = 0; idx < kKeys; idx += kWindow) {
      batch(cli, [&](int i, Op* op, std::string* e) {
        script_.preload(idx + i, op, e);
      });
    }
    for (int b = 0; b < kWarmupBatches; b++) next_batch(cli);
    warm();
    while (!done()) next_batch(cli);
    cli.quit();
  }

  const PerSecond& seconds() const { return seconds_; }
  const SpanLog& spans() const { return spans_; }

 private:
  void next_batch(mp::kv::KvClient& cli) {
    batch(cli, [&](int, Op* op, std::string* e) { script_.next(op, e); });
  }

  // Queue kWindow requests, flush them in one write, then take and check
  // the replies in order.  A batch's requests are timed only when the
  // batch starts inside the timed phase, and traced only when it starts in
  // a traced second.
  template <typename Gen>
  void batch(mp::kv::KvClient& cli, Gen&& gen) {
    const bool timed = run_.timed();
    const bool traced = timed && run_.traced_at(now_us());
    std::array<double, kWindow> t_req{};
    std::array<std::uint64_t, kWindow> trace{};
    for (int i = 0; i < kWindow; i++) {
      t_req[i] = traced ? now_us() : 0;
      gen(i, &op_, &expect_[i]);
      if (run_.corrupt(++made_)) expect_[i] += "!";
      const double t_enc = traced ? now_us() : 0;
      queue(cli, op_);
      if (traced) {
        trace[i] = (static_cast<std::uint64_t>(conn_) << 40) | made_;
        spans_.add("kv.client_encode", trace[i], 1, t_enc, now_us());
      }
    }
    run_.count(kWindow, 0);
    const double t_flush = now_us();
    cli.flush();
    double t_prev = now_us();
    if (traced) spans_.add("io.client_flush", trace[0], 2, t_flush, t_prev);
    std::uint64_t ok = 0;
    for (int i = 0; i < kWindow; i++) {
      const Reply rep = cli.recv_reply();
      const double t_rep = now_us();
      ok += reencode(rep) == expect_[i] ? 1 : 0;
      if (traced) {
        const double t_chk = now_us();
        spans_.add("kv.client_reply_wait", trace[i], 3, t_prev, t_rep);
        spans_.add("bench.check", trace[i], 4, t_rep, t_chk);
        spans_.add("kv.request", trace[i], 0, t_req[i], t_chk);
      }
      t_prev = t_rep;
      const int s = timed ? run_.second_of(t_rep) : -1;
      if (s >= 0) {
        seconds_[static_cast<std::size_t>(s)].record(
            static_cast<std::uint64_t>((t_rep - t_flush) * 1e3));
      }
    }
    run_.count(0, ok);
  }

  Run& run_;
  int conn_;
  Script script_;
  Op op_;
  std::array<std::string, kWindow> expect_;
  std::uint64_t made_ = 0;  // requests generated (trace ids, corruption)
  PerSecond seconds_;
  SpanLog spans_;
};

// One setup round: boot 4 procs, start the service, connect, preload,
// warm up.  The final round then runs the timed phase.
void round(Run& run, bool tcp, bool final,
           std::vector<std::unique_ptr<Client>>* clients,
           double t_round_start) {
  mp::NativePlatformConfig pcfg;
  pcfg.max_procs = kProcs;
  pcfg.seed = run.args().seed;
  mp::NativePlatform platform(pcfg);
  mp::threads::Scheduler::run(platform, {}, [&](mp::threads::Scheduler& sched) {
    mp::kv::KvConfig cfg;
    cfg.seed = run.args().seed;
    mp::kv::KvService svc(sched, cfg);
    svc.start();

    std::unique_ptr<mp::io::Reactor> reactor;
    mp::io::Listener listener;
    if (tcp) {
      reactor = std::make_unique<mp::io::Reactor>(sched);
      listener = mp::io::Listener::tcp(*reactor, 0, 128);
    }
    mp::threads::CountdownLatch clients_done(sched, kConns);
    mp::threads::CountdownLatch servers_done(sched, kConns);
    if (tcp) {
      sched.fork([&] {
        for (int c = 0; c < kConns; c++) {
          mp::io::Stream s = listener.accept();
          sched.fork([&svc, &servers_done, s]() mutable {
            mp::kv::serve(svc, mp::io::Duplex{s, s});
            servers_done.count_down();
          });
        }
      });
    }

    std::atomic<int> cold{kConns};
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

    clients->clear();
    for (int c = 0; c < kConns; c++) {
      clients->push_back(std::make_unique<Client>(run, c));
      Client* cl = clients->back().get();
      mp::io::Duplex client_end;
      if (!tcp) {
        auto [client, server] = mp::io::duplex_pipe(sched, 4096);
        client_end = client;
        sched.fork([&svc, &servers_done, server]() mutable {
          mp::kv::serve(svc, server);
          servers_done.count_down();
        });
      }
      sched.fork([&, cl, client_end]() mutable {
        mp::io::Duplex conn = client_end;
        if (tcp) {
          mp::io::Stream s =
              mp::io::Stream::connect_tcp(*reactor, listener.port());
          conn = mp::io::Duplex{s, s};
        }
        cl->drive(conn, warm, done);
        clients_done.count_down();
      });
    }
    clients_done.await();
    servers_done.await();
    svc.stop();
    if (tcp) {
      listener.close();
      reactor.reset();
    }
  });
}

}  // namespace

WorkloadResult run_kv(Run& run, bool tcp) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int r = 0; r < kSetupRounds; r++) {
    // The first round's setup is counted from process start.
    const double t0 = r == 0 ? run.process_start_us() : now_us();
    round(run, tcp, r == kSetupRounds - 1, &clients, t0);
  }
  WorkloadResult out;
  std::vector<const PerSecond*> parts;
  for (const auto& c : clients) {
    parts.push_back(&c->seconds());
    out.spans.push_back(c->spans());
  }
  out.merged = merge_seconds(parts, run.args().seconds);
  return out;
}

}  // namespace perfbench
