// daemon_loopback: an in-process tempofaird (shipped DaemonConfig defaults
// except workers = 2) on a unix socket, driven by two closed-loop client
// threads with one connection and one run in flight each.  Requests mix
// job-row submits (submit_jobs) with spec-named submits (submit_spec, the
// daemon builds the jobs) over rr, srpt, laps and setf; each run is driven
// through status polling to result by hand, so every ServerError --
// THROTTLED included -- is counted instead of being retried away.  Makes
// the serve layer do most of the work around many small engine runs.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "core/engine.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "workload/source.h"

namespace perfbench {

namespace {

namespace serve = tempofair::serve;

constexpr std::size_t kJobs = 5'000;
constexpr int kClients = 2;
constexpr int kWorkloadsPerKind = 2;
constexpr int kWarmRunsPerClient = 4;
/// The daemon keeps every run's result until its session closes, so a
/// connection that never closes grows without bound; clients reconnect
/// after this many runs, which keeps peak RSS independent of throughput.
constexpr int kRunsPerSession = 200;
constexpr const char* kPolicies[] = {"rr", "srpt", "laps:0.5", "setf"};
/// The clients run in windows of this length.  Between windows they pause
/// while the host speed gauge is sampled; traced runs alternate untraced
/// and traced windows.
constexpr std::int64_t kWindowNs = 500'000'000;

/// One distinct request of the pool, with its local reference result.
struct Request {
  bool spec_named = false;
  std::string spec;
  std::vector<tempofair::Job> jobs;  // job-row submits only
  tempofair::RunRequest req;
  std::vector<double> completions;
  tempofair::FlowStats stats;
};

struct State {
  std::vector<Request> pool;
  std::string socket;
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<serve::Client> clients;  // destroyed before the daemon stops

  ~State() {
    clients.clear();
    if (daemon) daemon->stop();
  }
};

std::vector<Request> make_pool(std::uint64_t seed) {
  std::vector<Request> pool;
  for (int i = 0; i < kWorkloadsPerKind; ++i) {
    for (const bool spec_named : {false, true}) {
      const std::string spec =
          "poisson:n=" + std::to_string(kJobs) + ",load=0.9,dist=exp(" +
          (spec_named ? "1.0" : "1.5") + "),seed=" +
          std::to_string(seed * 100 + static_cast<std::uint64_t>(i) +
                         (spec_named ? 50 : 0));
      tempofair::Instance instance;
      if (!spec_named) instance = tempofair::workload::make_instance(spec);
      for (const char* policy : kPolicies) {
        Request q;
        q.spec_named = spec_named;
        q.spec = spec;
        q.req.policy = policy;
        q.req.record_trace = false;
        tempofair::RunResult local;
        if (spec_named) {
          tempofair::RunRequest named = q.req;
          named.workload = spec;
          local = tempofair::workload::run_spec(named);
        } else {
          // The daemon numbers jobs in submission (release) order.
          for (const tempofair::JobId id : instance.release_order()) {
            q.jobs.push_back(instance.job(id));
          }
          local = tempofair::run(instance, q.req);
        }
        q.completions.assign(local.schedule.completions().begin(),
                             local.schedule.completions().end());
        q.stats = local.stats;
        pool.push_back(std::move(q));
      }
    }
  }
  return pool;
}

/// What one client thread measured.
struct ClientLog {
  std::vector<double> rtt_ms, traced_rtt_ms, untraced_rtt_ms;
  std::vector<double> server_ms;
  std::map<std::string, std::pair<double, double>> engine;  // wall s, epochs
  std::map<std::string, std::uint64_t> engine_runs;
  std::uint64_t polls = 0, throttled = 0, checks_run = 0;
  std::vector<std::size_t> window;  ///< window of each good run
};

bool same_stats(const tempofair::FlowStats& a, const tempofair::FlowStats& b) {
  return a.n == b.n && a.l1 == b.l1 && a.l2 == b.l2 && a.l3 == b.l3 &&
         a.linf == b.linf && a.mean == b.mean && a.variance == b.variance &&
         a.p50 == b.p50 && a.p95 == b.p95 && a.p99 == b.p99;
}

/// Submits `q`, polls status to a terminal phase, fetches and checks the
/// result.  Returns false if the operation failed; throws only on a broken
/// connection.
bool round_trip(Context& ctx, serve::Client& client, const Request& q,
                Lane& lane, std::uint64_t id, ClientLog& log,
                std::int64_t& latency_ns) {
  auto root = lane.span("bench", id);
  const std::int64_t t0 = now_ns();
  try {
    std::uint64_t run = 0;
    {
      auto s = lane.span("serve.submit", id);
      run = q.spec_named ? client.submit_spec(q.spec, q.req)
                         : client.submit_jobs(q.req, q.jobs);
    }
    serve::StatusMsg status;
    {
      // Client::wait's loop, by hand: poll, sleep 1 ms, poll again.
      auto s = lane.span("serve.wait", id);
      for (;;) {
        {
          auto p = lane.span("serve.status", id);
          status = client.status(run);
        }
        ++log.polls;
        if (status.phase != serve::RunPhase::kQueued &&
            status.phase != serve::RunPhase::kRunning) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (status.phase != serve::RunPhase::kDone) {
      return ctx.expect(false, "daemon_loopback: run " + std::to_string(run) +
                                   " ended " +
                                   std::string(serve::to_string(status.phase)) +
                                   ": " + status.error);
    }
    serve::ResultMsg res;
    {
      auto s = lane.span("serve.result", id);
      res = client.result(run);
    }
    latency_ns = now_ns() - t0;

    const std::string what = "daemon_loopback." + q.req.policy +
                             (q.spec_named ? ".spec" : ".jobs");
    bool ok = ctx.expect(res.completions.size() == q.completions.size() &&
                             digest(res.completions) == digest(q.completions),
                         what + ": completions differ from the local run");
    ok &= ctx.expect(same_stats(res.stats, q.stats),
                     what + ": FlowStats differ from the local run");
    ok &= ctx.expect(res.invariants.ok(),
                     what + ": " + tempofair::summarize(res.invariants));
    log.server_ms.push_back(res.wall_seconds * 1e3);
    auto& [wall, epochs] = log.engine[res.policy];
    wall += res.wall_seconds;
    epochs += static_cast<double>(res.invariants.epochs_seen);
    ++log.engine_runs[res.policy];
    log.checks_run += res.invariants.checks_run;
    return ok;
  } catch (const serve::ServerError& e) {
    if (e.code == serve::ErrorCode::kThrottled) ++log.throttled;
    std::cerr << "perfbench: daemon_loopback: server error: " << e.what() << "\n";
    return false;
  }
}

}  // namespace

void daemon_loopback(Context& ctx) {
  const std::uint64_t seed = ctx.options().seed;
  auto [state, setup_s, setup_wall_s] = repeated_setup(ctx.gauge, [&] {
    auto st = std::make_unique<State>();
    st->pool = make_pool(seed);
    std::filesystem::create_directories(".bench_build");
    st->socket = ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
    serve::DaemonConfig config;
    config.unix_socket_path = st->socket;
    config.workers = 2;
    st->daemon = std::make_unique<serve::Daemon>(std::move(config));
    st->daemon->start();
    for (int c = 0; c < kClients; ++c) {
      st->clients.push_back(serve::Client::connect_unix(
          st->socket, "perfbench-" + std::to_string(c)));
    }
    // Warm-up: a few checked round trips per connection.
    Lane off;
    ClientLog scratch;
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kWarmRunsPerClient; ++i) {
        std::int64_t ns = 0;
        const Request& q = st->pool[static_cast<std::size_t>(c * 3 + i) %
                                    st->pool.size()];
        ctx.expect(round_trip(ctx, st->clients[static_cast<std::size_t>(c)], q,
                              off, 0, scratch, ns),
                   "daemon_loopback: warm-up round trip");
      }
    }
    return st;
  });

  std::vector<Lane*> lanes{&ctx.lane()};
  while (lanes.size() < kClients) lanes.push_back(&ctx.new_lane());
  std::vector<ClientLog> logs(kClients);
  const auto before = state->daemon->stats();
  // Window w runs between two barrier phases; the main thread sets
  // `window` and `window_end` before opening it and samples the gauge
  // while the clients wait.
  std::barrier sync(kClients + 1);
  std::size_t window = 0;
  std::int64_t window_end = 0;
  bool stop = false;
  std::atomic<std::uint64_t> next_id{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      ClientLog& log = logs[ci];
      Lane& lane = *lanes[ci];
      // Each client walks the pool from its own offset.
      std::size_t next = ci * state->pool.size() / kClients;
      bool connected = true;
      for (int runs = 0;;) {
        sync.arrive_and_wait();  // the window opens
        if (stop) break;
        const bool traced = ctx.traced() && window % 2 == 1;
        lane.enabled = traced;
        while (connected && now_ns() < window_end) {
          try {
            if (runs == kRunsPerSession) {
              runs = 0;
              state->clients[ci] = serve::Client::connect_unix(
                  state->socket, "perfbench-" + std::to_string(c));
            }
            ++runs;
            const Request& q = state->pool[next++ % state->pool.size()];
            std::int64_t latency_ns = 0;
            const bool ok = round_trip(ctx, state->clients[ci], q, lane,
                                       ++next_id, log, latency_ns);
            ctx.op_done(ok);
            if (!ok) continue;
            log.window.push_back(window);
            const double ms = static_cast<double>(latency_ns) * 1e-6;
            log.rtt_ms.push_back(ms);
            (traced ? log.traced_rtt_ms : log.untraced_rtt_ms).push_back(ms);
          } catch (const std::exception& e) {
            // The connection is gone; this client stops.
            connected = false;
            ctx.op_done(false);
            ctx.expect(false,
                       std::string("daemon_loopback: transport: ") + e.what());
          }
        }
        lane.enabled = false;
        sync.arrive_and_wait();  // the window closes
      }
    });
  }
  std::vector<double> window_s, window_scale;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.options().seconds * 1e9);
  double gauge_ns = ctx.gauge.sample_every_cpu();
  for (window = 0; window < 2 || now_ns() < deadline; ++window) {
    const std::int64_t t0 = now_ns();
    window_end = t0 + kWindowNs;
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    window_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    // The window's scale comes from the samples on either side of it.
    const double after_ns = ctx.gauge.sample_every_cpu();
    window_scale.push_back(HostGauge::kNominalNs / (0.5 * (gauge_ns + after_ns)));
    gauge_ns = after_ns;
  }
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  const auto after = state->daemon->stats();

  ClientLog all;
  for (const ClientLog& log : logs) {
    for (std::vector<double> ClientLog::*v :
         {&ClientLog::rtt_ms, &ClientLog::traced_rtt_ms,
                    &ClientLog::untraced_rtt_ms, &ClientLog::server_ms}) {
      (all.*v).insert((all.*v).end(), (log.*v).begin(), (log.*v).end());
    }
    for (const auto& [policy, we] : log.engine) {
      all.engine[policy].first += we.first;
      all.engine[policy].second += we.second;
      all.engine_runs[policy] += log.engine_runs.at(policy);
    }
    all.polls += log.polls;
    all.throttled += log.throttled;
    all.checks_run += log.checks_run;
    all.window.insert(all.window.end(), log.window.begin(), log.window.end());
  }
  const auto runs = static_cast<double>(all.rtt_ms.size());

  if (!ctx.traced()) {
    EndToEnd e2e{setup_s, setup_wall_s, {}, all.rtt_ms, {}};
    std::vector<double> per_window(window_s.size(), 0.0);
    for (const std::size_t w : all.window) per_window[w] += 1.0;
    for (std::size_t w = 0; w < window_s.size(); ++w) {
      e2e.windows.push_back(Window{per_window[w] * kJobs, per_window[w],
                                   window_s[w], window_scale[w]});
    }
    for (const ClientLog& log : logs) {
      for (const std::size_t w : log.window) {
        e2e.op_scale.push_back(window_scale[w]);
      }
    }
    report_end_to_end(ctx, e2e);
    return;
  }
  const auto delta = [&](const char* key) {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  const SpanSummary sum = ctx.summary();
  std::map<std::string, double> layer;
  for (const auto& [policy, we] : all.engine) {
    const std::string base = "engine." + policy;
    layer[base + ".ns_per_epoch"] = we.first * 1e9 / we.second;
    layer[base + ".epochs"] =
        we.second / static_cast<double>(all.engine_runs.at(policy));
  }
  layer["invariants.checks_run"] = static_cast<double>(all.checks_run) / runs;
  // Only this workload has enough round trips per run (>= 1000) for a p99
  // with ten samples beyond it.
  layer["serve.rtt_ms_p99"] = percentile(all.rtt_ms, 99.0);
  layer["serve.submit_ms_p50"] = median(sum.get("serve.submit").durations_ns) * 1e-6;
  layer["serve.wait_ms_p50"] = median(sum.get("serve.wait").durations_ns) * 1e-6;
  layer["serve.result_ms_p50"] = median(sum.get("serve.result").durations_ns) * 1e-6;
  layer["serve.server_engine_ms_p50"] = median(all.server_ms);
  layer["serve.status_polls_per_run"] = static_cast<double>(all.polls) / runs;
  layer["serve.throttled"] = static_cast<double>(all.throttled);
  layer["daemon.runs_done"] = delta("runs.done");
  layer["daemon.runs_failed"] = delta("runs.failed");
  layer["daemon.invariant_violations"] = delta("runs.invariant_violations");
  layer["daemon.frames_per_run"] = delta("frames.served") / delta("runs.done");
  layer["bench.op_samples"] = runs;
  report_per_layer(ctx, std::move(layer),
                   median(all.traced_rtt_ms) / median(all.untraced_rtt_ms) - 1.0);
}

}  // namespace perfbench
