// Loopback integration tests for tempofaird: concurrent tenants streaming
// jobs over a real socket with live mid-run queries, byte-identical
// equivalence with offline RunRequest runs, squelch-style backpressure, and
// cancellation.  Everything runs against a daemon started in-process on an
// ephemeral loopback port (or a unix socket), so the tests exercise the
// exact frames production clients send.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "workload/generators.h"
#include "workload/source.h"

namespace tempofair::serve {
namespace {

using namespace std::chrono_literals;

/// The tenant's workload rebuilt the way the daemon sees it: jobs in
/// release order with dense sequential ids (the client sends release order,
/// the daemon assigns ids in submission order).
Instance in_submission_order(const Instance& instance) {
  std::vector<Job> ordered;
  ordered.reserve(instance.n());
  for (const JobId id : instance.release_order()) {
    Job job = instance.job(id);
    job.id = static_cast<JobId>(ordered.size());
    ordered.push_back(job);
  }
  return Instance::from_jobs(std::move(ordered));
}

std::vector<Job> make_jobs(std::size_t n, double release_step,
                           double size = 1.0) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(Job{0, release_step * static_cast<double>(i), size, 1.0});
  }
  return jobs;
}

void wait_for_phase(Client& client, std::uint64_t run_id, RunPhase want) {
  for (int i = 0; i < 5000; ++i) {
    if (client.status(run_id).phase == want) return;
    std::this_thread::sleep_for(1ms);
  }
  FAIL() << "run " << run_id << " never reached " << to_string(want);
}

class DaemonTest : public ::testing::Test {
 protected:
  void start(DaemonConfig config) {
    config.tcp_port = 0;  // ephemeral
    daemon_ = std::make_unique<Daemon>(std::move(config));
    daemon_->start();
    port_ = daemon_->tcp_port();
    ASSERT_GT(port_, 0);
  }

  void TearDown() override {
    if (daemon_ != nullptr) daemon_->stop();
  }

  std::unique_ptr<Daemon> daemon_;
  int port_ = -1;
};

// The acceptance scenario: >= 8 concurrent tenants stream chunked jobs over
// the socket, query percentiles / l_k norms while runs are in flight, and
// every tenant's final result is byte-identical to the same workload run
// offline through the RunRequest facade.
TEST_F(DaemonTest, EightTenantsStreamingByteIdenticalToOffline) {
  DaemonConfig config;
  config.workers = 2;
  start(std::move(config));

  constexpr int kTenants = 8;
  std::vector<std::string> failures(kTenants);
  std::vector<std::thread> tenants;
  tenants.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([this, t, &failures] {
      try {
        const Instance inst =
            workload::make_instance(workload::WorkloadSpec::poisson(
                200, 0.9, workload::ExponentialSize{1.0 + 0.1 * t},
                1000 + static_cast<std::uint64_t>(t)));
        RunRequest req;
        req.policy = t % 2 == 0 ? "rr" : "srpt";
        req.record_trace = false;

        Client client =
            Client::connect_tcp(port_, "tenant-" + std::to_string(t));
        const std::uint64_t run_id = client.submit(inst, req, /*chunk=*/25);

        // Live queries while the run is (possibly still) in flight: always
        // answered, monotone progress, finite values.
        std::uint64_t seen = 0;
        for (int probe = 0; probe < 5; ++probe) {
          const MetricsMsg m =
              client.query_metrics(run_id, {2.0, 3.0}, {50.0, 99.0});
          if (m.completed < seen || m.total != inst.n() ||
              m.k_values.size() != 2 || m.pct_values.size() != 2 ||
              !(m.k_values[0] >= 0.0) || !(m.pct_values[1] >= 0.0)) {
            failures[static_cast<std::size_t>(t)] = "bad live metrics";
            return;
          }
          seen = m.completed;
          std::this_thread::sleep_for(1ms);
        }

        const ResultMsg result = client.wait(run_id);
        const RunResult offline = run(in_submission_order(inst), req);
        if (result.completions.size() != offline.schedule.n()) {
          failures[static_cast<std::size_t>(t)] = "size mismatch";
          return;
        }
        for (JobId j = 0; j < offline.schedule.n(); ++j) {
          if (result.completions[j] != offline.schedule.completion(j)) {
            failures[static_cast<std::size_t>(t)] =
                "completion mismatch at job " + std::to_string(j);
            return;
          }
        }
        // flow_stats runs over the same id-ordered vector on both sides.
        if (result.stats.l1 != offline.stats.l1 ||
            result.stats.l2 != offline.stats.l2 ||
            result.stats.linf != offline.stats.linf ||
            result.stats.p99 != offline.stats.p99) {
          failures[static_cast<std::size_t>(t)] = "stats mismatch";
          return;
        }
        if (result.policy != offline.policy) {
          failures[static_cast<std::size_t>(t)] = "policy name mismatch";
          return;
        }
        // Per-tenant accounting: this session saw exactly its own jobs.
        const StatsReplyMsg session_stats = client.stats();
        const std::map<std::string, std::uint64_t> counters(
            session_stats.counters.begin(), session_stats.counters.end());
        if (counters.at("jobs.accepted") != inst.n() ||
            counters.at("runs.accepted") != 1u) {
          failures[static_cast<std::size_t>(t)] = "session counters wrong";
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], "") << "tenant " << t;
  }

  const auto stats = daemon_->stats();
  EXPECT_EQ(stats.at("sessions.opened"), static_cast<std::uint64_t>(kTenants));
  EXPECT_EQ(stats.at("runs.done"), static_cast<std::uint64_t>(kTenants));
}

// A noisy tenant hits its buffered-job cap and gets THROTTLED instead of
// unbounded queue growth; a quiet tenant on its own session is unaffected,
// and the noisy tenant recovers once its queues drain.
TEST_F(DaemonTest, NoisyTenantBackpressureIsBoundedAndRecoverable) {
  DaemonConfig config;
  config.workers = 1;  // one slot: the blocked stream pins the pool
  config.max_active_runs = 8;
  config.max_buffered_jobs = 1000;
  start(std::move(config));

  Client noisy = Client::connect_tcp(port_, "noisy");
  RunRequest stream_req;
  stream_req.policy = "rr";
  stream_req.record_trace = false;

  // Open a streaming run that declares 20 jobs but only delivers 10: the
  // engine consumes them and blocks waiting for the rest, occupying the
  // only worker, so everything submitted next stays queued (and buffered).
  const std::vector<Job> first_half = make_jobs(10, 0.1);
  const std::uint64_t run_a =
      noisy.begin_submit(stream_req, 20, first_half, /*last=*/false);
  wait_for_phase(noisy, run_a, RunPhase::kRunning);

  RunRequest mat_req;
  mat_req.policy = "srpt";
  mat_req.record_trace = false;
  const std::vector<Job> batch = make_jobs(400, 0.01);
  const std::uint64_t run_b = noisy.submit_jobs(mat_req, batch);
  const std::uint64_t run_c = noisy.submit_jobs(mat_req, batch);

  // ~800 jobs buffered against a 1000 cap: the next 400 must be rejected.
  try {
    (void)noisy.submit_jobs(mat_req, batch);
    FAIL() << "expected THROTTLED";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kThrottled);
  }

  // The quiet tenant's session has its own budget: accepted immediately.
  Client quiet = Client::connect_tcp(port_, "quiet");
  const std::vector<Job> small = make_jobs(50, 0.05);
  const std::uint64_t quiet_run = quiet.submit_jobs(mat_req, small);

  // Close the stream; the worker frees and every queued run drains.
  const std::vector<Job> second_half = [&] {
    std::vector<Job> jobs = make_jobs(10, 0.1);
    for (Job& job : jobs) job.release += 1.0;
    return jobs;
  }();
  (void)noisy.submit_chunk(second_half, /*last=*/true);
  EXPECT_EQ(noisy.wait(run_a).completions.size(), 20u);
  EXPECT_EQ(noisy.wait(run_b).completions.size(), 400u);
  EXPECT_EQ(noisy.wait(run_c).completions.size(), 400u);
  EXPECT_EQ(quiet.wait(quiet_run).completions.size(), 50u);

  // Drained: the resend of the rejected batch is accepted (the client-side
  // submit() retry loop automates this; here it is explicit).
  const std::uint64_t run_d = noisy.submit_jobs(mat_req, batch);
  EXPECT_EQ(noisy.wait(run_d).completions.size(), 400u);

  // The throttle left a per-session audit trail.
  const StatsReplyMsg session_stats = noisy.stats();
  std::map<std::string, std::uint64_t> counters(
      session_stats.counters.begin(), session_stats.counters.end());
  EXPECT_GE(counters.at("throttled.jobs"), 1u);
  EXPECT_EQ(counters.at("runs.accepted"), 4u);
}

// The active-run cap throttles run creation (not just buffered jobs).
TEST_F(DaemonTest, ActiveRunCapThrottlesNewRuns) {
  DaemonConfig config;
  config.workers = 1;
  config.max_active_runs = 1;
  start(std::move(config));

  Client client = Client::connect_tcp(port_, "capped");
  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;
  const std::uint64_t run_a =
      client.begin_submit(req, 4, make_jobs(2, 0.1), /*last=*/false);
  wait_for_phase(client, run_a, RunPhase::kRunning);

  try {
    (void)client.submit_jobs(req, make_jobs(3, 0.1));
    FAIL() << "expected THROTTLED";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kThrottled);
  }

  std::vector<Job> tail = make_jobs(2, 0.1);
  for (Job& job : tail) job.release += 0.5;
  (void)client.submit_chunk(tail, /*last=*/true);
  EXPECT_EQ(client.wait(run_a).completions.size(), 4u);

  // Slot free again: accepted.
  const std::uint64_t run_b = client.submit_jobs(req, make_jobs(3, 0.1));
  EXPECT_EQ(client.wait(run_b).completions.size(), 3u);
}

// Regression: the worker releases the tenant's active-run slot before it
// publishes the terminal phase, so a client that submits the moment wait()
// returns is never THROTTLED by its own finished run.
TEST_F(DaemonTest, SlotFreeAsSoonAsWaitReturns) {
  DaemonConfig config;
  config.workers = 1;
  config.max_active_runs = 1;
  start(std::move(config));

  Client client = Client::connect_tcp(port_, "back-to-back");
  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;
  for (int round = 0; round < 300; ++round) {
    std::uint64_t run_id = 0;
    try {
      run_id = client.submit_jobs(req, make_jobs(2, 0.1));
    } catch (const ServerError& e) {
      FAIL() << "round " << round << ": " << e.what();
    }
    ASSERT_EQ(client.wait(run_id).completions.size(), 2u) << "round " << round;
  }
}

// Cancelling a streaming run mid-flight aborts the engine promptly and the
// session stays usable.
TEST_F(DaemonTest, CancelStreamingRunMidFlight) {
  DaemonConfig config;
  config.workers = 1;
  start(std::move(config));

  Client client = Client::connect_tcp(port_, "canceller");
  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;
  const std::uint64_t run_id =
      client.begin_submit(req, 1000, make_jobs(10, 0.1), /*last=*/false);
  wait_for_phase(client, run_id, RunPhase::kRunning);

  (void)client.cancel(run_id);
  wait_for_phase(client, run_id, RunPhase::kCancelled);

  try {
    (void)client.wait(run_id);
    FAIL() << "expected ServerError from a cancelled run";
  } catch (const ServerError&) {
  }

  // The connection and session survive the cancellation.
  const std::uint64_t next_run = client.submit_jobs(req, make_jobs(5, 0.1));
  EXPECT_EQ(client.wait(next_run).completions.size(), 5u);
}

TEST_F(DaemonTest, SemanticErrorsCarryMachineReadableCodes) {
  DaemonConfig config;
  config.workers = 1;
  start(std::move(config));

  Client client = Client::connect_tcp(port_, "errors");
  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;

  try {
    (void)client.status(424242);
    FAIL() << "expected UNKNOWN_RUN";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kUnknownRun);
  }

  // A run that cannot have finished yet answers GET_RESULT with NOT_READY.
  const std::uint64_t open_run =
      client.begin_submit(req, 10, make_jobs(5, 0.1), /*last=*/false);
  try {
    (void)client.result(open_run);
    FAIL() << "expected NOT_READY";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kNotReady);
  }

  // Malformed metric parameters are BAD_REQUEST, not a dead connection.
  try {
    (void)client.query_metrics(open_run, {0.5});  // k < 1 is invalid
    FAIL() << "expected BAD_REQUEST";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kBadRequest);
  }

  // An unknown policy is rejected at submission time.
  RunRequest bad;
  bad.policy = "definitely-not-a-policy";
  try {
    (void)client.submit_jobs(bad, make_jobs(3, 0.1));
    FAIL() << "expected BAD_REQUEST";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kBadRequest);
  }

  // Out-of-order releases within a chunk are rejected as a unit.
  std::vector<Job> disordered = make_jobs(3, 0.1);
  std::swap(disordered[0].release, disordered[2].release);
  try {
    (void)client.submit_jobs(req, disordered);
    FAIL() << "expected BAD_REQUEST";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kBadRequest);
  }

  std::vector<Job> tail = make_jobs(5, 0.1);
  for (Job& job : tail) job.release += 1.0;
  (void)client.submit_chunk(tail, /*last=*/true);
  EXPECT_EQ(client.wait(open_run).completions.size(), 10u);
}

// The v3 acceptance path: a tenant names its workload with one spec string
// instead of shipping job rows.  The daemon synthesizes the stream through
// workload::make_source, so the result is byte-identical to a local
// run_spec() with the same request -- and a malformed spec is a BAD_REQUEST
// at submission time, not a dead run.
TEST_F(DaemonTest, SpecNamedSubmitMatchesLocalRunSpec) {
  DaemonConfig config;
  config.workers = 2;
  start(std::move(config));

  const std::string spec = "poisson:n=250,load=0.9,dist=exp(1.2),seed=19";
  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;

  Client client = Client::connect_tcp(port_, "spec-tenant");
  const std::uint64_t run_id = client.submit_spec(spec, req);
  const ResultMsg result = client.wait(run_id);

  RunRequest local = req;
  local.workload = spec;
  const RunResult offline = workload::run_spec(local);
  ASSERT_EQ(result.completions.size(), offline.schedule.n());
  for (JobId j = 0; j < offline.schedule.n(); ++j) {
    EXPECT_EQ(result.completions[j], offline.schedule.completion(j)) << j;
  }
  EXPECT_EQ(result.stats.l2, offline.stats.l2);
  EXPECT_EQ(result.stats.p99, offline.stats.p99);

  // Session accounting counts the synthesized jobs like streamed ones.
  const StatsReplyMsg stats = client.stats();
  const std::map<std::string, std::uint64_t> counters(stats.counters.begin(),
                                                      stats.counters.end());
  EXPECT_EQ(counters.at("runs.spec_named"), 1u);

  // A bad spec never becomes a run.
  try {
    (void)client.submit_spec("zipf:n=10", req);
    FAIL() << "expected BAD_REQUEST";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code, ErrorCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("workload spec"), std::string::npos)
        << e.what();
  }
}

// Wire-submitted trace: specs name daemon-host files, so they are gated
// behind DaemonConfig::trace_root: rejected outright when no root is
// configured, and resolved paths must stay inside the root -- a tenant
// cannot probe the daemon's filesystem through echoed open errors.
TEST_F(DaemonTest, TraceSpecsGatedByTraceRoot) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("tempofaird-traces-" + std::to_string(::getpid()));
  fs::create_directories(root);
  {
    std::ofstream out(root / "sample.csv");
    out << "id,release,size\n0,0.0,1.0\n1,0.5,2.0\n2,1.0,1.0\n";
  }

  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;

  {
    DaemonConfig config;
    config.workers = 1;
    start(std::move(config));  // no trace root: every trace spec is refused
    Client client = Client::connect_tcp(port_, "trace-tenant");
    try {
      (void)client.submit_spec("trace:" + (root / "sample.csv").string(), req);
      FAIL() << "expected BAD_REQUEST";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code, ErrorCode::kBadRequest);
      EXPECT_NE(std::string(e.what()).find("disabled"), std::string::npos)
          << e.what();
    }
    daemon_->stop();
    daemon_.reset();
  }

  DaemonConfig config;
  config.workers = 1;
  config.trace_root = root.string();
  start(std::move(config));
  Client client = Client::connect_tcp(port_, "trace-tenant");

  // Inside the root -- spelled relative or absolute -- runs end-to-end.
  const std::uint64_t rel = client.submit_spec("trace:sample.csv", req);
  EXPECT_EQ(client.wait(rel).completions.size(), 3u);
  const std::uint64_t abs =
      client.submit_spec("trace:" + (root / "sample.csv").string(), req);
  EXPECT_EQ(client.wait(abs).completions.size(), 3u);

  // Escaping paths are refused before the daemon touches them.
  for (const std::string& spec :
       {std::string("trace:../sample.csv"), std::string("trace:/etc/hostname"),
        std::string("trace:a/../../b.csv")}) {
    try {
      (void)client.submit_spec(spec, req);
      FAIL() << "expected BAD_REQUEST for " << spec;
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code, ErrorCode::kBadRequest);
      EXPECT_NE(std::string(e.what()).find("escapes"), std::string::npos)
          << e.what();
    }
  }
  fs::remove_all(root);
}

TEST_F(DaemonTest, UnixSocketRoundTrip) {
  const std::string path =
      "tempofaird-test-" + std::to_string(::getpid()) + ".sock";
  DaemonConfig config;
  config.workers = 1;
  config.unix_socket_path = path;
  daemon_ = std::make_unique<Daemon>(std::move(config));
  daemon_->start();

  const Instance inst =
      workload::make_instance(workload::WorkloadSpec::poisson(
          100, 0.9, workload::ExponentialSize{1.5}, 5));
  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;

  Client client = Client::connect_unix(path, "unix-tenant");
  const std::uint64_t run_id = client.submit(inst, req, /*chunk=*/30);
  const ResultMsg result = client.wait(run_id);

  const RunResult offline = run(in_submission_order(inst), req);
  ASSERT_EQ(result.completions.size(), offline.schedule.n());
  for (JobId j = 0; j < offline.schedule.n(); ++j) {
    EXPECT_EQ(result.completions[j], offline.schedule.completion(j)) << j;
  }
  daemon_->stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tempofair::serve
