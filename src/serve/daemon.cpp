#include "serve/daemon.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/fast_forward.h"
#include "core/instance.h"
#include "policies/registry.h"
#include "workload/source.h"

namespace tempofair::serve {

namespace {

[[nodiscard]] Frame make_reply(FrameType type, const WireWriter& body) {
  Frame frame;
  frame.type = type;
  frame.payload = body.bytes();
  return frame;
}

[[nodiscard]] Frame make_error(ErrorCode code, std::string message) {
  ErrorMsg msg;
  msg.code = code;
  msg.message = std::move(message);
  WireWriter w;
  encode(w, msg);
  return make_reply(FrameType::kError, w);
}

void throw_errno(const std::string& what) {
  throw std::runtime_error("tempofaird: " + what + ": " +
                           std::strerror(errno));
}

/// Resolves a wire-submitted trace path against the daemon's trace root
/// (relative paths are relative to the root) and refuses anything that
/// escapes it after symlink/dot-dot resolution, so tenants can only name
/// files the operator chose to serve.
[[nodiscard]] std::optional<std::string> resolve_trace_path(
    const std::string& root, const std::string& requested) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path canon_root = fs::weakly_canonical(fs::path(root), ec);
  if (ec) return std::nullopt;
  fs::path candidate(requested);
  if (candidate.is_relative()) candidate = canon_root / candidate;
  const fs::path canon = fs::weakly_canonical(candidate, ec);
  if (ec) return std::nullopt;
  auto mismatch =
      std::mismatch(canon_root.begin(), canon_root.end(), canon.begin(),
                    canon.end());
  if (mismatch.first != canon_root.end()) return std::nullopt;
  return canon.string();
}

[[nodiscard]] int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("tempofaird: unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  return fd;
}

[[nodiscard]] int listen_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(tcp port " + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen(tcp)");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  *bound_port = ntohs(actual.sin_port);
  return fd;
}

}  // namespace

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (started_) throw std::logic_error("tempofaird: start() called twice");
  if (config_.unix_socket_path.empty() && config_.tcp_port < 0) {
    throw std::runtime_error("tempofaird: no listener configured");
  }
  pool_ = std::make_unique<harness::ThreadPool>(config_.workers);
  if (::pipe2(wake_pipe_, O_CLOEXEC) < 0) throw_errno("pipe2");
  if (!config_.unix_socket_path.empty()) {
    unix_fd_ = listen_unix(config_.unix_socket_path);
  }
  if (config_.tcp_port >= 0) {
    tcp_fd_ = listen_tcp(config_.tcp_port, &bound_tcp_port_);
  }
  {
    std::lock_guard lock(conn_mutex_);
    accepting_ = true;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  started_ = true;
}

void Daemon::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  // Stop accepting and wake the poll; no new connections after this.
  {
    std::lock_guard lock(conn_mutex_);
    accepting_ = false;
  }
  const char wake = 'x';
  const ssize_t wrote = ::write(wake_pipe_[1], &wake, 1);
  (void)wrote;
  accept_thread_.join();

  // Kick every connection: a half-closed socket reads EOF at the next frame
  // boundary, so reader threads unwind through their normal cleanup path
  // (cancelling the session's runs).
  {
    std::lock_guard lock(conn_mutex_);
    for (const auto& [fd, thread] : connections_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  {
    std::unique_lock lock(conn_mutex_);
    conn_cv_.wait(lock, [this] { return connections_.empty(); });
  }
  for (std::thread& t : finished_conns_) t.join();
  finished_conns_.clear();

  // Drain the dispatcher and in-flight runs (all cancelled by now).
  {
    std::lock_guard lock(dispatch_mutex_);
    stopping_ = true;
  }
  dispatch_cv_.notify_all();
  dispatch_thread_.join();
  {
    std::unique_lock lock(dispatch_mutex_);
    dispatch_cv_.wait(lock, [this] { return in_flight_ == 0; });
    run_futures_.clear();
  }
  pool_.reset();

  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  if (!config_.unix_socket_path.empty()) {
    ::unlink(config_.unix_socket_path.c_str());
  }
}

std::map<std::string, std::uint64_t> Daemon::stats() const {
  return global_stats_.snapshot();
}

void Daemon::accept_loop() {
  while (true) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {wake_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[0].revents & POLLIN) != 0) return;  // stop() woke us
    for (nfds_t slot = 1; slot < n; ++slot) {
      if ((fds[slot].revents & POLLIN) == 0) continue;
      const int fd = ::accept4(fds[slot].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      std::lock_guard lock(conn_mutex_);
      if (!accepting_) {
        ::close(fd);
        continue;
      }
      connections_.emplace(fd, std::thread([this, fd] { serve_connection(fd); }));
      global_stats_.add("connections.accepted", 1);
    }
  }
}

void Daemon::serve_connection(int fd) {
  std::shared_ptr<Session> session;
  try {
    // Handshake: the first frame must be HELLO with a version we speak.
    if (std::optional<Frame> first = read_frame(fd); first.has_value()) {
      if (first->type != FrameType::kHello) {
        write_frame(fd, make_error(ErrorCode::kNoHello,
                                   "first frame must be HELLO"));
      } else {
        WireReader reader(first->payload);
        const HelloMsg hello = decode_hello(reader);
        if (hello.version != kProtocolVersion) {
          write_frame(fd, make_error(
                              ErrorCode::kBadFrame,
                              "unsupported protocol version " +
                                  std::to_string(hello.version)));
        } else {
          session = std::make_shared<Session>(
              next_session_id_.fetch_add(1), hello.tenant);
          {
            std::lock_guard lock(dispatch_mutex_);
            ring_.push_back(session);
          }
          global_stats_.add("sessions.opened", 1);
          HelloOkMsg ok;
          ok.server = config_.server_name;
          ok.session_id = session->id;
          WireWriter w;
          encode(w, ok);
          write_frame(fd, FrameType::kHelloOk, w);
        }
      }
    }
    if (session != nullptr) {
      while (std::optional<Frame> frame = read_frame(fd)) {
        obs::ScopedSink guard(&session->sink);
        Frame reply;
        try {
          reply = handle_frame(session, *frame);
        } catch (const WireError& e) {
          // Framing is intact (we consumed exactly the declared payload),
          // so a malformed payload is answerable without closing.
          reply = make_error(ErrorCode::kBadFrame, e.what());
        }
        write_frame(fd, reply);
        global_stats_.add("frames.served", 1);
      }
    }
  } catch (const WireError&) {
    // Peer vanished mid-frame or sent garbage at the frame layer; drop it.
  } catch (const std::exception&) {
  }

  if (session != nullptr) {
    // Cancel everything the tenant still owns; results are unreachable once
    // the connection is gone.
    std::vector<std::shared_ptr<RunState>> runs;
    {
      std::lock_guard lock(session->mutex);
      runs.reserve(session->runs.size());
      for (const auto& [id, run] : session->runs) runs.push_back(run);
    }
    for (const std::shared_ptr<RunState>& run : runs) {
      cancel_run(run, "tenant disconnected");
      bool enqueued = false;
      {
        std::lock_guard lock(session->mutex);
        enqueued = run->dispatched;
      }
      if (!enqueued) run->finish(RunPhase::kCancelled, "tenant disconnected");
    }
    {
      std::lock_guard lock(dispatch_mutex_);
      // Runs queued for dispatch but never popped would otherwise dangle.
      if (const auto it = ready_.find(session->id); it != ready_.end()) {
        for (const std::shared_ptr<RunState>& run : it->second) {
          run->finish(RunPhase::kCancelled, "tenant disconnected");
        }
        ready_.erase(it);
      }
      std::erase(ring_, session);
      if (!ring_.empty()) ring_next_ %= ring_.size();
      else ring_next_ = 0;
    }
    global_stats_.add("sessions.closed", 1);
  }

  {
    std::lock_guard lock(conn_mutex_);
    if (auto node = connections_.extract(fd); !node.empty()) {
      finished_conns_.push_back(std::move(node.mapped()));
    }
  }
  ::close(fd);
  conn_cv_.notify_all();
}

Frame Daemon::handle_frame(const std::shared_ptr<Session>& session,
                           const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      return make_error(ErrorCode::kBadFrame, "duplicate HELLO");
    case FrameType::kSubmitJobs:
      session->sink.add("frames.submit", 1);
      return handle_submit(session, frame);
    case FrameType::kQueryMetrics:
      session->sink.add("frames.query_metrics", 1);
      return handle_query_metrics(session, frame);
    case FrameType::kRunStatus:
      session->sink.add("frames.run_status", 1);
      return handle_run_status(session, frame);
    case FrameType::kCancel:
      session->sink.add("frames.cancel", 1);
      return handle_cancel(session, frame);
    case FrameType::kStats:
      session->sink.add("frames.stats", 1);
      return handle_stats(session);
    case FrameType::kGetResult:
      session->sink.add("frames.get_result", 1);
      return handle_get_result(session, frame);
    default:
      return make_error(ErrorCode::kBadFrame,
                        "unexpected frame type " +
                            std::to_string(static_cast<int>(frame.type)));
  }
}

Frame Daemon::handle_submit(const std::shared_ptr<Session>& session,
                            const Frame& frame) {
  WireReader reader(frame.payload);
  const SubmitJobsMsg msg = decode_submit_jobs(reader);

  std::lock_guard lock(session->mutex);
  std::shared_ptr<RunState> run;
  bool created = false;
  if (msg.first) {
    if (session->open.contains(msg.tag)) {
      return make_error(ErrorCode::kBadRequest,
                        "tag " + std::to_string(msg.tag) +
                            " already has an open submission");
    }
    if (session->active_runs >= config_.max_active_runs) {
      session->sink.add("throttled.runs", 1);
      return make_error(ErrorCode::kThrottled,
                        "session already has " +
                            std::to_string(session->active_runs) +
                            " active runs (cap " +
                            std::to_string(config_.max_active_runs) +
                            "); drain or cancel before submitting more");
    }
    if (msg.request.machines < 1 || !(msg.request.speed > 0.0) ||
        !std::isfinite(msg.request.speed) || msg.request.max_steps == 0) {
      return make_error(ErrorCode::kBadRequest, "invalid RunRequest: " +
                                                    msg.request.policy);
    }
    bool fast_capable = false;
    try {
      fast_capable = make_policy(msg.request.policy)->fast_forward().kind !=
                     FastForwardKind::kNone;
    } catch (const std::invalid_argument& e) {
      return make_error(ErrorCode::kBadRequest, e.what());
    }
    if (!msg.request.workload.empty()) {
      // v3 spec-named run: the workload travels as a spec string, not as
      // job chunks.  Resolve it now so a typo answers BAD_REQUEST at
      // submit time, and learn n for progress reporting.
      if (!msg.last || !msg.jobs.empty()) {
        return make_error(ErrorCode::kBadRequest,
                          "a spec-named run is a single chunk with no jobs "
                          "(the workload string replaces them)");
      }
      std::uint64_t total = 0;
      std::string resolved_workload;
      try {
        workload::WorkloadSpec spec =
            workload::WorkloadSpec::parse(msg.request.workload);
        if (spec.kind == "trace") {
          // Trace specs name daemon-host files; only resolve them inside
          // the operator's trace root (and never when no root is
          // configured), so wire submissions cannot probe the filesystem
          // through echoed open/parse errors.
          if (config_.trace_root.empty()) {
            return make_error(ErrorCode::kBadRequest,
                              "workload spec: trace workloads are disabled "
                              "on this daemon (start it with a trace root "
                              "to enable them)");
          }
          const std::string* path = spec.find("path");
          const std::optional<std::string> resolved = resolve_trace_path(
              config_.trace_root, path != nullptr ? *path : std::string());
          if (!resolved) {
            return make_error(ErrorCode::kBadRequest,
                              "workload spec: trace path escapes the "
                              "daemon's trace root");
          }
          spec.set("path", *resolved);
        }
        total = workload::make_source(spec)->n();
        resolved_workload = spec.to_string();
      } catch (const workload::SpecError& e) {
        return make_error(ErrorCode::kBadRequest,
                          "workload spec: " + std::string(e.what()));
      }
      run = std::make_shared<RunState>();
      run->id = next_run_id_.fetch_add(1);
      run->session_id = session->id;
      run->tag = msg.tag;
      run->request = msg.request;
      run->request.workload = resolved_workload;
      run->request.live = &run->live;
      run->request.cancel = &run->cancel;
      run->synthesize = true;
      run->declared_total = total;
      run->accepted = total;
      run->all_chunks_in = true;
      run->dispatched = true;
      run->live.set_expected(static_cast<std::size_t>(total));
      session->runs.emplace(run->id, run);
      ++session->active_runs;
      session->sink.add("runs.accepted", 1);
      session->sink.add("runs.spec_named", 1);
      enqueue_ready(session, run);
      SubmitOkMsg ok;
      ok.tag = msg.tag;
      ok.run_id = run->id;
      ok.accepted_jobs = total;
      WireWriter w;
      encode(w, ok);
      return make_reply(FrameType::kSubmitOk, w);
    }
    run = std::make_shared<RunState>();
    run->id = next_run_id_.fetch_add(1);
    run->session_id = session->id;
    run->tag = msg.tag;
    run->request = msg.request;
    run->request.live = &run->live;
    run->request.cancel = &run->cancel;
    run->declared_total = msg.total_jobs;
    run->streaming = msg.stream && fast_capable && msg.request.use_fast_path &&
                     !msg.request.hide_sizes;
    if (run->streaming) {
      run->stream = std::make_unique<QueueJobStream>(
          static_cast<std::size_t>(msg.total_jobs));
    }
    run->live.set_expected(static_cast<std::size_t>(msg.total_jobs));
    created = true;
  } else {
    const auto it = session->open.find(msg.tag);
    if (it == session->open.end()) {
      return make_error(ErrorCode::kBadRequest,
                        "tag " + std::to_string(msg.tag) +
                            " has no open submission");
    }
    run = it->second;
  }

  // Backpressure on buffered jobs: reject the whole chunk; the client
  // resends it after the queues drain (ids are only assigned on accept, so
  // a resend is exact).
  if (session->buffered_jobs_locked() + msg.jobs.size() >
      config_.max_buffered_jobs) {
    session->sink.add("throttled.jobs", 1);
    return make_error(ErrorCode::kThrottled,
                      "session buffer full (cap " +
                          std::to_string(config_.max_buffered_jobs) +
                          " jobs); retry this chunk after draining");
  }

  // Validate the chunk before accepting any of it.
  auto reject = [&](const std::string& why) {
    if (!created) {
      // The run is already live; a bad chunk poisons it.
      session->open.erase(msg.tag);
      run->cancel.store(true);
      if (run->stream != nullptr) run->stream->abort(why);
      if (!run->dispatched) {
        if (session->active_runs > 0) --session->active_runs;
        run->finish(RunPhase::kFailed, why);
      }
    }
    return make_error(ErrorCode::kBadRequest, why);
  };
  if (run->all_chunks_in) {
    return make_error(ErrorCode::kBadRequest,
                      "run already received its last chunk");
  }
  if (run->accepted + msg.jobs.size() > run->declared_total) {
    return reject("more jobs than the declared total " +
                  std::to_string(run->declared_total));
  }
  double last_release = run->last_release;
  for (const Job& job : msg.jobs) {
    if (!std::isfinite(job.release) || job.release < 0.0 ||
        !std::isfinite(job.size) || !(job.size > 0.0) ||
        !std::isfinite(job.weight) || !(job.weight > 0.0)) {
      return reject("invalid job (release >= 0, size > 0, weight > 0, all "
                    "finite)");
    }
    if (job.release < last_release) {
      return reject("jobs must arrive in nondecreasing release order (got " +
                    std::to_string(job.release) + " after " +
                    std::to_string(last_release) + ")");
    }
    last_release = job.release;
  }
  if (msg.last && run->accepted + msg.jobs.size() != run->declared_total) {
    return reject("last chunk closes the run at " +
                  std::to_string(run->accepted + msg.jobs.size()) +
                  " jobs, but " + std::to_string(run->declared_total) +
                  " were declared");
  }

  // Accept: assign server-side ids and hand the jobs to the run.
  std::vector<Job> chunk(msg.jobs);
  for (Job& job : chunk) {
    job.id = static_cast<JobId>(run->accepted++);
  }
  run->last_release = last_release;
  if (run->stream != nullptr) {
    run->stream->push(chunk);
  } else {
    run->jobs.insert(run->jobs.end(), chunk.begin(), chunk.end());
  }
  session->sink.add("jobs.accepted", chunk.size());

  if (created) {
    session->runs.emplace(run->id, run);
    session->open.emplace(msg.tag, run);
    ++session->active_runs;
    session->sink.add("runs.accepted", 1);
  }
  if (msg.last) {
    run->all_chunks_in = true;
    session->open.erase(msg.tag);
  }
  // Streaming runs dispatch immediately (the engine consumes chunks as they
  // arrive); materialized runs wait for the full instance.
  const bool ready = run->stream != nullptr ? created : msg.last;
  if (ready && !run->dispatched) {
    run->dispatched = true;
    enqueue_ready(session, run);
  }

  SubmitOkMsg ok;
  ok.tag = msg.tag;
  ok.run_id = run->id;
  ok.accepted_jobs = run->accepted;
  WireWriter w;
  encode(w, ok);
  return make_reply(FrameType::kSubmitOk, w);
}

Frame Daemon::handle_query_metrics(const std::shared_ptr<Session>& session,
                                   const Frame& frame) {
  WireReader reader(frame.payload);
  const QueryMetricsMsg msg = decode_query_metrics(reader);
  const std::shared_ptr<RunState> run = session->find_run(msg.run_id);
  if (run == nullptr) {
    return make_error(ErrorCode::kUnknownRun,
                      "no run " + std::to_string(msg.run_id));
  }
  MetricsMsg reply;
  reply.run_id = run->id;
  {
    std::lock_guard lock(run->mutex);
    reply.phase = run->phase;
  }
  reply.completed = run->live.completed();
  reply.total = run->declared_total;
  reply.stats = run->live.snapshot();
  try {
    reply.k_values.reserve(msg.k_norms.size());
    for (const double k : msg.k_norms) reply.k_values.push_back(run->live.lk(k));
    reply.pct_values.reserve(msg.percentiles.size());
    for (const double p : msg.percentiles) {
      reply.pct_values.push_back(run->live.percentile(p));
    }
  } catch (const std::exception& e) {
    return make_error(ErrorCode::kBadRequest, e.what());
  }
  WireWriter w;
  encode(w, reply);
  return make_reply(FrameType::kMetrics, w);
}

Frame Daemon::handle_run_status(const std::shared_ptr<Session>& session,
                                const Frame& frame) {
  WireReader reader(frame.payload);
  const RunStatusMsg msg = decode_run_status(reader);
  const std::shared_ptr<RunState> run = session->find_run(msg.run_id);
  if (run == nullptr) {
    return make_error(ErrorCode::kUnknownRun,
                      "no run " + std::to_string(msg.run_id));
  }
  WireWriter w;
  encode(w, run->status());
  return make_reply(FrameType::kStatus, w);
}

Frame Daemon::handle_cancel(const std::shared_ptr<Session>& session,
                            const Frame& frame) {
  WireReader reader(frame.payload);
  const CancelMsg msg = decode_cancel(reader);
  const std::shared_ptr<RunState> run = session->find_run(msg.run_id);
  if (run == nullptr) {
    return make_error(ErrorCode::kUnknownRun,
                      "no run " + std::to_string(msg.run_id));
  }
  cancel_run(run, "cancelled by client");
  bool enqueued = false;
  {
    std::lock_guard lock(session->mutex);
    enqueued = run->dispatched;
    session->open.erase(run->tag);
  }
  if (!enqueued) {
    {
      std::lock_guard lock(session->mutex);
      if (session->active_runs > 0) --session->active_runs;
    }
    run->finish(RunPhase::kCancelled, "cancelled by client");
  }
  session->sink.add("runs.cancel_requested", 1);
  CancelOkMsg ok;
  ok.run_id = run->id;
  {
    std::lock_guard lock(run->mutex);
    ok.phase = run->phase;
  }
  WireWriter w;
  encode(w, ok);
  return make_reply(FrameType::kCancelOk, w);
}

Frame Daemon::handle_stats(const std::shared_ptr<Session>& session) {
  StatsReplyMsg reply;
  for (auto& [name, value] : session->sink.snapshot()) {
    reply.counters.emplace_back(name, value);
  }
  WireWriter w;
  encode(w, reply);
  return make_reply(FrameType::kStatsReply, w);
}

Frame Daemon::handle_get_result(const std::shared_ptr<Session>& session,
                                const Frame& frame) {
  WireReader reader(frame.payload);
  const GetResultMsg msg = decode_get_result(reader);
  const std::shared_ptr<RunState> run = session->find_run(msg.run_id);
  if (run == nullptr) {
    return make_error(ErrorCode::kUnknownRun,
                      "no run " + std::to_string(msg.run_id));
  }
  ResultMsg reply;
  {
    std::lock_guard lock(run->mutex);
    if (run->phase != RunPhase::kDone) {
      std::string detail = "run is " + std::string(to_string(run->phase));
      if (!run->error.empty()) detail += ": " + run->error;
      return make_error(ErrorCode::kNotReady, detail);
    }
    reply.run_id = run->id;
    reply.policy = run->policy_name;
    reply.wall_seconds = run->wall_seconds;
    reply.stats = run->stats;
    reply.completions = run->completions;
    reply.invariants = run->invariants;
  }
  WireWriter w;
  encode(w, reply);
  return make_reply(FrameType::kResult, w);
}

void Daemon::enqueue_ready(const std::shared_ptr<Session>& session,
                           const std::shared_ptr<RunState>& run) {
  {
    std::lock_guard lock(dispatch_mutex_);
    ready_[session->id].push_back(run);
  }
  dispatch_cv_.notify_one();
}

void Daemon::cancel_run(const std::shared_ptr<RunState>& run,
                        const std::string& reason) {
  run->cancel.store(true);
  if (run->stream != nullptr) run->stream->abort(reason);
}

void Daemon::dispatch_loop() {
  std::unique_lock lock(dispatch_mutex_);
  while (!stopping_) {
    std::shared_ptr<Session> session;
    std::shared_ptr<RunState> run;
    if (in_flight_ < pool_->size() && !ring_.empty()) {
      for (std::size_t i = 0; i < ring_.size(); ++i) {
        const std::size_t idx = (ring_next_ + i) % ring_.size();
        const auto it = ready_.find(ring_[idx]->id);
        if (it == ready_.end() || it->second.empty()) continue;
        session = ring_[idx];
        run = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) ready_.erase(it);
        ring_next_ = (idx + 1) % ring_.size();
        break;
      }
    }
    if (run == nullptr) {
      dispatch_cv_.wait(lock);
      continue;
    }
    ++in_flight_;
    lock.unlock();
    {
      // Install the tenant's sink so the pool task -- and everything the
      // engine records inside it -- attributes to this session.
      obs::ScopedSink guard(&session->sink);
      auto future =
          pool_->submit([this, session, run] { execute_run(session, run); });
      lock.lock();
      run_futures_.push_back(std::move(future));
      std::erase_if(run_futures_, [](std::future<void>& f) {
        return f.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
      });
    }
  }
}

void Daemon::execute_run(const std::shared_ptr<Session>& session,
                         const std::shared_ptr<RunState>& run) {
  RunPhase outcome = RunPhase::kDone;
  std::string error_text;
  if (run->cancel.load()) {
    outcome = RunPhase::kCancelled;
    error_text = "cancelled before start";
  } else {
    {
      std::lock_guard lock(run->mutex);
      if (run->phase == RunPhase::kQueued) run->phase = RunPhase::kRunning;
    }
    try {
      RunResult result;
      if (run->synthesize) {
        result = workload::run_spec(run->request);
      } else if (run->stream != nullptr) {
        result = tempofair::run(*run->stream, run->request);
      } else {
        std::vector<Job> jobs;
        {
          std::lock_guard lock(session->mutex);
          jobs = std::move(run->jobs);
          run->jobs.clear();
        }
        const Instance instance = Instance::from_jobs(std::move(jobs));
        result = tempofair::run(instance, run->request);
      }
      {
        std::lock_guard lock(run->mutex);
        run->policy_name = result.policy;
        run->wall_seconds = result.wall_seconds;
        run->stats = result.stats;
        const std::span<const Time> completions =
            result.schedule.completions();
        run->completions.assign(completions.begin(), completions.end());
        run->invariants = std::move(result.invariants);
      }
      if (!run->invariants.ok()) {
        session->sink.add("runs.invariant_violations",
                          run->invariants.violations);
        global_stats_.add("runs.invariant_violations",
                          run->invariants.violations);
      }
      session->sink.add("runs.done", 1);
      global_stats_.add("runs.done", 1);
    } catch (const RunCancelled& e) {
      outcome = RunPhase::kCancelled;
      error_text = e.what();
      session->sink.add("runs.cancelled", 1);
      global_stats_.add("runs.cancelled", 1);
    } catch (const std::exception& e) {
      outcome = RunPhase::kFailed;
      error_text = e.what();
      session->sink.add("runs.failed", 1);
      global_stats_.add("runs.failed", 1);
    }
  }
  // Free the tenant's slot BEFORE publishing the terminal phase: a client
  // that submits the moment wait() returns must find the slot released.
  {
    std::lock_guard lock(session->mutex);
    if (session->active_runs > 0) --session->active_runs;
  }
  run->finish(outcome, std::move(error_text));
  // in_flight_ drops last, so stop() still waits for this worker to finish.
  {
    std::lock_guard lock(dispatch_mutex_);
    --in_flight_;
  }
  dispatch_cv_.notify_all();
}

}  // namespace tempofair::serve
