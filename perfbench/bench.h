// Shared machinery of the repository benchmark: the run context, failure
// accounting and output checks, the span recorder, and small statistics
// helpers.  Each workload (engine_stream.cpp, dualfit_trace.cpp,
// certify_lp.cpp, daemon_loopback.cpp) times calls into the library's public
// functions from outside and reports through a Context.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/schedule.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU nanoseconds consumed by the calling thread.
[[nodiscard]] std::int64_t thread_cpu_ns();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Steal and total ticks of the aggregate cpu line of /proc/stat (zeros
/// when unreadable).  The hypervisor's steal share explains host noise.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

// --- statistics ---------------------------------------------------------------

/// Interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// --- output checks --------------------------------------------------------------

/// FNV-1a over the bytes of a double column (completion times): equal
/// digests mean bitwise-equal columns.
[[nodiscard]] std::uint64_t digest(std::span<const double> values);
[[nodiscard]] std::string hex64(std::uint64_t v);
/// Exact text of a double (hex float), for committed expected values.
[[nodiscard]] std::string hexfloat(double v);

/// Recomputes the flow statistics of `schedule` from its completion and
/// release columns with code that shares nothing with core/metrics, and
/// compares `stats` against them.  Returns "" on agreement, otherwise a
/// description of the first disagreement.
[[nodiscard]] std::string check_flow_stats(const tempofair::Schedule& schedule,
                                           const tempofair::FlowStats& stats);

/// Every job completed, at a finite time no earlier than its release.
[[nodiscard]] bool all_completed(const tempofair::Schedule& schedule);

// --- span recorder ----------------------------------------------------------------

/// One timed interval.  Spans of one thread nest strictly; `parent` indexes
/// the enclosing span of the same lane (-1 for a root).  `request` names the
/// operation the span belongs to.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// The spans of one thread, kept in memory until the run ends.  A disabled
/// lane records nothing, so untraced runs pay one branch per call site.
class Lane {
 public:
  class Scope {
   public:
    Scope(Lane* lane, std::int32_t index) : lane_(lane), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Lane* lane_;
    std::int32_t index_;
  };

  /// Opens a span closed when the returned Scope is destroyed.
  [[nodiscard]] Scope span(std::string name, std::uint64_t request);

  bool enabled = false;
  std::vector<Span> spans;

 private:
  std::vector<std::int32_t> open_;
};

/// Per-name aggregate of the recorded spans.
struct SpanStats {
  double total_ns = 0.0;
  std::vector<double> durations_ns;
};

/// The summariser: aggregates by span name, and by layer (the name up to
/// its first '.') the self time -- duration minus the time covered by
/// direct children -- inside trees rooted at a span named "bench"
/// -- the measured operations, as opposed to "probe" trees that time extra
/// calls made only for per-layer figures.
struct SpanSummary {
  std::map<std::string, SpanStats> by_name;
  std::map<std::string, double> layer_self_ns;
  double bench_root_ns = 0.0;
  std::uint64_t spans = 0;

  [[nodiscard]] const SpanStats& get(const std::string& name) const;
  [[nodiscard]] double total_ns(const std::string& name) const {
    return get(name).total_ns;
  }
};

[[nodiscard]] SpanSummary summarise(
    const std::vector<std::unique_ptr<Lane>>& lanes);

// --- host speed gauge ------------------------------------------------------------

/// Converts wall times to reference seconds.  On a shared host the speed
/// one vCPU gets drifts by tens of percent over minutes, through contention
/// the guest cannot see (its own CPU time drifts alike), so wall times of
/// the same code taken minutes apart disagree.  The gauge kernel (gauge.h)
/// slows with the host.  A wall time times kNominalNs over the gauge's
/// reading next to it is what the time would have been had the host run
/// the gauge at its nominal speed; such reference times compare across
/// runs and hosts.
class HostGauge {
 public:
  /// The gauge kernel's median wall time on the host the benchmark was
  /// defined on (a 4-vCPU Intel Xeon VM, in a calm stretch).
  static constexpr double kNominalNs = 9.2e6;
  /// Least wall time between two samples taken by tick().
  static constexpr std::int64_t kPeriodNs = 100'000'000;

  /// Runs the kernel once; returns and records its wall nanoseconds.
  double sample();
  /// Runs the kernel on every CPU this process may use at once, one thread
  /// pinned to each; records and returns the mean.  For workloads whose
  /// threads spread over the CPUs, which a shared host slows unevenly.
  double sample_every_cpu();
  /// Samples if kPeriodNs have passed since the last sample.
  void tick();
  /// Reference seconds per wall second, from the mean of the samples taken
  /// since the previous call (one is taken now if there are none).
  [[nodiscard]] double scale();
  /// Median of every sample so far, in ms.
  [[nodiscard]] double median_ms() const;

 private:
  std::vector<double> samples_ns_;
  std::size_t window_begin_ = 0;
  std::int64_t last_ns_ = 0;
};

// --- the run context -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path = "perfbench/expected.txt";
  std::string rev = "unknown";
};

/// The seed whose outputs expected.txt pins.
inline constexpr std::uint64_t kDefaultSeed = 1;

class Context {
 public:
  explicit Context(Options options);

  const Options& options() const noexcept { return options_; }
  bool traced() const noexcept { return options_.trace; }

  // Failure accounting: every attempted operation is counted, and one that
  // fails any check counts as failed.  Thread-safe.
  void op_done(bool ok);
  /// Records a failed output check (the run ends with correct=false and a
  /// nonzero exit).  Returns `ok`.  Thread-safe.
  bool expect(bool ok, const std::string& what);
  /// `value` must equal the committed expected value for `key`.  Checked
  /// at the default seed only, unless the output does not depend on the
  /// seed (`every_seed`).
  bool expect_committed(const std::string& key, const std::string& value,
                        bool every_seed = false);

  /// A new span lane (one per thread), enabled iff the run is traced.
  Lane& new_lane();
  /// Lane of the main thread.
  Lane& lane() { return *lanes_.front(); }
  [[nodiscard]] SpanSummary summary() const { return summarise(lanes_); }

  void metric(const std::string& name, double value, const std::string& unit);

  /// calibration_ns() of this host, measured once at start-up.
  double host_calibration_ns = 0.0;
  HostGauge gauge;
  /// Share of all CPU time stolen by the hypervisor since start-up.
  [[nodiscard]] double steal_share() const;

  /// Writes the spans of a traced run to
  /// .bench_build/spans-<workload>-<seed>.jsonl, prints the report and
  /// returns the process exit code.
  int finish(const std::string& host_line);

 private:
  Options options_;
  std::map<std::string, std::string> expected_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  CpuTicks start_ticks_ = cpu_ticks();
  std::mutex mutex_;  // guards the counters below
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

template <typename State>
struct SetupResult {
  State state;
  double seconds = 0.0;       ///< median, reference seconds
  double wall_seconds = 0.0;  ///< median, wall seconds
};

/// Set-ups per run.  A set-up takes 0.1-0.3 s; the median of five still
/// moved by a fifth between runs of the same code.
inline constexpr int kSetupRepeats = 9;

/// Runs `setup` kSetupRepeats times, keeping the last state, and returns it
/// with the median set-up time.  Each set-up is scaled by a gauge sample
/// taken just before it.
template <typename Setup>
auto repeated_setup(HostGauge& gauge, Setup&& setup) {
  std::vector<double> seconds, wall;
  SetupResult<decltype(setup())> out;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.state = {};  // tear the previous state down outside the timed region
    gauge.sample();
    const double scale = gauge.scale();
    const std::int64_t t0 = now_ns();
    out.state = setup();
    wall.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    seconds.push_back(wall.back() * scale);
  }
  out.seconds = median(std::move(seconds));
  out.wall_seconds = median(std::move(wall));
  return out;
}

// Workloads.  Each sets up (timed, repeated), measures for
// options().seconds, checks its outputs and reports its metrics.
void engine_stream(Context& ctx);
void dualfit_trace(Context& ctx);
void certify_lp(Context& ctx);
void daemon_loopback(Context& ctx);

/// One pass of an engine workload, or one window of daemon_loopback.
struct Window {
  double jobs = 0.0;    ///< simulated jobs completed
  double ops = 0.0;     ///< operations completed
  double wall_s = 0.0;  ///< wall time of the timed calls
  double scale = 1.0;   ///< HostGauge::scale() next to it
};

/// End-to-end metrics shared by every workload.
struct EndToEnd {
  double setup_s = 0.0;  ///< reference seconds
  double setup_wall_s = 0.0;
  std::vector<Window> windows;
  std::vector<double> op_wall_ms;  ///< every measured operation
  std::vector<double> op_scale;    ///< the scale of each one's window
};
/// Closes a window: takes its scale from `gauge` and gives it to the window
/// and to the operations recorded since the previous window closed.
void close_window(EndToEnd& e2e, HostGauge& gauge, double jobs, double ops,
                  double wall_s);
/// Reports throughput over all windows together and the median latency
/// over operations, in reference seconds; prints the same in wall seconds.
void report_end_to_end(Context& ctx, const EndToEnd& e2e);

/// Nanoseconds of a fixed dependent integer loop (median of 5): a host
/// speed yardstick, so reports from different machines compare as ratios.
[[nodiscard]] double calibration_ns();
/// One-line JSON description of the host and build: nproc, CPU model,
/// compiler, build type, source revision and the calibration.
[[nodiscard]] std::string host_fingerprint(const std::string& rev,
                                           double calibration);

/// Reports every per-layer metric name; `values` holds the ones this
/// workload measured, every other layer is reported as 0 (not exercised).
/// Adds the span-derived self-time shares and the host calibration.
void report_per_layer(Context& ctx, std::map<std::string, double> values,
                      double spans_overhead);

}  // namespace perfbench
