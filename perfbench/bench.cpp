#include "bench.h"
#include "gauge.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return {};
  // user nice system idle iowait irq softirq steal: steal is the 8th field.
  CpuTicks t;
  double field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::uint64_t digest(std::span<const double> values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool all_completed(const tempofair::Schedule& schedule) {
  const auto completion = schedule.completions();
  const auto release = schedule.releases();
  for (std::size_t i = 0; i < completion.size(); ++i) {
    if (!std::isfinite(completion[i]) || completion[i] < release[i]) {
      return false;
    }
  }
  return true;
}

namespace {

bool close(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::max(1.0, std::fabs(want));
}

/// p-th percentile of a vector partially ordered by nth_element, with the
/// same interpolation rule percentile() uses.
double select_percentile(std::vector<double>& v, double p) {
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  const double b = hi == lo ? a
                            : *std::min_element(
                                  v.begin() + static_cast<std::ptrdiff_t>(hi),
                                  v.end());
  const double frac = pos - static_cast<double>(lo);
  return a * (1.0 - frac) + b * frac;
}

}  // namespace

std::string check_flow_stats(const tempofair::Schedule& schedule,
                             const tempofair::FlowStats& stats) {
  const auto completion = schedule.completions();
  const auto release = schedule.releases();
  const std::size_t n = completion.size();
  if (stats.n != n) return "n";
  if (n == 0) return "";
  std::vector<double> flows(n);
  long double s1 = 0, s2 = 0, s3 = 0;
  double mx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = completion[i] - release[i];
    flows[i] = f;
    s1 += f;
    s2 += static_cast<long double>(f) * f;
    s3 += static_cast<long double>(f) * f * f;
    mx = std::max(mx, f);
  }
  const double mean = static_cast<double>(s1 / n);
  const double var = static_cast<double>(s2 / n) - mean * mean;
  constexpr double kRel = 1e-9;
  if (!close(stats.l1, static_cast<double>(s1), kRel)) return "l1";
  if (!close(stats.l2, std::sqrt(static_cast<double>(s2)), kRel)) return "l2";
  if (!close(stats.l3, std::cbrt(static_cast<double>(s3)), kRel)) return "l3";
  if (stats.linf != mx) return "linf";
  if (!close(stats.mean, mean, kRel)) return "mean";
  // The library takes the variance as E[F^2] - mean^2; both sides lose the
  // same cancellation, so compare on the scale of E[F^2].
  if (std::fabs(stats.variance - std::max(0.0, var)) >
      1e-9 * static_cast<double>(s2 / n)) {
    return "variance";
  }
  const double pct[3] = {50.0, 95.0, 99.0};
  const double got[3] = {stats.p50, stats.p95, stats.p99};
  for (int i = 0; i < 3; ++i) {
    if (!close(got[i], select_percentile(flows, pct[i]), 1e-12)) {
      return "p" + std::to_string(static_cast<int>(pct[i]));
    }
  }
  return "";
}

// --- spans --------------------------------------------------------------------

Lane::Scope::~Scope() {
  if (lane_ == nullptr) return;
  lane_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  lane_->open_.pop_back();
}

Lane::Scope Lane::span(std::string name, std::uint64_t request) {
  if (!enabled) return Scope(nullptr, -1);
  const auto index = static_cast<std::int32_t>(spans.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans.push_back(Span{std::move(name), now_ns(), 0, parent, request});
  open_.push_back(index);
  return Scope(this, index);
}

const SpanStats& SpanSummary::get(const std::string& name) const {
  static const SpanStats kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

SpanSummary summarise(const std::vector<std::unique_ptr<Lane>>& lanes) {
  SpanSummary out;
  for (const auto& lane : lanes) {
    const std::vector<Span>& spans = lane->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::size_t> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent >= 0) {
        const auto p = static_cast<std::size_t>(s.parent);
        child_ns[p] += dur;
        root[i] = root[p];
      } else {
        root[i] = i;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      SpanStats& st = out.by_name[s.name];
      st.total_ns += dur;
      st.durations_ns.push_back(dur);
      if (spans[root[i]].name == "bench") {
        out.layer_self_ns[s.name.substr(0, s.name.find('.'))] +=
            dur - child_ns[i];
        if (s.parent < 0) out.bench_root_ns += dur;
      }
    }
    out.spans += spans.size();
  }
  return out;
}

// --- host speed gauge ------------------------------------------------------------

double HostGauge::sample() {
  samples_ns_.push_back(gauge_kernel_ns());
  last_ns_ = now_ns();
  return samples_ns_.back();
}

double HostGauge::sample_every_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return sample();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> ns(cpus.size(), 0.0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
      ns[i] = gauge_kernel_ns();
    });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (const double v : ns) sum += v;
  samples_ns_.push_back(sum / static_cast<double>(ns.size()));
  last_ns_ = now_ns();
  return samples_ns_.back();
}

void HostGauge::tick() {
  if (now_ns() - last_ns_ >= kPeriodNs) sample();
}

double HostGauge::scale() {
  if (window_begin_ == samples_ns_.size()) sample();
  double sum = 0.0;
  for (std::size_t i = window_begin_; i < samples_ns_.size(); ++i) {
    sum += samples_ns_[i];
  }
  const auto n = static_cast<double>(samples_ns_.size() - window_begin_);
  window_begin_ = samples_ns_.size();
  return kNominalNs * n / sum;
}

double HostGauge::median_ms() const { return median(samples_ns_) * 1e-6; }

// --- context --------------------------------------------------------------------

Context::Context(Options options) : options_(std::move(options)) {
  std::ifstream in(options_.expected_path);
  if (!in) {
    throw std::runtime_error("cannot read expected values from " +
                             options_.expected_path);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    if (fields >> key >> value) expected_[key] = value;
  }
  new_lane();
}

void Context::op_done(bool ok) {
  std::lock_guard lock(mutex_);
  ++attempted_;
  if (!ok) ++failed_;
}

bool Context::expect(bool ok, const std::string& what) {
  if (ok) return true;
  std::lock_guard lock(mutex_);
  if (++mismatches_ <= 20) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  return false;
}

bool Context::expect_committed(const std::string& key,
                               const std::string& value, bool every_seed) {
  if (!every_seed && options_.seed != kDefaultSeed) return true;
  const auto it = expected_.find(key);
  if (it == expected_.end()) {
    return expect(false, key + ": no committed value (got " + value + ")");
  }
  return expect(it->second == value,
                key + ": expected " + it->second + ", got " + value);
}

Lane& Context::new_lane() {
  lanes_.push_back(std::make_unique<Lane>());
  lanes_.back()->enabled = options_.trace;
  return *lanes_.back();
}

double Context::steal_share() const {
  const CpuTicks now = cpu_ticks();
  const double total = now.total - start_ticks_.total;
  return total > 0.0 ? (now.steal - start_ticks_.steal) / total : 0.0;
}

void Context::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.emplace_back(name, std::pair{value, unit});
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int Context::finish(const std::string& host_line) {
  if (options_.trace) {
    const std::string path = ".bench_build/spans-" + options_.workload + "-" +
                             std::to_string(options_.seed) + ".jsonl";
    std::filesystem::create_directories(".bench_build");
    std::ofstream out(path);
    out << host_line << "\n";
    std::size_t base = 0;  // span ids are global: lane offset + index
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const std::vector<Span>& spans = lanes_[l]->spans;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << "{\"lane\":" << l << ",\"id\":" << base + i << ",\"parent\":"
            << (s.parent < 0 ? -1
                             : static_cast<std::int64_t>(
                                   base + static_cast<std::size_t>(s.parent)))
            << ",\"name\":" << json_string(s.name)
            << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
      }
      base += spans.size();
    }
    if (!out.flush()) expect(false, "cannot write spans to " + path);
    std::cout << "spans: " << path << "\n";
  }

  std::lock_guard lock(mutex_);
  const bool correct = mismatches_ == 0 && attempted_ > 0;
  std::cout << "failed_frac: " << failed_ << "/" << attempted_
            << "\nhost steal share: " << steal_share() << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, m] = metrics_[i];
    js << (i == 0 ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.first) << ", \"unit\": " << json_string(m.second)
       << "}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

// --- metric reports ---------------------------------------------------------------

void close_window(EndToEnd& e2e, HostGauge& gauge, double jobs, double ops,
                  double wall_s) {
  const double scale = gauge.scale();
  e2e.op_scale.resize(e2e.op_wall_ms.size(), scale);
  e2e.windows.push_back(Window{jobs, ops, wall_s, scale});
}

void report_end_to_end(Context& ctx, const EndToEnd& e2e) {
  // Totals over the whole run: on this kind of host they vary less from
  // run to run than a median over windows does.
  double jobs = 0.0, ops = 0.0, wall_s = 0.0, ref_s = 0.0;
  for (const Window& w : e2e.windows) {
    jobs += w.jobs;
    ops += w.ops;
    wall_s += w.wall_s;
    ref_s += w.wall_s * w.scale;
  }
  std::vector<double> op_ms;
  for (std::size_t i = 0; i < e2e.op_wall_ms.size(); ++i) {
    op_ms.push_back(e2e.op_wall_ms[i] * e2e.op_scale[i]);
  }
  std::cout << "op samples: " << e2e.op_wall_ms.size()
            << "\nwall clock: setup_s " << e2e.setup_wall_s << ", jobs_per_s "
            << jobs / wall_s << ", ops_per_s " << ops / wall_s
            << ", op_ms_p50 " << median(e2e.op_wall_ms) << "\ngauge: "
            << ctx.gauge.median_ms() << " ms (nominal "
            << HostGauge::kNominalNs * 1e-6 << ")\n";
  ctx.metric("setup_s", e2e.setup_s, "s");
  ctx.metric("jobs_per_ref_s", jobs / ref_s, "1/s");
  ctx.metric("ops_per_ref_s", ops / ref_s, "1/s");
  ctx.metric("op_ref_ms_p50", median(op_ms), "ms");
  ctx.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

namespace {

/// Every per-layer metric a workload may set, in report order, with its
/// unit.  BENCHMARK.json lists the same names, then the self_share.* and
/// spans.* ones report_per_layer adds.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"host.calibration_ns", "ns"},
    {"host.gauge_ms", "ms"},
    {"host.steal_frac", "ratio"},
    {"workload.gen_ns_per_job", "ns"},
    {"engine.rr.ns_per_epoch", "ns"},
    {"engine.rr.epochs", "count"},
    {"engine.srpt.ns_per_epoch", "ns"},
    {"engine.srpt.epochs", "count"},
    {"engine.setf.ns_per_epoch", "ns"},
    {"engine.setf.epochs", "count"},
    {"engine.laps.ns_per_epoch", "ns"},
    {"engine.laps.epochs", "count"},
    {"engine.mlfq.ns_per_epoch", "ns"},
    {"engine.mlfq.epochs", "count"},
    {"invariants.sampled_overhead", "ratio"},
    {"invariants.checks_run", "count"},
    {"flow_stats.ns_per_job", "ns"},
    {"trace.rows", "count"},
    {"trace.bytes_per_row", "B"},
    {"trace.ns_per_row", "ns"},
    {"dualfit.ns_per_row", "ns"},
    {"dualfit.valid_frac", "ratio"},
    {"competitive.measure_ratio_ms_p50", "ms"},
    {"lpsolve.opt_bounds_ms_p50", "ms"},
    {"lpsolve.lp_share", "ratio"},
    {"lpsolve.certified_frac", "ratio"},
    {"serve.rtt_ms_p99", "ms"},
    {"serve.submit_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.result_ms_p50", "ms"},
    {"serve.server_engine_ms_p50", "ms"},
    {"serve.status_polls_per_run", "count"},
    {"serve.throttled", "count"},
    {"daemon.runs_done", "count"},
    {"daemon.runs_failed", "count"},
    {"daemon.invariant_violations", "count"},
    {"daemon.frames_per_run", "count"},
    {"bench.op_samples", "count"},
};

/// Layers whose self time the summariser reports as a share of the
/// measured operations' wall time.
constexpr const char* kLayers[] = {"bench",   "workload",    "engine",
                                   "flow_stats", "dualfit", "lpsolve",
                                   "competitive", "serve"};

}  // namespace

/// Nanoseconds of a fixed dependent integer loop: a host speed yardstick,
/// so reports from different machines compare as ratios.
double calibration_ns() {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const std::int64_t t1 = now_ns();
    if (x == 0) std::cout << "";  // keeps the loop observable
    runs.push_back(static_cast<double>(t1 - t0));
  }
  return median(runs);
}

std::string host_fingerprint(const std::string& rev, double calibration) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": " << json_string(cpu)
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"rev\": " << json_string(rev)
      << ", \"calibration_ns\": " << json_number(calibration) << "}}";
  return out.str();
}

void report_per_layer(Context& ctx, std::map<std::string, double> values,
                      double spans_overhead) {
  const SpanSummary sum = ctx.summary();
  values["host.calibration_ns"] = ctx.host_calibration_ns;
  values["host.gauge_ms"] = ctx.gauge.median_ms();
  values["host.steal_frac"] = ctx.steal_share();
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    ctx.metric(name, it == values.end() ? 0.0 : it->second, unit);
    if (it != values.end()) values.erase(it);
  }
  if (!values.empty()) {
    throw std::logic_error("unlisted per-layer metric " + values.begin()->first);
  }
  for (const char* layer : kLayers) {
    const auto it = sum.layer_self_ns.find(layer);
    const double self = it == sum.layer_self_ns.end() ? 0.0 : it->second;
    ctx.metric(std::string("self_share.") + layer,
               sum.bench_root_ns > 0 ? self / sum.bench_root_ns : 0.0,
               "ratio");
  }
  ctx.metric("spans.overhead", spans_overhead, "ratio");
  ctx.metric("spans.count", static_cast<double>(sum.spans), "count");
}

}  // namespace perfbench
