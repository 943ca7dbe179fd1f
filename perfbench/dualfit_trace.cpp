// dualfit_trace: Theorem-1 dual-fitting certificates at scale.  Large
// Poisson instances run under RR at theorem1_speed(k, 1/15) with the rate
// trace recorded, then dual_fit_certificate, for k in {1,2,3} x m in {1,4}.
// Makes the trace arena and the dual-fit do most of the work; bypasses
// lpsolve and serve.
#include <memory>
#include <string>

#include "analysis/dualfit.h"
#include "bench.h"
#include "core/engine.h"
#include "workload/source.h"

namespace perfbench {

namespace {

constexpr std::size_t kJobs = 250'000;
constexpr double kEps = 1.0 / 15.0;
constexpr int kMachines[] = {1, 4};
constexpr double kNorms[] = {1.0, 2.0, 3.0};

std::string instance_spec(std::size_t n, int machines, std::uint64_t seed) {
  return "poisson:n=" + std::to_string(n) + ",load=0.9,dist=exp(1.5),seed=" +
         std::to_string(seed) + ",machines=" + std::to_string(machines);
}

tempofair::RunRequest request(double k, int machines, bool record_trace) {
  tempofair::RunRequest req;
  req.policy = "rr";
  req.machines = machines;
  req.speed = tempofair::analysis::theorem1_speed(k, kEps);
  req.record_trace = record_trace;
  return req;
}

struct State {
  std::vector<tempofair::Instance> instances;  // parallel to kMachines
};

}  // namespace

void dualfit_trace(Context& ctx) {
  const std::uint64_t seed = ctx.options().seed;
  auto [state, setup_s, setup_wall_s] = repeated_setup(ctx.gauge, [&] {
    auto st = std::make_unique<State>();
    for (const int m : kMachines) {
      st->instances.push_back(
          tempofair::workload::make_instance(instance_spec(kJobs, m, seed)));
    }
    // Warm-up: one small traced run and certificate per machine count.
    for (const int m : kMachines) {
      const auto small =
          tempofair::workload::make_instance(instance_spec(5'000, m, seed));
      const auto r = tempofair::run(small, request(2.0, m, true));
      (void)tempofair::analysis::dual_fit_certificate(
          r.schedule, tempofair::analysis::DualFitOptions{2.0, kEps, 0.0});
    }
    return st;
  });

  constexpr std::size_t kCases = std::size(kNorms) * std::size(kMachines);
  Lane& lane = ctx.lane();
  std::uint64_t digests[kCases] = {};
  double objectives[kCases] = {};
  EndToEnd e2e{setup_s, setup_wall_s, {}, {}, {}};
  std::vector<double> traced_pass_s, untraced_pass_s;
  double rows = 0.0, trace_bytes = 0.0, epochs = 0.0, checks_run = 0.0;
  std::uint64_t certs = 0, valid = 0, op_id = 0;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.options().seconds * 1e9);
  for (int pass = 0; pass < 2 || now_ns() < deadline; ++pass) {
    const bool traced = ctx.traced() && pass % 2 == 1;
    lane.enabled = traced;
    double pass_ns = 0.0;
    std::size_t c = 0;
    for (std::size_t mi = 0; mi < std::size(kMachines); ++mi) {
      for (const double k : kNorms) {
        const int m = kMachines[mi];
        const tempofair::Instance& inst = state->instances[mi];
        const std::uint64_t id = ++op_id;
        const std::string what = "dualfit_trace.k" +
                                 std::to_string(static_cast<int>(k)) + ".m" +
                                 std::to_string(m);
        tempofair::RunResult r;
        tempofair::analysis::DualFitResult cert;
        std::uint64_t dig = 0;
        bool ok = true;
        {
          auto root = lane.span("bench", id);
          const std::int64_t t0 = now_ns();
          {
            auto s = lane.span("engine.rr", id);
            r = tempofair::run(inst, request(k, m, true));
          }
          {
            auto s = lane.span("dualfit", id);
            cert = tempofair::analysis::dual_fit_certificate(
                r.schedule, tempofair::analysis::DualFitOptions{k, kEps, 0.0});
          }
          const std::int64_t t1 = now_ns();
          pass_ns += static_cast<double>(t1 - t0);
          e2e.op_wall_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);

          ok &= ctx.expect(r.schedule.n() == kJobs && all_completed(r.schedule),
                           what + ": completion count");
          ok &= ctx.expect(r.invariants.ok(),
                           what + ": " + tempofair::summarize(r.invariants));
          const std::string fs = check_flow_stats(r.schedule, r.stats);
          ok &= ctx.expect(fs.empty(), what + ": FlowStats." + fs);
          ok &= ctx.expect(cert.certificate_valid(),
                           what + ": dual-fit certificate invalid");
          dig = digest(r.schedule.completions());
          if (pass == 0) {
            digests[c] = dig;
            objectives[c] = cert.dual_objective;
          }
          ok &= ctx.expect(dig == digests[c] &&
                               cert.dual_objective == objectives[c],
                           what + ": output differs between passes");
          ok &= ctx.expect_committed(what, hex64(dig));
          ++certs;
          if (cert.certificate_valid()) ++valid;
        }
        if (traced) {
          rows += static_cast<double>(r.schedule.trace().size());
          trace_bytes += static_cast<double>(r.schedule.trace_memory_bytes());
          epochs += static_cast<double>(r.invariants.epochs_seen);
          checks_run += static_cast<double>(r.invariants.checks_run);
          auto probe = lane.span("probe", id);
          {
            auto s = lane.span("flow_stats", id);
            const auto again = tempofair::flow_stats(r.schedule);
            ok &= ctx.expect(again.l2 == r.stats.l2,
                             what + ": flow_stats(schedule) differs");
          }
          // The same run without the rate trace: the difference is the
          // trace arena's cost.
          auto s = lane.span("engine.rr_untraced", id);
          const auto plain = tempofair::run(inst, request(k, m, false));
          ok &= ctx.expect(digest(plain.schedule.completions()) == dig,
                           what + ": trace recording changed the schedule");
        }
        ctx.op_done(ok);
        ctx.gauge.tick();
        ++c;
      }
    }
    const double pass_s = pass_ns * 1e-9;
    close_window(e2e, ctx.gauge, static_cast<double>(kJobs * kCases),
                 static_cast<double>(kCases), pass_s);
    // In reference seconds, so that host drift between passes does not
    // read as span overhead.
    (traced ? traced_pass_s : untraced_pass_s)
        .push_back(pass_s * e2e.windows.back().scale);
    if (traced) {
      auto probe = lane.span("probe", op_id);
      auto s = lane.span("workload.instance", op_id);
      const auto again = tempofair::workload::make_instance(
          instance_spec(kJobs, kMachines[0], seed));
      ctx.expect(again.n() == kJobs, "dualfit_trace: make_instance");
    }
  }
  lane.enabled = ctx.traced();

  if (!ctx.traced()) {
    report_end_to_end(ctx, e2e);
    return;
  }
  const SpanSummary sum = ctx.summary();
  const double passes = static_cast<double>(traced_pass_s.size());
  std::map<std::string, double> layer;
  layer["workload.gen_ns_per_job"] =
      sum.total_ns("workload.instance") / (passes * kJobs);
  layer["engine.rr.ns_per_epoch"] = sum.total_ns("engine.rr") / epochs;
  layer["engine.rr.epochs"] = epochs / passes;
  layer["invariants.checks_run"] = checks_run / passes;
  layer["flow_stats.ns_per_job"] =
      sum.total_ns("flow_stats") / (passes * kJobs * kCases);
  layer["trace.rows"] = rows / passes;
  layer["trace.bytes_per_row"] = trace_bytes / rows;
  layer["trace.ns_per_row"] =
      (sum.total_ns("engine.rr") - sum.total_ns("engine.rr_untraced")) / rows;
  layer["dualfit.ns_per_row"] = sum.total_ns("dualfit") / rows;
  layer["dualfit.valid_frac"] =
      static_cast<double>(valid) / static_cast<double>(certs);
  layer["bench.op_samples"] = static_cast<double>(e2e.op_wall_ms.size());
  report_per_layer(ctx, std::move(layer),
                   median(traced_pass_s) / median(untraced_pass_s) - 1.0);
}

}  // namespace perfbench
