// certify_lp: the T1 pipeline on a fixed batch of small instances.  Each
// instance, for k in {1,2,3}: RR traced at Theorem-1 speed ->
// dual_fit_certificate -> opt_bounds (LP + exact-rational certificate) ->
// measure_ratio.  The LP and its certificate take nearly all of the time;
// the engine and dual-fit are almost free, so per-run engine overhead shows
// up in the SRPT/SJF proxy runs on tiny instances.
#include <cmath>
#include <memory>
#include <string>

#include "analysis/competitive.h"
#include "analysis/dualfit.h"
#include "bench.h"
#include "core/engine.h"
#include "lpsolve/lower_bounds.h"
#include "policies/round_robin.h"
#include "workload/source.h"

namespace perfbench {

namespace {

constexpr double kEps = 1.0 / 15.0;
constexpr double kNorms[] = {1.0, 2.0, 3.0};
constexpr int kSeedsPerDist = 3;

struct Named {
  std::string name;  // expected-value key
  std::string spec;
};

/// The batch: n=40 Poisson instances of three size distributions over
/// three seeds, plus two adversarial families.  It is fixed, as in the T1
/// experiment: LP and certificate cost varies tenfold between instances of
/// one family, so a batch of this size drawn from the run's seed would vary
/// in cost far beyond any useful regression bound.
std::vector<Named> batch() {
  std::vector<Named> out;
  const std::pair<const char*, const char*> dists[] = {
      {"exp", "load=0.9,dist=exp(1.5)"},
      {"pareto", "load=0.9,dist=pareto(1.8,0.5,50)"},
      {"bimodal", "load=0.95,dist=bimodal(0.9,1,20)"}};
  for (int s = 0; s < kSeedsPerDist; ++s) {
    for (const auto& [name, params] : dists) {
      out.push_back({std::string(name) + ".s" + std::to_string(s),
                     std::string("poisson:n=40,") + params +
                         ",seed=" + std::to_string(100 + s)});
    }
  }
  out.push_back({"rr_l2_hard", "adv-rr-l2-hard:n=16"});
  out.push_back({"geometric", "adv-geometric:levels=6"});
  return out;
}

tempofair::RunRequest request(double k, bool record_trace) {
  tempofair::RunRequest req;
  req.policy = "rr";
  req.speed = tempofair::analysis::theorem1_speed(k, kEps);
  req.record_trace = record_trace;
  return req;
}

tempofair::lpsolve::OptBoundsOptions bounds_options(double k, bool with_lp) {
  tempofair::lpsolve::OptBoundsOptions o;
  o.k = k;
  o.with_lp = with_lp;
  return o;
}

struct State {
  std::vector<Named> names;
  std::vector<tempofair::Instance> instances;
};

}  // namespace

void certify_lp(Context& ctx) {
  auto [state, setup_s, setup_wall_s] = repeated_setup(ctx.gauge, [&] {
    auto st = std::make_unique<State>();
    st->names = batch();
    for (const Named& n : st->names) {
      st->instances.push_back(tempofair::workload::make_instance(n.spec));
    }
    // Warm-up: one full certification.
    const auto b = tempofair::lpsolve::opt_bounds(st->instances.front(),
                                                  bounds_options(2.0, true));
    tempofair::RoundRobin rr;
    tempofair::analysis::RatioOptions ro;
    ro.k = 2.0;
    ro.speed = request(2.0, false).speed;
    (void)tempofair::analysis::measure_ratio(st->instances.front(), rr, ro, b);
    return st;
  });

  const std::size_t cases = state->instances.size() * std::size(kNorms);
  // The seed rotates the order in which the fixed batch is certified.
  const std::size_t rotation = ctx.options().seed % cases;
  std::size_t batch_jobs = 0;
  for (const auto& inst : state->instances) batch_jobs += inst.n();
  Lane& lane = ctx.lane();
  std::vector<double> lbs(cases, 0.0);
  EndToEnd e2e{setup_s, setup_wall_s, {}, {}, {}};
  std::vector<double> traced_pass_s, untraced_pass_s;
  double rows = 0.0, trace_bytes = 0.0, epochs = 0.0, checks_run = 0.0;
  std::uint64_t certs = 0, valid = 0, certified = 0, op_id = 0;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.options().seconds * 1e9);
  for (int pass = 0; pass < 2 || now_ns() < deadline; ++pass) {
    const bool traced = ctx.traced() && pass % 2 == 1;
    lane.enabled = traced;
    double pass_ns = 0.0;
    for (std::size_t step = 0; step < cases; ++step) {
      const std::size_t c = (step + rotation) % cases;
      const std::size_t i = c / std::size(kNorms);
      const double k = kNorms[c % std::size(kNorms)];
      const tempofair::Instance& inst = state->instances[i];
      const std::uint64_t id = ++op_id;
      const std::string what = "certify_lp." + state->names[i].name + ".k" +
                               std::to_string(static_cast<int>(k));
      tempofair::RunResult r;
      tempofair::analysis::DualFitResult cert;
      tempofair::lpsolve::OptBounds bounds;
      tempofair::analysis::RatioMeasurement ratio;
      bool ok = true;
      {
        auto root = lane.span("bench", id);
        const std::int64_t t0 = now_ns();
        {
          auto s = lane.span("engine.rr", id);
          r = tempofair::run(inst, request(k, true));
        }
        {
          auto s = lane.span("dualfit", id);
          cert = tempofair::analysis::dual_fit_certificate(
              r.schedule, tempofair::analysis::DualFitOptions{k, kEps, 0.0});
        }
        {
          auto s = lane.span("lpsolve.opt_bounds", id);
          bounds = tempofair::lpsolve::opt_bounds(inst, bounds_options(k, true));
        }
        {
          auto s = lane.span("competitive.measure_ratio", id);
          tempofair::RoundRobin rr;
          tempofair::analysis::RatioOptions ro;
          ro.k = k;
          ro.speed = request(k, false).speed;
          ratio = tempofair::analysis::measure_ratio(inst, rr, ro, bounds);
        }
        const std::int64_t t1 = now_ns();
        pass_ns += static_cast<double>(t1 - t0);
        e2e.op_wall_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);

        ok &= ctx.expect(r.schedule.n() == inst.n() && all_completed(r.schedule),
                         what + ": completion count");
        ok &= ctx.expect(r.invariants.ok(),
                         what + ": " + tempofair::summarize(r.invariants));
        const std::string fs = check_flow_stats(r.schedule, r.stats);
        ok &= ctx.expect(fs.empty(), what + ": FlowStats." + fs);
        ok &= ctx.expect(cert.certificate_valid(),
                         what + ": dual-fit certificate invalid");
        ok &= ctx.expect(bounds.lb_certified && ratio.lb_certified &&
                             !ratio.lb_degenerate,
                         what + ": lower bound not certified");
        // The bracket must be ordered: certified lb <= best lb <= proxy.
        ok &= ctx.expect(bounds.certified_lb > 0.0 &&
                             bounds.certified_lb <= bounds.best_lb &&
                             bounds.best_lb <= bounds.proxy_ub * (1 + 1e-9) &&
                             ratio.ratio_vs_lb >= ratio.ratio_vs_proxy,
                         what + ": OPT bracket out of order");
        const double rr_power =
            tempofair::flow_lk_power(r.schedule, k);
        ok &= ctx.expect(std::fabs(ratio.cost_power - rr_power) <=
                             1e-9 * rr_power,
                         what + ": measure_ratio cost differs from the run");
        if (pass == 0) lbs[c] = bounds.certified_lb;
        ok &= ctx.expect(bounds.certified_lb == lbs[c],
                         what + ": certified bound differs between passes");
        ok &= ctx.expect_committed(what, hexfloat(bounds.certified_lb),
                                   /*every_seed=*/true);
        ++certs;
        if (cert.certificate_valid()) ++valid;
        if (bounds.lb_certified) ++certified;
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
        {
          auto s = lane.span("engine.rr_untraced", id);
          const auto plain = tempofair::run(inst, request(k, false));
          ok &= ctx.expect(plain.schedule.completions().size() == inst.n(),
                           what + ": untraced run");
        }
        // opt_bounds without the LP: what remains is the trivial bound
        // and the SRPT/SJF proxy runs.
        auto s = lane.span("lpsolve.opt_bounds_nolp", id);
        const auto nolp =
            tempofair::lpsolve::opt_bounds(inst, bounds_options(k, false));
        ok &= ctx.expect(nolp.proxy_ub == bounds.proxy_ub,
                         what + ": proxy differs without the LP");
      }
      ctx.op_done(ok);
      ctx.gauge.tick();
    }
    const double pass_s = pass_ns * 1e-9;
    close_window(e2e, ctx.gauge,
                 static_cast<double>(batch_jobs * std::size(kNorms)),
                 static_cast<double>(cases), pass_s);
    // In reference seconds, so that host drift between passes does not
    // read as span overhead.
    (traced ? traced_pass_s : untraced_pass_s)
        .push_back(pass_s * e2e.windows.back().scale);
    if (traced) {
      auto probe = lane.span("probe", op_id);
      auto s = lane.span("workload.instance", op_id);
      for (const Named& n : state->names) {
        ctx.expect(tempofair::workload::make_instance(n.spec).n() > 0,
                   "certify_lp: make_instance");
      }
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
      sum.total_ns("workload.instance") / (passes * static_cast<double>(batch_jobs));
  layer["engine.rr.ns_per_epoch"] = sum.total_ns("engine.rr") / epochs;
  layer["engine.rr.epochs"] = epochs / passes;
  layer["invariants.checks_run"] = checks_run / passes;
  layer["flow_stats.ns_per_job"] =
      sum.total_ns("flow_stats") /
      (passes * static_cast<double>(batch_jobs * std::size(kNorms)));
  layer["trace.rows"] = rows / passes;
  layer["trace.bytes_per_row"] = trace_bytes / rows;
  layer["trace.ns_per_row"] =
      (sum.total_ns("engine.rr") - sum.total_ns("engine.rr_untraced")) / rows;
  layer["dualfit.ns_per_row"] = sum.total_ns("dualfit") / rows;
  layer["dualfit.valid_frac"] =
      static_cast<double>(valid) / static_cast<double>(certs);
  layer["competitive.measure_ratio_ms_p50"] =
      median(sum.get("competitive.measure_ratio").durations_ns) * 1e-6;
  layer["lpsolve.opt_bounds_ms_p50"] =
      median(sum.get("lpsolve.opt_bounds").durations_ns) * 1e-6;
  layer["lpsolve.lp_share"] = 1.0 - sum.total_ns("lpsolve.opt_bounds_nolp") /
                                        sum.total_ns("lpsolve.opt_bounds");
  layer["lpsolve.certified_frac"] =
      static_cast<double>(certified) / static_cast<double>(certs);
  layer["bench.op_samples"] = static_cast<double>(e2e.op_wall_ms.size());
  report_per_layer(ctx, std::move(layer),
                   median(traced_pass_s) / median(untraced_pass_s) - 1.0);
}

}  // namespace perfbench
