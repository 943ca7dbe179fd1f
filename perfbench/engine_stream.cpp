// engine_stream: long streamed Poisson workloads under every fast-path share
// policy, trace off, invariants at the shipped default (sampled).  Stresses
// the workload stream, FastForwardCore, the invariant battery and flow_stats;
// bypasses the trace arena, analysis, lpsolve and serve.
#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "core/engine.h"
#include "workload/source.h"

namespace perfbench {

namespace {

constexpr std::size_t kJobs = 250'000;
constexpr std::size_t kWarmJobs = 20'000;

struct Policy {
  const char* spec;
  const char* name;  // metric / span / expected-value key
};
constexpr Policy kPolicies[] = {
    {"rr", "rr"}, {"srpt", "srpt"}, {"setf", "setf"},
    {"laps:0.5", "laps"}, {"mlfq", "mlfq"}};

std::string stream_spec(std::size_t n, std::uint64_t seed) {
  return "poisson:n=" + std::to_string(n) +
         ",load=0.9,dist=exp(1.5),seed=" + std::to_string(seed);
}

tempofair::RunRequest request(const char* policy) {
  tempofair::RunRequest req;
  req.policy = policy;
  req.record_trace = false;
  return req;
}

struct State {
  std::unique_ptr<tempofair::workload::WorkloadSource> source;
};

}  // namespace

void engine_stream(Context& ctx) {
  const std::uint64_t seed = ctx.options().seed;
  auto [state, setup_s, setup_wall_s] = repeated_setup(ctx.gauge, [&] {
    auto st = std::make_unique<State>();
    st->source = tempofair::workload::make_source(stream_spec(kJobs, seed));
    // Warm-up: fault in every policy's code path and the allocator.
    const auto warm =
        tempofair::workload::make_source(stream_spec(kWarmJobs, seed));
    for (const Policy& p : kPolicies) {
      auto stream = warm->stream();
      (void)tempofair::run(*stream, request(p.spec));
    }
    return st;
  });

  Lane& lane = ctx.lane();
  std::uint64_t digests[std::size(kPolicies)] = {};
  EndToEnd e2e{setup_s, setup_wall_s, {}, {}, {}};
  std::vector<double> traced_pass_s, untraced_pass_s, inv_ratio;
  std::map<std::string, double> layer;
  std::uint64_t checks_run = 0;
  std::uint64_t op_id = 0;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.options().seconds * 1e9);
  for (int pass = 0; pass < 2 || now_ns() < deadline; ++pass) {
    // A traced run alternates untraced and traced passes; the difference
    // between them is the span recorder's overhead.
    const bool traced = ctx.traced() && pass % 2 == 1;
    lane.enabled = traced;
    double pass_ns = 0.0;
    std::int64_t rr_cpu_ns = 0;
    for (std::size_t i = 0; i < std::size(kPolicies); ++i) {
      const Policy& p = kPolicies[i];
      const std::uint64_t id = ++op_id;
      const std::string what = std::string("engine_stream.") + p.name;
      tempofair::RunResult r;
      bool ok = true;
      {
        auto root = lane.span("bench", id);
        const std::int64_t cpu0 = thread_cpu_ns();
        const std::int64_t t0 = now_ns();
        {
          auto s = lane.span(std::string("engine.") + p.name, id);
          auto stream = state->source->stream();
          r = tempofair::run(*stream, request(p.spec));
        }
        const std::int64_t t1 = now_ns();
        if (i == 0) rr_cpu_ns = thread_cpu_ns() - cpu0;
        pass_ns += static_cast<double>(t1 - t0);
        e2e.op_wall_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);

        ok &= ctx.expect(r.schedule.n() == kJobs && all_completed(r.schedule),
                         what + ": completion count");
        ok &= ctx.expect(r.invariants.ok(),
                         what + ": " + tempofair::summarize(r.invariants));
        const std::string fs = check_flow_stats(r.schedule, r.stats);
        ok &= ctx.expect(fs.empty(), what + ": FlowStats." + fs);
        const std::uint64_t dig = digest(r.schedule.completions());
        if (pass == 0) digests[i] = dig;
        ok &= ctx.expect(dig == digests[i],
                         what + ": completions differ between passes");
        ok &= ctx.expect_committed(what, hex64(dig));
      }
      if (traced) {
        checks_run += r.invariants.checks_run;
        layer[std::string("engine.") + p.name + ".epochs"] =
            static_cast<double>(r.invariants.epochs_seen);
        auto probe = lane.span("probe", id);
        tempofair::FlowStats again;
        {
          auto s = lane.span("flow_stats", id);
          again = tempofair::flow_stats(r.schedule);
        }
        ok &= ctx.expect(again.l2 == r.stats.l2 && again.p99 == r.stats.p99,
                         what + ": flow_stats(schedule) differs from RunResult");
      }
      ctx.op_done(ok);
      ctx.gauge.tick();
    }
    const double pass_s = pass_ns * 1e-9;
    close_window(e2e, ctx.gauge,
                 static_cast<double>(kJobs * std::size(kPolicies)),
                 static_cast<double>(std::size(kPolicies)), pass_s);
    // In reference seconds, so that host drift between passes does not
    // read as span overhead.
    (traced ? traced_pass_s : untraced_pass_s)
        .push_back(pass_s * e2e.windows.back().scale);

    if (traced) {
      auto probe = lane.span("probe", op_id);
      {
        // The stream drained alone: workload generation without the engine.
        auto s = lane.span("workload.stream", op_id);
        auto stream = state->source->stream();
        double sink = 0.0;
        for (std::size_t j = 0; j < kJobs; ++j) sink += stream->next().size;
        ctx.expect(sink > 0.0, "engine_stream: drained stream");
      }
      // Sampled-invariant cost: the same rr run with the battery off.
      tempofair::RunRequest off = request("rr");
      off.invariants = tempofair::InvariantMode::kOff;
      auto s = lane.span("engine.rr_invariants_off", op_id);
      const std::int64_t cpu0 = thread_cpu_ns();
      auto stream = state->source->stream();
      const auto r = tempofair::run(*stream, off);
      inv_ratio.push_back(static_cast<double>(rr_cpu_ns) /
                          static_cast<double>(thread_cpu_ns() - cpu0));
      ctx.expect(digest(r.schedule.completions()) == digests[0],
                 "engine_stream.rr: invariants off changed the schedule");
    }
  }
  lane.enabled = ctx.traced();

  if (!ctx.traced()) {
    report_end_to_end(ctx, e2e);
    return;
  }
  const SpanSummary sum = ctx.summary();
  const double traced_passes = static_cast<double>(traced_pass_s.size());
  layer["workload.gen_ns_per_job"] =
      sum.total_ns("workload.stream") / (traced_passes * kJobs);
  for (const Policy& p : kPolicies) {
    const std::string base = std::string("engine.") + p.name;
    layer[base + ".ns_per_epoch"] =
        sum.total_ns(base) / (traced_passes * layer[base + ".epochs"]);
  }
  layer["invariants.sampled_overhead"] = median(inv_ratio);
  layer["invariants.checks_run"] = static_cast<double>(checks_run) / traced_passes;
  layer["flow_stats.ns_per_job"] =
      sum.total_ns("flow_stats") /
      (traced_passes * static_cast<double>(kJobs * std::size(kPolicies)));
  layer["bench.op_samples"] = static_cast<double>(e2e.op_wall_ms.size());
  report_per_layer(ctx, std::move(layer),
                   median(traced_pass_s) / median(untraced_pass_s) - 1.0);
}

}  // namespace perfbench
