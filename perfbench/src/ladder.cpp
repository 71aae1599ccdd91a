// The per-layer ladder: a workload's own inputs replayed single-threaded
// through the public functions of each layer, bottom up — closed form,
// batched closed form, CostCache, admission argmin, cycle engine, reference
// GEMM, memory planner, inference runner, bare dispatchers, then one client
// round-tripping through an idle Server and an idle Fleet.  Each rung's
// number is its own cost, so a change to one layer shows on its rung.
#include <algorithm>
#include <span>

#include "engine/cost_cache.h"
#include "engine/engine.h"
#include "fleet/fleet.h"
#include "gemm/reference.h"
#include "gemm/tiling.h"
#include "mem/tile_scheduler.h"
#include "nn/runner.h"
#include "serve/dispatcher.h"
#include "trace.h"
#include "workload.h"

namespace pb {
namespace {

using af::gemm::GemmShape;

constexpr std::size_t kChunk = 64;      // cost_plan's batch size
constexpr int kMinPasses = 3;
constexpr std::size_t kMinRoundTrips = 1000;  // enough for a supported p99

// Keeps results observable so the timed calls are not optimized away.
volatile std::int64_t g_sink = 0;

// Repeats `pass` (which returns the nanoseconds it spent on its timed part)
// until the budget is used, at least kMinPasses times; median ns per item.
template <typename Pass>
double ns_per_item(double budget_s, std::size_t items, Pass&& pass) {
  std::vector<double> per_item;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  do {
    per_item.push_back(static_cast<double>(pass()) / static_cast<double>(items));
  } while (per_item.size() < static_cast<std::size_t>(kMinPasses) || now_ns() < end);
  return median(per_item);
}

std::int64_t macs(const OperandGemm& g) {
  return g.a.rows() * g.a.cols() * g.b->cols();
}

// MACs per second of `run` over the operand GEMMs, cycling until the budget
// is used (at least one full pass).
template <typename Run>
double macs_per_s(double budget_s, const std::vector<OperandGemm>& gemms, Run&& run) {
  std::int64_t done = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t i = 0; i < gemms.size() || now_ns() < end; ++i) {
    const OperandGemm& g = gemms[i % gemms.size()];
    run(g);
    done += macs(g);
  }
  return static_cast<double>(done) / (static_cast<double>(now_ns() - t0) * 1e-9);
}

void engine_rungs(const LadderInputs& in, double budget_s,
                  std::map<std::string, double>& out) {
  const std::shared_ptr<af::engine::Engine> engine =
      af::engine::EngineBuilder().config(in.config).energy(in.server.energy).build("analytic");
  const std::vector<GemmShape>& shapes = in.shapes;
  const std::size_t n = shapes.size();
  auto chunks = [&](auto&& fn) {
    for (std::size_t i = 0; i < n; i += kChunk) {
      fn(std::span<const GemmShape>(shapes).subspan(i, std::min(kChunk, n - i)));
    }
  };
  out["engine.evaluate_ns"] = ns_per_item(budget_s, n, [&] {
    const std::int64_t t0 = now_ns();
    for (const GemmShape& s : shapes) g_sink = g_sink + engine->evaluate(s, 0).cycles;
    return now_ns() - t0;
  });
  out["engine.evaluate_batch_cold_ns"] = ns_per_item(budget_s, n, [&] {
    std::int64_t timed = 0;
    chunks([&](std::span<const GemmShape> chunk) {
      engine->cost_cache()->clear();
      const std::int64_t t0 = now_ns();
      g_sink = g_sink + engine->evaluate_batch(chunk, 0).front().cycles;
      timed += now_ns() - t0;
    });
    return timed;
  });
  chunks([&](std::span<const GemmShape> chunk) { engine->evaluate_batch(chunk, 0); });
  out["engine.evaluate_batch_warm_ns"] = ns_per_item(budget_s, n, [&] {
    const std::int64_t t0 = now_ns();
    chunks([&](std::span<const GemmShape> chunk) {
      g_sink = g_sink + engine->evaluate_batch(chunk, 0).front().cycles;
    });
    return now_ns() - t0;
  });
  out["engine.evaluate_cached_miss_ns"] = ns_per_item(budget_s, n, [&] {
    engine->cost_cache()->clear();
    const std::int64_t t0 = now_ns();
    for (const GemmShape& s : shapes) g_sink = g_sink + engine->evaluate_cached(s, 0).cycles;
    return now_ns() - t0;
  });
  out["engine.evaluate_cached_hit_ns"] = ns_per_item(budget_s, n, [&] {
    const std::int64_t t0 = now_ns();
    for (const GemmShape& s : shapes) g_sink = g_sink + engine->evaluate_cached(s, 0).cycles;
    return now_ns() - t0;
  });
  for (const GemmShape& s : shapes) engine->best_mode_cached(s);
  out["engine.best_mode_cached_ns"] = ns_per_item(budget_s, n, [&] {
    const std::int64_t t0 = now_ns();
    for (const GemmShape& s : shapes) g_sink = g_sink + engine->best_mode_cached(s).k;
    return now_ns() - t0;
  });

  const af::nn::InferenceRunner runner(engine);
  std::size_t layers = 0;
  for (const auto& model : in.models) layers += model->layers.size();
  for (const auto& model : in.models) runner.run(*model);
  out["nn.runner_us_per_layer"] = 1e-3 * ns_per_item(budget_s, layers, [&] {
    const std::int64_t t0 = now_ns();
    for (const auto& model : in.models) {
      g_sink = g_sink + static_cast<std::int64_t>(runner.run(*model).layers.size());
    }
    return now_ns() - t0;
  });

  // The memory planner on the workload's shapes, fed the per-tile compute
  // cycles the engine would hand it (memory model enabled, defaults kept
  // when the workload already enables it).
  af::arch::ArrayConfig planned = in.config;
  planned.mem.enabled = true;
  af::arch::ArrayConfig compute_only = in.config;
  compute_only.mem.enabled = false;
  const std::shared_ptr<af::engine::Engine> compute =
      af::engine::EngineBuilder().config(compute_only).build("analytic");
  const af::mem::TileScheduler scheduler(planned);
  std::vector<std::pair<GemmShape, std::int64_t>> plans;
  for (const GemmShape& s : shapes) {
    const af::engine::CostEstimate e = compute->evaluate(s, 1);
    const std::int64_t tiles = af::gemm::tile_count(s, planned.rows, planned.cols);
    try {
      scheduler.plan(s, e.cycles / tiles);
      plans.emplace_back(s, e.cycles / tiles);
    } catch (const af::Error&) {
      // Larger than the scratchpad can stage: not a plannable input.
    }
  }
  out["mem.plan_ns"] = plans.empty() ? 0.0 : ns_per_item(budget_s, plans.size(), [&] {
    const std::int64_t t0 = now_ns();
    for (const auto& [s, per_tile] : plans) {
      g_sink = g_sink + scheduler.plan(s, per_tile).total_cycles;
    }
    return now_ns() - t0;
  });
}

void operand_rungs(const LadderInputs& in, double budget_s,
                   std::map<std::string, double>& out) {
  const std::shared_ptr<af::engine::Engine> cycle =
      af::engine::EngineBuilder().config(in.config).energy(in.server.energy).build("cycle");
  out["engine.cycle_macs_per_s"] = macs_per_s(budget_s, in.gemms, [&](const OperandGemm& g) {
    af::engine::GemmRequest request;
    request.a = &g.a;
    request.b = g.b.get();
    g_sink = g_sink + cycle->run_gemm(request).cost.cycles;
  });
  out["gemm.reference_macs_per_s"] = macs_per_s(budget_s, in.gemms, [&](const OperandGemm& g) {
    g_sink = g_sink + af::gemm::reference_gemm(g.a, *g.b).rows();
  });
}

void dispatcher_rungs(const LadderInputs& in, double budget_s,
                      std::map<std::string, double>& out) {
  for (const std::string name : {"global", "stealing"}) {
    af::serve::DispatcherOptions opts;
    opts.queue_capacity = in.shapes.size() + 1;
    opts.max_batch = 1;
    opts.max_shards = 1;
    opts.live_shards = 1;
    opts.can_scale = false;
    const std::unique_ptr<af::serve::Dispatcher> dispatcher =
        af::serve::make_dispatcher(name, opts);
    out["serve.dispatcher_push_pop_ns." + name] = ns_per_item(budget_s, in.shapes.size(), [&] {
      std::vector<af::serve::Request> requests(in.shapes.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        af::serve::Request& r = requests[i];
        r.id = i;
        r.tenant = "ladder";
        r.shape = in.shapes[i];
        r.want_output = false;
        r.drr_cost = std::max<std::int64_t>(1, r.shape.m * r.shape.n * r.shape.t);
        r.enqueue_time = af::serve::Clock::now();
      }
      const std::int64_t t0 = now_ns();
      for (af::serve::Request& r : requests) {
        dispatcher->submit_for(r, std::chrono::microseconds::max());
        std::optional<af::serve::Batch> batch = dispatcher->next_batch(0);
        g_sink = g_sink + static_cast<std::int64_t>(batch->requests.size());
      }
      return now_ns() - t0;
    });
  }
}

// One client, one call at a time, against an idle Server and an idle Fleet
// of the workload's configuration.
void round_trip_rungs(const LadderInputs& in, double budget_s,
                      std::map<std::string, double>& out) {
  af::serve::SubmitOptions submit;
  submit.want_output = in.want_output;
  const std::int64_t end_server = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  std::vector<double> round_us, submit_us, queue_ms, execute_ms, batch;
  {
    af::serve::Server server(in.config, in.server);
    for (std::size_t i = 0; round_us.size() < kMinRoundTrips || now_ns() < end_server; ++i) {
      const OperandGemm& g = in.gemms[i % in.gemms.size()];
      af::gemm::Mat32 a = g.a;
      const std::int64_t t0 = now_ns();
      auto future = server.submit_gemm("ladder", std::move(a), g.b, submit);
      const std::int64_t t1 = now_ns();
      const af::serve::GemmResult r = future.get();
      round_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      queue_ms.push_back(r.queue_ms);
      execute_ms.push_back(r.latency_ms - r.queue_ms);
      batch.push_back(static_cast<double>(r.batch_requests));
    }
  }
  out["serve.submit_roundtrip_us"] = median(round_us);
  out["serve.submit_us_p50"] = percentile(submit_us, 0.5, "idle submit");
  out["serve.queue_wait_ms_p50"] = percentile(queue_ms, 0.5, "idle queue wait");
  out["serve.queue_wait_ms_p99"] = percentile(queue_ms, 0.99, "idle queue wait");
  out["serve.execute_ms_p50"] = percentile(execute_ms, 0.5, "idle execute");
  out["serve.batch_requests_mean"] = mean(batch);

  std::vector<af::fleet::FleetServerSpec> specs(2);
  for (af::fleet::FleetServerSpec& spec : specs) {
    spec.config = in.config;
    spec.options = in.server;
    spec.options.num_shards = 1;
  }
  af::fleet::Fleet fleet(specs);
  round_us.clear();
  submit_us.clear();
  std::vector<double> overhead_ms;
  const std::int64_t end_fleet = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t i = 0; round_us.size() < kMinRoundTrips || now_ns() < end_fleet; ++i) {
    const OperandGemm& g = in.gemms[i % in.gemms.size()];
    af::gemm::Mat32 a = g.a;
    const std::int64_t t0 = now_ns();
    auto future = fleet.submit_gemm("ladder", std::move(a), g.b, submit);
    const std::int64_t t1 = now_ns();
    const af::serve::GemmResult r = future.get();
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    round_us.push_back(us);
    submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    overhead_ms.push_back(us * 1e-3 - r.latency_ms);
  }
  const af::fleet::FleetStats stats = fleet.stats();
  out["fleet.submit_roundtrip_us"] = median(round_us);
  out["fleet.submit_us_p50"] = percentile(submit_us, 0.5, "idle fleet submit");
  out["fleet.overhead_ms_p50"] = percentile(overhead_ms, 0.5, "idle fleet overhead");
  out["fleet.overhead_ms_p99"] = percentile(overhead_ms, 0.99, "idle fleet overhead");
  out["fleet.failovers"] = static_cast<double>(stats.failovers);
  out["fleet.duplicate_results"] = static_cast<double>(stats.duplicate_results);
}

}  // namespace

std::map<std::string, double> run_ladder(const LadderInputs& in, double budget_s) {
  // Twelve rungs take one share of the budget each; the Server and Fleet
  // round trips take two each.
  const double share = budget_s / 16.0;
  std::map<std::string, double> out;
  engine_rungs(in, share, out);
  operand_rungs(in, share, out);
  dispatcher_rungs(in, share, out);
  round_trip_rungs(in, 2.0 * share, out);
  return out;
}

}  // namespace pb
