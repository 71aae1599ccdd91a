// PERF — cost-path microbenchmark: where does a cost query's time go?
//
// The serving benches (bench_serving) measure the cost path end to end,
// dispatch and completion plumbing included.  This bench isolates the
// layers so a regression is attributable:
//
//   evaluate_scalar     — the virtual evaluate() loop: one closed-form
//                         Eq. 3/4 finalization per shape per call, the
//                         Eq. 6 argmin read from the sweep store.  The
//                         pre-batching baseline.
//   evaluate_batch_cold — evaluate_batch() with the memo cache cleared
//                         before every call: the SoA two-pass kernel alone
//                         (contiguous shape arrays, no per-element virtual
//                         dispatch).
//   evaluate_batch      — evaluate_batch() in the serving steady state.
//                         With magic memory nothing is memoized, so this
//                         equals the cold rung; it is the number the
//                         batched serving path rides on.
//   evaluate_cached     — the scalar entry point evaluate_cached (magic
//                         memory: a direct closed form, no estimate store).
//   best_mode_cached    — the admission argmin from the warm sweep store:
//                         one locked lookup plus a shared_ptr copy.
//   sweep_uncached      — PipelineOptimizer::sweep recomputed per call:
//                         what best_mode_cached would cost without the
//                         sweep store.  The pair settles whether it pays.
//   submit_scalar       — Server::submit_gemm cost-only round trips: adds
//                         queue hop + promise/future per shape.
//   submit_batched      — Server::submit_gemm_batch at 256 shapes/call:
//                         one queue hop and one pooled completion slot per
//                         CALL instead of per shape.
//
// Every rung reports min/median/max shapes/s over its trials.  A last row
// prices many DISTINCT shapes on a memory-model-on engine (where every
// estimate is stored) and samples the process's VmHWM each time another
// cache capacity's worth of shapes has been priced: once the stores are
// full, CLOCK eviction must hold the peak flat.
//
// Usage: bench_cost_path [--quick] [--commit <rev>].  Writes
// BENCH_cost_path.json, stamped with the commit (as given), compiler,
// build type and hardware thread count.  CI runs --quick as a smoke gate:
// the batched engine path must not lose to the scalar one and batched
// submit must not lose to scalar submit (best trials, >= 1.0x bars, so
// scheduler noise on a loaded runner cannot flake the gate).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/cost_cache.h"
#include "engine/engine.h"
#include "gemm/matrix.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/status.h"

#ifndef AF_BUILD_TYPE
#define AF_BUILD_TYPE "unknown"
#endif

namespace {

using namespace af;

struct Result {
  std::string mode;
  std::int64_t shapes = 0;      // shapes priced per trial
  std::vector<double> seconds;  // one per trial

  // Order statistics of the per-trial rate (shapes/s).
  double rate_at(double quantile) const {
    std::vector<double> rates;
    for (const double s : seconds) {
      rates.push_back(s > 0 ? static_cast<double>(shapes) / s : 0.0);
    }
    std::sort(rates.begin(), rates.end());
    return rates[static_cast<std::size_t>(
        quantile * static_cast<double>(rates.size() - 1) + 0.5)];
  }
  double min() const { return rate_at(0.0); }
  double median() const { return rate_at(0.5); }
  double max() const { return rate_at(1.0); }
};

// Randomized but reproducible shape set: the mix a serving admission loop
// sees, from skinny decode GEMMs to fat prefill tiles.
std::vector<gemm::GemmShape> make_shapes(int count, Rng& rng) {
  std::vector<gemm::GemmShape> shapes;
  shapes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    shapes.push_back({/*m=*/rng.next_in(8, 256), /*n=*/rng.next_in(8, 256),
                      /*t=*/rng.next_in(1, 128)});
  }
  return shapes;
}

// Wall-clock trials of `body`, each pricing `shapes_per_trial` shapes.
template <typename Fn>
Result measure(const std::string& mode, std::int64_t shapes_per_trial,
               int trials, Fn&& body) {
  Result result;
  result.mode = mode;
  result.shapes = shapes_per_trial;
  for (int trial = 0; trial < trials; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    result.seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  return result;
}

// The process's peak resident set (VmHWM) in kB; 0 where /proc is absent.
long vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string commit = "unrecorded";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--commit" && i + 1 < argc) {
      commit = argv[++i];
    }
  }
  const int kShapeCount = 256;
  const int kRepeats = quick ? 20 : 200;       // engine-level passes/trial
  const int kSubmitRepeats = quick ? 4 : 16;   // server round trips/trial
  const int kTrials = quick ? 3 : 5;

  Rng rng(20260808);
  const std::vector<gemm::GemmShape> shapes = make_shapes(kShapeCount, rng);
  const std::span<const gemm::GemmShape> span(shapes);
  const std::int64_t per_trial =
      static_cast<std::int64_t>(kShapeCount) * kRepeats;

  auto engine = engine::EngineBuilder().square(16).build("analytic");

  // Exact-equality spot check before any timing: the batched and cached
  // paths must return bit-identical estimates to the scalar virtual
  // evaluate(), per shape, argmin and fixed modes alike.
  for (const int k : {0, 1, 2, 4}) {
    const std::vector<engine::CostEstimate> batched =
        engine->evaluate_batch(span, k);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      AF_CHECK(engine::exactly_equal(batched[i], engine->evaluate(shapes[i], k)),
               "evaluate_batch diverged from scalar evaluate at shape " << i
                                                                        << " k="
                                                                        << k);
      AF_CHECK(
          engine::exactly_equal(engine->evaluate_cached(shapes[i], k),
                                engine->evaluate(shapes[i], k)),
          "evaluate_cached diverged from scalar evaluate at shape " << i);
    }
  }

  std::vector<Result> results;

  results.push_back(measure("evaluate_scalar", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      for (const gemm::GemmShape& s : shapes) {
        volatile std::int64_t sink = engine->evaluate(s, 0).cycles;
        (void)sink;
      }
    }
  }));

  results.push_back(measure("evaluate_batch_cold", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      engine->cost_cache()->clear();
      volatile std::int64_t sink = engine->evaluate_batch(span, 0)[0].cycles;
      (void)sink;
    }
  }));

  engine->evaluate_batch(span, 0);  // the serving steady state
  results.push_back(measure("evaluate_batch", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      volatile std::int64_t sink = engine->evaluate_batch(span, 0)[0].cycles;
      (void)sink;
    }
  }));

  results.push_back(measure("evaluate_cached", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      for (const gemm::GemmShape& s : shapes) {
        volatile std::int64_t sink = engine->evaluate_cached(s, 0).cycles;
        (void)sink;
      }
    }
  }));

  for (const gemm::GemmShape& s : shapes) engine->best_mode_cached(s);
  results.push_back(measure("best_mode_cached", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      for (const gemm::GemmShape& s : shapes) {
        volatile int sink = engine->best_mode_cached(s).k;
        (void)sink;
      }
    }
  }));

  results.push_back(measure("sweep_uncached", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      for (const gemm::GemmShape& s : shapes) {
        volatile std::size_t sink = engine->optimizer().sweep(s).size();
        (void)sink;
      }
    }
  }));

  // Server round trips: same shape set through the dispatch layer, scalar
  // futures vs one pooled batch ticket per 256 shapes.  One submitter, two
  // shards — this isolates per-request plumbing, not lock contention
  // (bench_serving's contended study owns that axis).
  serve::ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 32;
  opts.queue_capacity = 1024;
  opts.backend = "analytic";
  const std::int64_t submit_per_trial =
      static_cast<std::int64_t>(kShapeCount) * kSubmitRepeats;
  {
    serve::Server server(arch::ArrayConfig::square(16), opts);
    Rng weight_rng(99);
    auto weights = std::make_shared<gemm::Mat32>(
        gemm::random_matrix(weight_rng, 32, 32, -40, 40));
    const gemm::Mat32 activation = gemm::random_matrix(weight_rng, 4, 32,
                                                       -40, 40);
    results.push_back(
        measure("submit_scalar", submit_per_trial, kTrials, [&] {
          constexpr std::size_t kWindow = 64;
          std::vector<std::future<serve::GemmResult>> in_flight;
          for (int r = 0; r < kSubmitRepeats; ++r) {
            for (int i = 0; i < kShapeCount; ++i) {
              in_flight.push_back(server.submit_gemm(
                  "bench", activation, weights, /*k=*/1,
                  /*want_output=*/false));
              if (in_flight.size() >= kWindow) {
                in_flight.front().get();
                in_flight.erase(in_flight.begin());
              }
            }
          }
          for (auto& f : in_flight) f.get();
        }));
  }
  {
    serve::Server server(arch::ArrayConfig::square(16), opts);
    results.push_back(
        measure("submit_batched", submit_per_trial, kTrials, [&] {
          constexpr std::size_t kWindow = 4;
          std::vector<serve::BatchTicket> in_flight;
          for (int r = 0; r < kSubmitRepeats; ++r) {
            in_flight.push_back(server.submit_gemm_batch("bench", span));
            if (in_flight.size() >= kWindow) {
              in_flight.front().get();
              in_flight.erase(in_flight.begin());
            }
          }
          for (auto& t : in_flight) t.get();
        }));
  }

  // Memory model on: every estimate (and every argmin sweep) is stored, so
  // pricing never-repeating shapes fills both stores to capacity and then
  // recycles slots.  VmHWM is sampled once per capacity's worth of shapes.
  arch::ArrayConfig mem_config = arch::ArrayConfig::square(16);
  mem_config.mem.enabled = true;
  auto mem_engine = engine::EngineBuilder().config(mem_config).build("analytic");
  const std::int64_t capacity = mem_engine->cost_cache()->capacity();
  const int fills = quick ? 2 : 4;
  std::vector<long> hwm_kb;
  std::int64_t priced = 0;
  const auto mem_t0 = std::chrono::steady_clock::now();
  for (std::int64_t m = 8; hwm_kb.size() < static_cast<std::size_t>(fills);
       ++m) {
    for (std::int64_t n = 8; n <= 64; n += 8) {
      for (std::int64_t t = 1; t <= 64; ++t) {
        volatile std::int64_t sink =
            mem_engine->evaluate_cached({m, n, t}, 0).cycles;
        (void)sink;
        if (++priced % capacity == 0) hwm_kb.push_back(vm_hwm_kb());
      }
    }
  }
  const double mem_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - mem_t0)
          .count();
  const std::int64_t mem_entries = mem_engine->cost_cache()->size();
  AF_CHECK(mem_entries <= 2 * capacity,
           "memory-on cache holds " << mem_entries << " entries, over 2 x "
                                    << capacity);

  auto row = [&](const std::string& mode) -> const Result& {
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const Result& r) { return r.mode == mode; });
    AF_CHECK(it != results.end(), "no rung named " << mode);
    return *it;
  };

  std::printf("cost path (16x16 analytic, %d shapes, argmin k, %d trials):\n",
              kShapeCount, kTrials);
  std::printf("%20s %10s %12s %12s %12s %10s\n", "mode", "shapes",
              "min/s", "median/s", "max/s", "vs scalar");
  const double scalar = row("evaluate_scalar").median();
  for (const Result& r : results) {
    std::printf("%20s %10lld %12.0f %12.0f %12.0f %9.2fx\n", r.mode.c_str(),
                static_cast<long long>(r.shapes), r.min(), r.median(),
                r.max(), scalar > 0 ? r.median() / scalar : 0.0);
  }
  std::printf(
      "sweep store: best_mode_cached / sweep_uncached = %.2fx (median)\n",
      row("best_mode_cached").median() / row("sweep_uncached").median());
  std::printf(
      "memory on (16x16, cache capacity %lld per store): %lld distinct "
      "shapes, %.0f shapes/s, %lld entries\n  VmHWM kB after each "
      "capacity's worth:",
      static_cast<long long>(capacity), static_cast<long long>(priced),
      static_cast<double>(priced) / mem_seconds,
      static_cast<long long>(mem_entries));
  for (const long kb : hwm_kb) std::printf(" %ld", kb);
  std::printf("\n");

  // The smoke gates.  Both bars are deliberately loose (>= parity where the
  // expected win is 1.4-10x) so the gate cannot flake under CI noise.
  AF_CHECK(row("evaluate_batch").max() >= row("evaluate_scalar").max(),
           "batched evaluate lost to the scalar loop");
  AF_CHECK(row("submit_batched").max() >= row("submit_scalar").max(),
           "batched submit lost to scalar submit");

  std::ostringstream json;
  json << "{\n  \"bench\": \"cost_path\",\n  \"unit\": \"shapes/s\",\n"
       << "  \"stamp\": {\"commit\": \"" << commit << "\", \"compiler\": \""
       << compiler() << "\", \"build_type\": \"" << AF_BUILD_TYPE
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"trials\": " << kTrials << ", \"quick\": "
       << (quick ? "true" : "false") << "},\n"
       << "  \"shape_count\": " << kShapeCount << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"shapes\": " << r.shapes
         << ", \"shapes_per_s_min\": " << r.min()
         << ", \"shapes_per_s_median\": " << r.median()
         << ", \"shapes_per_s_max\": " << r.max()
         << ", \"median_vs_scalar\": "
         << (scalar > 0 ? r.median() / scalar : 0.0) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"memory_on\": {\"array\": \"16x16\", "
       << "\"cache_capacity_per_store\": " << capacity
       << ", \"distinct_shapes\": " << priced
       << ", \"shapes_per_s\": " << static_cast<double>(priced) / mem_seconds
       << ", \"entries\": " << mem_entries << ", \"vmhwm_kb\": [";
  for (std::size_t i = 0; i < hwm_kb.size(); ++i) {
    json << (i > 0 ? ", " : "") << hwm_kb[i];
  }
  json << "]}\n}\n";
  std::ofstream out("BENCH_cost_path.json");
  if (!out) {
    std::cerr << "note: could not write BENCH_cost_path.json\n";
    return 0;
  }
  out << json.str();
  std::cout << "wrote BENCH_cost_path.json\n";
  return 0;
}
