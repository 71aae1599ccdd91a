// Serving benchmark: drives one seeded workload through serve::Server /
// fleet::Fleet, checks every output, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as the last line of
// standard output.  See perfbench/README.md.
//
//   serving_bench --workload cost_plan|fleet_cost|llm_stream --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//                 [--git-sha SHA]
//   serving_bench --self-test
//   serving_bench --list-metrics
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace pb {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Every workload prints every metric.  A job is a chain of results: a
// cost_plan client's inference call and the 15 batch calls after it, one
// pass of a fleet_cost client over its 16 shapes, an llm_stream session.
const std::vector<Metric> kEndToEnd = {
    {"throughput_ops_s", "ops/s"},  // shapes priced / tickets / phase GEMMs
    {"latency_p50_ms", "ms"},       // per client call
    {"latency_p99_ms", "ms"},
    {"ttft_p50_ms", "ms"},  // a job's first result, from the job's start
    {"ttft_p90_ms", "ms"},
    {"tpot_p50_ms", "ms"},  // each later result of a job
    {"tpot_p99_ms", "ms"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
    {"ok_share", "share"},  // operations completed / attempted
};

const std::vector<Metric> kPerLayer = {
    {"engine.evaluate_ns", "ns"},
    {"engine.evaluate_batch_cold_ns", "ns"},
    {"engine.evaluate_batch_warm_ns", "ns"},
    {"engine.evaluate_cached_hit_ns", "ns"},
    {"engine.evaluate_cached_miss_ns", "ns"},
    {"engine.cost_cache_hit_ratio", "share"},
    {"engine.cost_cache_misses", "count"},
    {"engine.best_mode_cached_ns", "ns"},
    {"engine.cycle_macs_per_s", "MAC/s"},
    {"nn.runner_us_per_layer", "us"},
    {"gemm.reference_macs_per_s", "MAC/s"},
    {"mem.plan_ns", "ns"},
    {"serve.submit_us_p50", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.execute_ms_p50", "ms"},
    {"serve.batch_requests_mean", "count"},
    {"serve.fused_runs_per_op", "share"},
    {"serve.steals", "count"},
    {"serve.dispatcher_push_pop_ns.global", "ns"},
    {"serve.dispatcher_push_pop_ns.stealing", "ns"},
    {"serve.submit_roundtrip_us", "us"},
    {"fleet.submit_roundtrip_us", "us"},
    {"fleet.submit_us_p50", "us"},
    {"fleet.overhead_ms_p50", "ms"},
    {"fleet.overhead_ms_p99", "ms"},
    {"fleet.failovers", "count"},
    {"fleet.duplicate_results", "count"},
    {"bench.generator_late_ms_p99", "ms"},
    {"bench.tracing_overhead_pct", "%"},
    {"span.request_self_us", "us"},
    {"span.submit_self_us", "us"},
    {"span.wait_self_us", "us"},
};

// Per-layer metrics read from samples pooled over the traced trials.
struct SampleRule {
  const char* metric;
  const char* samples;
  double q;  // 0 = mean
};
const std::vector<SampleRule> kSampleRules = {
    {"serve.submit_us_p50", "serve.submit_us", 0.5},
    {"serve.queue_wait_ms_p50", "serve.queue_wait_ms", 0.5},
    {"serve.queue_wait_ms_p99", "serve.queue_wait_ms", 0.99},
    {"serve.execute_ms_p50", "serve.execute_ms", 0.5},
    {"serve.batch_requests_mean", "serve.batch_requests", 0.0},
    {"fleet.submit_us_p50", "fleet.submit_us", 0.5},
    {"fleet.overhead_ms_p50", "fleet.overhead_ms", 0.5},
    {"fleet.overhead_ms_p99", "fleet.overhead_ms", 0.99},
    {"bench.generator_late_ms_p99", "bench.generator_late_ms", 0.99},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  bool self_test = false;
  bool list_metrics = false;
};

Args parse(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") a.workload = value(i);
    else if (flag == "--seed") a.seed = std::stoull(value(i));
    else if (flag == "--seconds") a.seconds = std::stod(value(i));
    else if (flag == "--trace") a.trace = value(i) == "1";
    else if (flag == "--trace-out") a.trace_out = value(i);
    else if (flag == "--git-sha") a.git_sha = value(i);
    else if (flag == "--self-test") a.self_test = true;
    else if (flag == "--list-metrics") a.list_metrics = true;
    else throw std::invalid_argument("unknown argument " + flag);
  }
  if (!a.self_test && !a.list_metrics && a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void print_stamp(const Args& a) {
  std::cout << "stamp {\"git_sha\": " << json_string(a.git_sha)
            << ", \"compiler\": " << json_string(PB_COMPILER)
            << ", \"build_type\": " << json_string(PB_BUILD_TYPE)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"workload\": " << json_string(a.workload)
            << ", \"seed\": " << a.seed << ", \"seconds\": " << json_number(a.seconds)
            << ", \"trace\": " << (a.trace ? 1 : 0) << "}\n";
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  if (correct) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
         << json_number(values.at(metrics[i].name)) << ", \"unit\": "
         << json_string(metrics[i].unit) << "}";
    }
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// Runs trials until `seconds` are used (at least `min_trials`), never
// starting one that would overrun by more than the last trial took.
std::vector<Trial> run_trials(Workload& w, std::uint64_t seed, double seconds,
                              int min_trials, bool trace) {
  std::vector<Trial> trials;
  const std::int64_t start = now_ns();
  double last_s = 0.0;
  while (static_cast<int>(trials.size()) < min_trials ||
         static_cast<double>(now_ns() - start) * 1e-9 + last_s <= seconds) {
    const std::int64_t t0 = now_ns();
    trials.push_back(w.run_trial(trial_seed(seed, static_cast<int>(trials.size())), trace));
    last_s = static_cast<double>(now_ns() - t0) * 1e-9;
    const Trial& t = trials.back();
    std::printf("trial %zu%s: %lld ops in %.3f s (%.0f ops/s), setup %.4f s, "
                "cpu %.3f s, sim busy %.3f ms, reconfig %.3f ms, mode switches %lld, "
                "stream switches %lld, holds %lld, audits %lld\n",
                trials.size(), trace ? " (traced)" : "", static_cast<long long>(t.ops),
                t.wall_s, static_cast<double>(t.ops) / t.wall_s, t.setup_s, t.cpu_s,
                t.sim.busy_ms, t.sim.reconfig_ms,
                static_cast<long long>(t.sim.mode_switches),
                static_cast<long long>(t.sim.stream_switches),
                static_cast<long long>(t.sim.holds),
                static_cast<long long>(t.sim.audit_runs));
    if (!trace) {
      std::printf("  p50/p90 call %.4f/%.4f ms, first %.4f/%.4f ms, "
                  "later %.4f/%.4f ms, rss %.1f MB, host steal %.1f%%\n",
                  percentile(t.call_ms, 0.5, "call"), percentile(t.call_ms, 0.9, "call"),
                  percentile(t.first_ms, 0.5, "first"), percentile(t.first_ms, 0.9, "first"),
                  percentile(t.next_ms, 0.5, "later"), percentile(t.next_ms, 0.9, "later"),
                  t.rss_mb, 100.0 * t.steal_share);
    }
  }
  return trials;
}

double median_of(const std::vector<Trial>& trials, double (*f)(const Trial&)) {
  std::vector<double> v;
  for (const Trial& t : trials) v.push_back(f(t));
  return median(v);
}

double cpu_us_per_op(const Trial& t) { return t.cpu_s * 1e6 / static_cast<double>(t.ops); }

// The third of the trials (at least three) during which the hypervisor
// took the least CPU time from this machine.  On a shared host, stolen time
// stalls the program's threads at random and swamps what the program does
// (3% steal doubles a p99); which trials it hits does not depend on the
// code under test.  The first trial warms the process (allocator arenas,
// page tables, the instruction cache) and is left out when others remain.
std::vector<Trial> least_stolen(const std::vector<Trial>& trials) {
  const std::size_t warm_up = trials.size() > 3 ? 1 : 0;
  std::vector<Trial> kept(trials.begin() + static_cast<std::ptrdiff_t>(warm_up),
                          trials.end());
  std::stable_sort(kept.begin(), kept.end(), [](const Trial& a, const Trial& b) {
    return a.steal_share < b.steal_share;
  });
  const std::size_t keep = std::max<std::size_t>(3, (kept.size() + 2) / 3);
  if (kept.size() > keep) kept.resize(keep);
  return kept;
}

// Percentiles are taken over the samples of the least-stolen trials pooled
// together; throughput and CPU time are medians over those trials.
std::map<std::string, double> end_to_end(const std::vector<Trial>& trials) {
  std::int64_t attempted = 0, failed = 0;
  for (const Trial& t : trials) {
    attempted += t.attempted;
    failed += t.failed;
  }
  const std::vector<Trial> kept = least_stolen(trials);
  auto pct = [&](std::vector<double> Trial::*samples, double q, const char* what) {
    std::vector<double> pooled;
    for (const Trial& t : kept) append(pooled, t.*samples);
    return percentile(std::move(pooled), q, what);
  };
  std::map<std::string, double> m;
  m["throughput_ops_s"] = median_of(
      kept, [](const Trial& t) { return static_cast<double>(t.ops) / t.wall_s; });
  m["latency_p50_ms"] = pct(&Trial::call_ms, 0.5, "call latency");
  m["latency_p99_ms"] = pct(&Trial::call_ms, 0.99, "call latency");
  m["ttft_p50_ms"] = pct(&Trial::first_ms, 0.5, "first result");
  m["ttft_p90_ms"] = pct(&Trial::first_ms, 0.9, "first result");
  m["tpot_p50_ms"] = pct(&Trial::next_ms, 0.5, "later results");
  m["tpot_p99_ms"] = pct(&Trial::next_ms, 0.99, "later results");
  m["cpu_us_per_op"] = median_of(kept, cpu_us_per_op);
  m["peak_rss_mb"] = trials.front().rss_mb;
  m["setup_s"] = median_of(trials, [](const Trial& t) { return t.setup_s; });
  m["ok_share"] = static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  std::size_t calls = 0, firsts = 0, nexts = 0;
  for (const Trial& t : kept) {
    calls += t.call_ms.size();
    firsts += t.first_ms.size();
    nexts += t.next_ms.size();
  }
  std::printf("samples: %zu calls, %zu first results, %zu later results from "
              "%zu of %zu trials (host steal up to %.1f%%); failed_share %.6f\n",
              calls, firsts, nexts, kept.size(), trials.size(),
              100.0 * kept.back().steal_share,
              static_cast<double>(failed) / static_cast<double>(attempted));
  return m;
}

std::map<std::string, double> per_layer(Workload& w, std::uint64_t seed,
                                        const std::vector<Trial>& untraced,
                                        const std::vector<Trial>& traced,
                                        double ladder_s, const std::string& trace_out) {
  std::map<std::string, double> m = run_ladder(w.ladder_inputs(seed), ladder_s);
  std::map<std::string, std::vector<double>> observed, samples;
  for (const Trial& t : traced) {
    for (const auto& [k, v] : t.observed) observed[k].push_back(v);
    for (const auto& [k, v] : t.samples) samples[k].insert(samples[k].end(), v.begin(), v.end());
  }
  for (const SampleRule& r : kSampleRules) {
    const auto it = samples.find(r.samples);
    if (it == samples.end()) continue;
    m[r.metric] = r.q > 0 ? percentile(it->second, r.q, r.samples) : mean(it->second);
  }
  for (const auto& [k, v] : observed) m[k] = median(v);
  const double cpu_plain = median_of(least_stolen(untraced), cpu_us_per_op);
  const double cpu_traced = median_of(least_stolen(traced), cpu_us_per_op);
  m["bench.tracing_overhead_pct"] = (cpu_traced / cpu_plain - 1.0) * 100.0;

  const std::vector<Span>& spans = traced.back().spans;
  for (const char* name : {"request", "submit", "wait"}) {
    m[std::string("span.") + name + "_self_us"] = 0.0;
  }
  for (const SelfTime& s : self_times(spans)) {
    m["span." + s.name + "_self_us"] = s.self_ns * 1e-3 / static_cast<double>(s.count);
    std::printf("span %-8s count %lld total %.3f ms self %.3f ms\n", s.name.c_str(),
                static_cast<long long>(s.count), s.total_ns * 1e-6, s.self_ns * 1e-6);
  }
  if (!trace_out.empty()) {
    if (write_spans(trace_out, spans)) {
      std::printf("wrote %zu spans to %s\n", spans.size(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "could not write spans to %s\n", trace_out.c_str());
    }
  }
  return m;
}

// ---- self-test ---------------------------------------------------------------

int self_test() {
  int failures = 0;
  int checks = 0;
  auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("FAIL %s\n", what.c_str());
    }
  };
  for (const std::string& name : workload_names()) {
    const std::unique_ptr<Workload> w = make_workload(name);
    const std::string a = w->input_bytes(1);
    const std::string b = w->input_bytes(1);
    const std::string c = w->input_bytes(2);
    expect(!a.empty() && a == b, name + ": seed 1 twice gives byte-identical inputs");
    expect(a != c, name + ": seed 2 changes the inputs");
  }

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(nearest_rank(100, 0.9) == 90, "rank of p90 in 100 samples is 90");
  expect(percentile_supported(100, 0.9), "100 samples support p90 (10 beyond)");
  expect(!percentile_supported(100, 0.99), "100 samples do not support p99 (1 beyond)");
  expect(percentile_supported(1000, 0.99), "1000 samples support p99 (10 beyond)");
  expect(!percentile_supported(999, 0.99), "999 samples do not support p99 (9 beyond)");
  expect(!percentile_supported(19, 0.5), "19 samples do not support p50 (9 beyond)");
  expect(percentile(hundred, 0.5, "p50") == 50.0, "p50 of 1..100 is 50");
  expect(percentile(hundred, 0.9, "p90") == 90.0, "p90 of 1..100 is 90");
  bool threw = false;
  try {
    percentile(hundred, 0.99, "p99");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "an unsupported percentile is refused");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median of odd and even samples");

  // root [0,100] with children [10,30], [20,50] (overlapping) and [90,120]
  // (clipped to the root): covered 40 + 10 -> root self 50.  The grandchild
  // [25,35] lies inside [20,50], whose self time is then 30 - 10 = 20.
  std::vector<Span> spans = {
      {1, Span::kNoParent, 7, "request", 0, 100},
      {2, 1, 7, "submit", 10, 30},
      {3, 1, 7, "wait", 20, 50},
      {4, 1, 7, "submit", 90, 120},
      {5, 3, 7, "poll", 25, 35},
  };
  std::map<std::string, SelfTime> st;
  for (const SelfTime& s : self_times(spans)) st[s.name] = s;
  expect(st["request"].count == 1 && st["request"].self_ns == 50.0,
         "request self time is 100 - (40 + 10)");
  expect(st["submit"].count == 2 && st["submit"].self_ns == 50.0 &&
             st["submit"].total_ns == 50.0,
         "submit self time sums two childless spans");
  expect(st["wait"].self_ns == 20.0, "wait self time subtracts its child");
  expect(st["poll"].self_ns == 10.0, "poll self time is its duration");

  std::printf("self-test: %d checks, %d failed\n", checks, failures);
  return failures == 0 ? 0 : 1;
}

int run(const Args& args) {
  print_stamp(args);
  const std::unique_ptr<Workload> w = make_workload(args.workload);
  std::int64_t attempted = 0, failed = 0;
  try {
    if (!args.trace) {
      const std::vector<Trial> trials = run_trials(*w, args.seed, args.seconds, 3, false);
      for (const Trial& t : trials) {
        attempted += t.attempted;
        failed += t.failed;
      }
      const std::map<std::string, double> m = end_to_end(trials);
      for (const Metric& metric : kEndToEnd) {
        std::printf("%-32s %18.6f %s\n", metric.name, m.at(metric.name), metric.unit);
      }
      print_result(true, attempted, failed, kEndToEnd, m);
      return 0;
    }
    // Traced run: untraced trials, traced trials and the ladder replay
    // split the time; the overhead compares the first two.
    const std::vector<Trial> untraced = run_trials(*w, args.seed, args.seconds / 3, 2, false);
    const std::vector<Trial> traced = run_trials(*w, args.seed, args.seconds / 3, 2, true);
    for (const auto* set : {&untraced, &traced}) {
      for (const Trial& t : *set) {
        attempted += t.attempted;
        failed += t.failed;
      }
    }
    const std::map<std::string, double> m =
        per_layer(*w, args.seed, untraced, traced, args.seconds / 3, args.trace_out);
    for (const Metric& metric : kPerLayer) {
      std::printf("%-40s %18.6f %s\n", metric.name, m.at(metric.name), metric.unit);
    }
    print_result(true, attempted, failed, kPerLayer, m);
    return 0;
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "%s\n", e.what());
    print_result(false, std::max<std::int64_t>(attempted, 1), failed, {}, {});
    return 1;
  }
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    const pb::Args args = pb::parse(argc, argv);
    if (args.list_metrics) {
      for (const pb::Metric& m : pb::kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const pb::Metric& m : pb::kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (args.self_test) return pb::self_test();
    return pb::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_bench: %s\n", e.what());
    return 2;
  }
}
