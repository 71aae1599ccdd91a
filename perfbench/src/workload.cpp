#include "workload.h"

#include <sys/resource.h>

#include <fstream>
#include <limits>
#include <stdexcept>

namespace pb {

std::vector<std::string> workload_names() {
  return {"cost_plan", "fleet_cost", "llm_stream"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cost_plan") return make_cost_plan();
  if (name == "fleet_cost") return make_fleet_cost();
  if (name == "llm_stream") return make_llm_stream();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (cost_plan, fleet_cost, llm_stream)");
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is this address space's high-water mark.  getrusage's ru_maxrss
  // would also count the parent's resident set at the fork that started us,
  // which Linux carries across exec.
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::int64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const std::int64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

void merge_into(const ClientRecord& client, Trial& trial) {
  trial.ops += client.ops;
  trial.attempted += client.attempted;
  trial.failed += client.failed;
  append(trial.call_ms, client.call_ms);
  append(trial.first_ms, client.first_ms);
  append(trial.next_ms, client.next_ms);
  if (client.spans) append(trial.spans, client.spans->spans());
}

SimTotals sim_totals(const std::vector<af::serve::ServerStats>& servers) {
  SimTotals t;
  for (const af::serve::ServerStats& stats : servers) {
    for (const af::serve::ShardSnapshot& s : stats.shards) {
      t.busy_ms += s.busy_time_ps * 1e-9;
      t.reconfig_ms += s.reconfig_time_ps * 1e-9;
      t.mode_switches += s.mode_switches;
      t.audit_runs += s.audit_runs;
    }
    t.stream_switches += stats.reconfig_stream_switches;
    t.holds += stats.reconfig_holds;
  }
  return t;
}

void observe_servers(const std::vector<af::serve::ServerStats>& servers,
                     Trial& trial) {
  std::int64_t hits = 0, misses = 0, steals = 0, fused = 0;
  for (const af::serve::ServerStats& stats : servers) {
    hits += stats.cost_cache_hits;
    misses += stats.cost_cache_misses;
    steals += stats.steals;
    for (const af::serve::ShardSnapshot& s : stats.shards) fused += s.fused_runs;
  }
  trial.observed["engine.cost_cache_hit_ratio"] =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  trial.observed["engine.cost_cache_misses"] = static_cast<double>(misses);
  trial.observed["serve.steals"] = static_cast<double>(steals);
  trial.observed["serve.fused_runs_per_op"] =
      static_cast<double>(fused) / static_cast<double>(trial.ops);
}

void check_server_books(const af::serve::ServerStats& stats,
                        const std::string& who) {
  PB_CHECK(stats.submitted == stats.completed,
           who << ": submitted " << stats.submitted << " != completed "
               << stats.completed);
  PB_CHECK(stats.promise_double_sets == 0,
           who << ": " << stats.promise_double_sets
               << " results delivered twice");
  PB_CHECK(stats.audit_mismatches() == 0,
           who << ": " << stats.audit_mismatches()
               << " cycle-accurate audits disagreed");
}

}  // namespace pb
