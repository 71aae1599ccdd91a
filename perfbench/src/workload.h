// The benchmark's workloads: seeded input generators plus the clients that
// push those inputs through serve::Server / fleet::Fleet and check every
// output against a direct reference call.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/config.h"
#include "gemm/matrix.h"
#include "gemm/tiling.h"
#include "nn/models.h"
#include "serve/server.h"
#include "stats.h"
#include "trace.h"

namespace pb {

// A served output or the program's books disagree with the reference.  A
// run that raises it reports no numbers.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

#define PB_CHECK(cond, msg)                                    \
  do {                                                         \
    if (!(cond)) {                                             \
      std::ostringstream pb_check_os;                          \
      pb_check_os << "check failed: " << msg;                  \
      throw ::pb::CheckFailed(pb_check_os.str());              \
    }                                                          \
  } while (0)

// Simulated-time context printed next to each run (not gated: it depends
// on how the host timing batched the requests).
struct SimTotals {
  double busy_ms = 0.0;
  double reconfig_ms = 0.0;
  std::int64_t mode_switches = 0;
  std::int64_t stream_switches = 0;
  std::int64_t holds = 0;
  std::int64_t audit_runs = 0;
};

// One trial: a fixed, seeded set of operations against a freshly built
// program.
struct Trial {
  double setup_s = 0.0;  // input generation + program construction
  double wall_s = 0.0;   // the measured phase
  double cpu_s = 0.0;    // process CPU time during the measured phase
  // Process peak resident set at the end of the measured phase.  Only the
  // first trial of a process reads a clean peak: later trials reuse (and
  // fragment) the allocator arenas earlier ones left behind.
  double rss_mb = 0.0;
  // Share of the host's CPU time the hypervisor took from this machine
  // during the measured phase (steal time); context for noisy trials.
  double steal_share = 0.0;
  std::int64_t ops = 0;  // operations completed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // failed or refused operations
  // Latency samples in ms: every client call; the first result of each job
  // (measured from the job's start); every later result of a job.
  std::vector<double> call_ms;
  std::vector<double> first_ms;
  std::vector<double> next_ms;
  SimTotals sim;
  // Per-layer observations under load (traced trials only): scalars, and
  // raw samples the runner pools across trials before taking percentiles.
  std::map<std::string, double> observed;
  std::map<std::string, std::vector<double>> samples;
  std::vector<Span> spans;
};

// A GEMM with real operands (the ladder's cycle, reference and round-trip
// rungs need them).
struct OperandGemm {
  af::gemm::Mat32 a;
  std::shared_ptr<const af::gemm::Mat32> b;
};

// A workload's own inputs, handed to the single-threaded ladder replay.
struct LadderInputs {
  af::arch::ArrayConfig config;    // the workload's shard array
  af::serve::ServerOptions server; // the workload's server options
  std::vector<af::gemm::GemmShape> shapes;  // distinct shapes it prices
  std::vector<OperandGemm> gemms;
  std::vector<std::shared_ptr<const af::nn::Model>> models;
  bool want_output = false;  // whether its GEMM calls ask for products
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Set-up, the measured phase, then every output check off the clock, on
  // the inputs generated from `seed`.  Throws CheckFailed on a wrong output
  // or unbalanced books.  `trace` records spans and per-layer observations.
  virtual Trial run_trial(std::uint64_t seed, bool trace) = 0;
  virtual LadderInputs ladder_inputs(std::uint64_t seed) const = 0;
  // The generated inputs serialized byte for byte (the self-test compares
  // them across seeds).
  virtual std::string input_bytes(std::uint64_t seed) const = 0;
};

// Inputs of trial `index` of a run: every trial of a run draws its own
// arrangement of the workload, so a run's medians average over arrangements
// instead of repeating one (trial 0 uses the run's seed itself).
inline std::uint64_t trial_seed(std::uint64_t seed, int index) {
  return seed + static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL;
}

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

std::unique_ptr<Workload> make_cost_plan();
std::unique_ptr<Workload> make_fleet_cost();
std::unique_ptr<Workload> make_llm_stream();

// Per-layer replay of a workload's inputs through the lower layers' public
// functions, single-threaded; roughly `budget_s` seconds.
std::map<std::string, double> run_ladder(const LadderInputs& in,
                                         double budget_s);

// Process CPU seconds (user + system, all threads) and peak resident set.
double process_cpu_s();
double peak_rss_mb();

// Machine-wide CPU time counters from /proc/stat, in clock ticks: time
// stolen by the hypervisor and the total.  Both read 0 where unavailable.
struct CpuTicks {
  std::int64_t steal = 0;
  std::int64_t total = 0;
};
CpuTicks cpu_ticks();
double steal_share(const CpuTicks& from, const CpuTicks& to);

// Appends raw bytes of trivially copyable values (input serialization).
class ByteWriter {
 public:
  template <typename T>
  ByteWriter& put(const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    bytes_.append(p, sizeof(T));
    return *this;
  }
  ByteWriter& put(const af::gemm::GemmShape& s) {
    return put(s.m).put(s.n).put(s.t);
  }
  ByteWriter& put(const af::gemm::Mat32& m) {
    put(m.rows()).put(m.cols());
    bytes_.append(reinterpret_cast<const char*>(m.data().data()),
                  m.data().size() * sizeof(std::int32_t));
    return *this;
  }
  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// What one client thread of a closed-loop workload measured in a trial.
struct ClientRecord {
  std::int64_t ops = 0, attempted = 0, failed = 0;
  std::vector<double> call_ms, first_ms, next_ms;  // see Trial
  std::unique_ptr<SpanLog> spans;                   // traced trials only
};

// Adds a client's counts, latency samples and spans to the trial.
void merge_into(const ClientRecord& client, Trial& trial);

// Sum of ShardSnapshot simulated times and counters over servers.
SimTotals sim_totals(const std::vector<af::serve::ServerStats>& servers);

// Per-layer counters of a traced trial, summed over its servers: cost-cache
// hit ratio and misses, steals, and fused runs per operation.  Call once
// trial.ops is known.
void observe_servers(const std::vector<af::serve::ServerStats>& servers,
                     Trial& trial);

// Books of one server: every accepted request resolved exactly once.
void check_server_books(const af::serve::ServerStats& stats,
                        const std::string& who);

}  // namespace pb
