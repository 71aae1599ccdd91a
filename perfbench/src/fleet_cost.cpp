// fleet_cost — scalar cost queries through the fleet layer, closed loop.
//
// Two client threads, each its own tenant, keep a window of kWindow
// cost-only Fleet::submit_gemm tickets (k = 0) in flight against a Fleet of
// two single-shard Servers ("global" dispatcher, "affinity" router).  The
// traffic cycles through kShapes distinct shapes, each with its own weight
// matrix, so the admission argmin only ever hits the CostCache and the
// time goes to ticket copies, futures, the collector threads and the
// dispatcher.  A job is one pass over the kShapes shapes in a seeded order.
// Client threads + shard workers = 4 = the host's cores.
#include <algorithm>
#include <deque>
#include <future>
#include <latch>
#include <map>
#include <thread>
#include <tuple>

#include "engine/engine.h"
#include "fleet/fleet.h"
#include "nn/layer.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace pb {
namespace {

using af::gemm::GemmShape;

constexpr int kClients = 2;
constexpr int kServers = 2;
constexpr int kArraySide = 128;
constexpr int kShapes = 16;
constexpr int kWindow = 8;
constexpr int kTicketsPerClient = 8000;  // kTicketsPerClient % kShapes == 0

struct Inputs {
  std::vector<GemmShape> shapes;
  std::vector<af::gemm::Mat32> activations;  // [shape], t x n
  std::vector<std::shared_ptr<const af::gemm::Mat32>> weights;  // n x m
  std::vector<std::vector<std::uint8_t>> order;  // [client][ticket] -> shape
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  af::Rng rng(seed);
  while (in.shapes.size() < static_cast<std::size_t>(kShapes)) {
    // Small activations: the fleet copies every ticket's operand, so a
    // seed that drew large ones would measure memcpy, not the fleet.
    const GemmShape s{rng.next_in(16, 256), rng.next_in(8, 64),
                      rng.next_in(1, 8)};
    if (std::find(in.shapes.begin(), in.shapes.end(), s) != in.shapes.end()) {
      continue;
    }
    in.shapes.push_back(s);
    in.activations.push_back(af::gemm::random_matrix(rng, s.t, s.n, -64, 64));
    in.weights.push_back(std::make_shared<const af::gemm::Mat32>(
        af::gemm::random_matrix(rng, s.n, s.m, -64, 64)));
  }
  in.order.resize(kClients);
  std::vector<std::uint8_t> job(kShapes);
  for (std::vector<std::uint8_t>& order : in.order) {
    order.reserve(kTicketsPerClient);
    while (order.size() < static_cast<std::size_t>(kTicketsPerClient)) {
      for (int i = 0; i < kShapes; ++i) job[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
      for (std::size_t j = job.size() - 1; j > 0; --j) {
        std::swap(job[j], job[rng.next_below(j + 1)]);
      }
      order.insert(order.end(), job.begin(), job.end());
    }
  }
  return in;
}

af::arch::ArrayConfig array_config() {
  return af::arch::ArrayConfig::square(kArraySide);
}

af::serve::ServerOptions server_options() {
  af::serve::ServerOptions opts;
  opts.num_shards = 1;
  opts.backend = "analytic";
  return opts;
}

std::vector<af::fleet::FleetServerSpec> fleet_specs() {
  std::vector<af::fleet::FleetServerSpec> specs(kServers);
  for (af::fleet::FleetServerSpec& spec : specs) {
    spec.config = array_config();
    spec.options = server_options();
  }
  return specs;
}

// The part of a GemmResult the checks need.
struct Outcome {
  int k = 0;
  std::int64_t fused_rows = 0;
  std::int64_t cycles = 0;
  double time_ps = 0.0;
};

struct ClientLog : ClientRecord {
  std::vector<Outcome> outcomes;  // [ticket]; fused_rows == 0 means failed
  std::vector<double> submit_us, overhead_ms, queue_ms, execute_ms, batch;
  // A full window's next ticket is due when the oldest one returned.
  std::vector<double> late_ms;
};

struct InFlight {
  std::future<af::serve::GemmResult> future;
  std::size_t index = 0;     // ticket of this client
  std::uint64_t request = 0;  // span request id, unique across clients
  std::int64_t t0 = 0;
  std::uint64_t root = 0;
};

void finish(ClientLog& log, InFlight& f) {
  SpanLog* spans = log.spans.get();
  const std::uint64_t wait = spans ? spans->open("wait", f.root, f.request) : 0;
  try {
    const af::serve::GemmResult r = f.future.get();
    const std::int64_t t1 = now_ns();
    if (spans) {
      spans->close(wait);
      spans->close(f.root);
    }
    const double ms = ns_to_ms(t1 - f.t0);
    log.outcomes[f.index] = {r.k, r.fused_rows, r.cycles, r.time_ps};
    log.ops += 1;
    log.call_ms.push_back(ms);
    (f.index % kShapes == 0 ? log.first_ms : log.next_ms).push_back(ms);
    if (spans) {
      log.overhead_ms.push_back(ms - r.latency_ms);
      log.queue_ms.push_back(r.queue_ms);
      log.execute_ms.push_back(r.latency_ms - r.queue_ms);
      log.batch.push_back(static_cast<double>(r.batch_requests));
    }
  } catch (const std::exception&) {
    if (spans) {
      spans->close(wait);
      spans->close(f.root);
    }
    log.failed += 1;
  }
}

void run_client(int c, af::fleet::Fleet& fleet, const Inputs& in,
                ClientLog& log, std::latch& go) {
  const std::string tenant = "fleet-" + std::to_string(c);
  const std::vector<std::uint8_t>& order = in.order[static_cast<std::size_t>(c)];
  log.outcomes.assign(order.size(), Outcome{});
  log.call_ms.reserve(order.size());
  SpanLog* spans = log.spans.get();
  af::serve::SubmitOptions submit;
  submit.want_output = false;
  std::deque<InFlight> window;
  go.arrive_and_wait();
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::int64_t due = -1;
    if (window.size() == static_cast<std::size_t>(kWindow)) {
      finish(log, window.front());
      window.pop_front();
      due = now_ns();
    }
    const std::size_t s = order[i];
    af::gemm::Mat32 a = in.activations[s];
    InFlight f;
    f.index = i;
    f.request = (static_cast<std::uint64_t>(c) << 32) | i;
    log.attempted += 1;
    f.t0 = now_ns();
    if (spans && due >= 0) log.late_ms.push_back(ns_to_ms(f.t0 - due));
    f.root = spans ? spans->open("request", Span::kNoParent, f.request) : 0;
    const std::uint64_t sub = spans ? spans->open("submit", f.root, f.request) : 0;
    const std::int64_t s0 = now_ns();
    try {
      f.future = fleet.submit_gemm(tenant, std::move(a), in.weights[s], submit);
    } catch (const std::exception&) {
      if (spans) {
        spans->close(sub);
        spans->close(f.root);
      }
      log.failed += 1;
      continue;
    }
    if (spans) {
      spans->close(sub);
      log.submit_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
    }
    window.push_back(std::move(f));
  }
  for (InFlight& f : window) finish(log, f);
}

void verify(const Inputs& in, const std::vector<ClientLog>& logs,
            const af::serve::ServerOptions& opts) {
  const std::shared_ptr<af::engine::Engine> reference =
      af::engine::EngineBuilder()
          .config(array_config())
          .energy(opts.energy)
          .build("analytic");
  std::vector<int> best_k;
  for (const GemmShape& s : in.shapes) best_k.push_back(reference->evaluate(s, 0).k);
  std::map<std::tuple<std::size_t, std::int64_t, int>, af::engine::CostEstimate> fused;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    for (std::size_t i = 0; i < logs[c].outcomes.size(); ++i) {
      const Outcome& o = logs[c].outcomes[i];
      if (o.fused_rows == 0) continue;  // failed ticket, counted in `failed`
      const std::size_t s = in.order[c][i];
      const GemmShape& shape = in.shapes[s];
      PB_CHECK(o.k == best_k[s], "fleet_cost: client " << c << " ticket " << i
                                     << " ran in mode " << o.k
                                     << ", the argmin is " << best_k[s]);
      PB_CHECK(o.fused_rows >= shape.t && o.fused_rows % shape.t == 0,
               "fleet_cost: ticket " << i << " fused into " << o.fused_rows
                                     << " rows, not a multiple of " << shape.t);
      auto key = std::make_tuple(s, o.fused_rows, o.k);
      auto it = fused.find(key);
      if (it == fused.end()) {
        it = fused.emplace(key, reference->evaluate({shape.m, shape.n, o.fused_rows}, o.k))
                 .first;
      }
      PB_CHECK(o.cycles == it->second.cycles && o.time_ps == it->second.time_ps,
               "fleet_cost: client " << c << " ticket " << i
                   << ": cost differs from Engine::evaluate of the fused run");
    }
  }
}

class FleetCost final : public Workload {
 public:
  Trial run_trial(std::uint64_t seed, bool trace) override {
    Trial trial;
    const std::int64_t setup0 = now_ns();
    const Inputs in = generate(seed);
    std::vector<ClientLog> logs(kClients);
    af::fleet::FleetStats stats;
    {
      af::fleet::Fleet fleet(fleet_specs());
      trial.setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

      std::latch go(kClients + 1);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        if (trace) logs[static_cast<std::size_t>(c)].spans = std::make_unique<SpanLog>(c);
        clients.emplace_back(run_client, c, std::ref(fleet), std::cref(in),
                             std::ref(logs[static_cast<std::size_t>(c)]),
                             std::ref(go));
      }
      const double cpu0 = process_cpu_s();
      const CpuTicks ticks0 = cpu_ticks();
      const std::int64_t t0 = now_ns();
      go.arrive_and_wait();
      for (std::thread& t : clients) t.join();
      trial.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
      trial.cpu_s = process_cpu_s() - cpu0;
      trial.rss_mb = peak_rss_mb();
      trial.steal_share = steal_share(ticks0, cpu_ticks());

      stats = fleet.stats();
    }
    PB_CHECK(stats.resolved() == stats.submitted,
             "fleet_cost: " << stats.submitted << " tickets submitted, "
                            << stats.resolved() << " resolved");
    PB_CHECK(stats.resolve_double_sets == 0,
             "fleet_cost: " << stats.resolve_double_sets << " tickets resolved twice");
    for (const auto& [tenant, book] : stats.tenants) {
      PB_CHECK(book.ok + book.err == book.submitted,
               "fleet_cost: tenant " << tenant << " books do not balance");
    }
    std::vector<af::serve::ServerStats> servers;
    for (const af::fleet::FleetServerSummary& s : stats.servers) {
      check_server_books(s.stats, "fleet_cost server " + std::to_string(s.server));
      servers.push_back(s.stats);
    }
    trial.sim = sim_totals(servers);
    for (const ClientLog& log : logs) {
      merge_into(log, trial);
      if (trace) {
        append(trial.samples["fleet.submit_us"], log.submit_us);
        append(trial.samples["fleet.overhead_ms"], log.overhead_ms);
        append(trial.samples["serve.queue_wait_ms"], log.queue_ms);
        append(trial.samples["serve.execute_ms"], log.execute_ms);
        append(trial.samples["serve.batch_requests"], log.batch);
        append(trial.samples["bench.generator_late_ms"], log.late_ms);
      }
    }
    if (trace) {
      observe_servers(servers, trial);
      trial.observed["fleet.failovers"] = static_cast<double>(stats.failovers);
      trial.observed["fleet.duplicate_results"] =
          static_cast<double>(stats.duplicate_results);
    }
    verify(in, logs, server_options());
    return trial;
  }

  LadderInputs ladder_inputs(std::uint64_t seed) const override {
    Inputs in = generate(seed);
    LadderInputs li;
    li.config = array_config();
    li.server = server_options();
    li.shapes = in.shapes;
    af::nn::Model plan;
    plan.name = "fleet_cost_shapes";
    for (std::size_t i = 0; i < in.shapes.size(); ++i) {
      const GemmShape& s = in.shapes[i];
      plan.layers.push_back(
          af::nn::Layer::gemm("shape" + std::to_string(i), s.t, s.n, s.m));
      li.gemms.push_back({std::move(in.activations[i]), in.weights[i]});
    }
    li.models.push_back(std::make_shared<const af::nn::Model>(std::move(plan)));
    li.want_output = false;
    return li;
  }

  std::string input_bytes(std::uint64_t seed) const override {
    const Inputs in = generate(seed);
    ByteWriter w;
    for (std::size_t i = 0; i < in.shapes.size(); ++i) {
      w.put(in.shapes[i]).put(in.activations[i]).put(*in.weights[i]);
    }
    for (const auto& order : in.order) {
      for (const std::uint8_t s : order) w.put(s);
    }
    return w.take();
  }
};

}  // namespace

std::unique_ptr<Workload> make_fleet_cost() {
  return std::make_unique<FleetCost>();
}

}  // namespace pb
