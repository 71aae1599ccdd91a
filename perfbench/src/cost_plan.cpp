// cost_plan — the paper's design-space / planning use, closed loop.
//
// Two client threads against one Server (2 shards, 128x128, "stealing").
// Each client makes kCallsPerClient calls in jobs of kJobCalls: a job opens
// with submit_inference of one of the paper's models and continues with
// submit_gemm_batch calls of kBatchShapes cost-only shapes (k = 0).  Half of
// every batch repeats the paper models' layer shapes (cache hits), half are
// random shapes that never repeat (cache misses), so the CostCache sees a
// fixed hit/miss mix and grows by a fixed amount per trial.  Client threads
// + shard workers = 4 = the host's cores; one more client thread only
// measures oversubscription.
#include <latch>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "engine/engine.h"
#include "nn/mapper.h"
#include "nn/runner.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace pb {
namespace {

using af::gemm::GemmShape;

constexpr int kClients = 2;
constexpr int kShards = 2;
constexpr int kArraySide = 128;
constexpr int kCallsPerClient = 2400;
constexpr int kJobCalls = 16;
constexpr int kBatchShapes = 64;
constexpr int kRepeatedPerBatch = kBatchShapes / 2;
constexpr std::size_t kLadderShapes = 4096;
constexpr std::int64_t kLadderOperandSide = 64;

struct Call {
  int model = -1;  // >= 0: submit_inference of paper_models()[model]
  std::vector<GemmShape> shapes;
};

struct Inputs {
  std::vector<GemmShape> pool;  // the paper models' distinct layer shapes
  std::vector<std::shared_ptr<const af::nn::Model>> models;
  std::vector<std::vector<Call>> clients;  // [client][call]
};

std::uint64_t shape_key(const GemmShape& s) {
  return static_cast<std::uint64_t>(s.m) |
         (static_cast<std::uint64_t>(s.n) << 16) |
         (static_cast<std::uint64_t>(s.t) << 32);
}

Inputs generate(std::uint64_t seed) {
  Inputs in;
  std::vector<GemmShape>& pool = in.pool;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(kClients) * kCallsPerClient *
               (kBatchShapes - kRepeatedPerBatch));
  for (af::nn::Model& model : af::nn::paper_models()) {
    for (const af::nn::Layer& layer : model.layers) {
      const GemmShape s = af::nn::gemm_shape(layer);
      if (seen.insert(shape_key(s)).second) pool.push_back(s);
    }
    in.models.push_back(
        std::make_shared<const af::nn::Model>(std::move(model)));
  }
  af::Rng rng(seed);
  in.clients.resize(kClients);
  // Each client plans every model equally often, in a seeded order.
  std::vector<int> jobs(kCallsPerClient / kJobCalls);
  for (std::vector<Call>& calls : in.clients) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j] = static_cast<int>(j % in.models.size());
    }
    for (std::size_t j = jobs.size() - 1; j > 0; --j) {
      std::swap(jobs[j], jobs[rng.next_below(j + 1)]);
    }
    calls.resize(kCallsPerClient);
    for (int i = 0; i < kCallsPerClient; ++i) {
      Call& call = calls[static_cast<std::size_t>(i)];
      if (i % kJobCalls == 0) {
        call.model = jobs[static_cast<std::size_t>(i / kJobCalls)];
        continue;
      }
      call.shapes.reserve(kBatchShapes);
      for (int j = 0; j < kRepeatedPerBatch; ++j) {
        call.shapes.push_back(pool[rng.next_below(pool.size())]);
      }
      while (call.shapes.size() < static_cast<std::size_t>(kBatchShapes)) {
        const GemmShape s{rng.next_in(1, 4096), rng.next_in(1, 4608),
                          rng.next_in(1, 50176)};
        if (seen.insert(shape_key(s)).second) call.shapes.push_back(s);
      }
      for (std::size_t j = call.shapes.size() - 1; j > 0; --j) {
        std::swap(call.shapes[j], call.shapes[rng.next_below(j + 1)]);
      }
    }
  }
  return in;
}

af::arch::ArrayConfig array_config() {
  return af::arch::ArrayConfig::square(kArraySide);
}

af::serve::ServerOptions server_options() {
  af::serve::ServerOptions opts;
  opts.num_shards = kShards;
  opts.dispatcher = "stealing";
  opts.backend = "analytic";
  return opts;
}

// What one client saw; digests are checked against references afterwards.
struct ClientLog : ClientRecord {
  std::vector<std::uint64_t> estimate_digests;  // batch calls, in order
  std::vector<std::uint64_t> report_digests;    // inference calls, in order
  std::vector<char> call_ok;
  // late_ms: a closed-loop call is due when the previous one returned.
  std::vector<double> submit_us, late_ms;
};

void run_client(int c, af::serve::Server& server, const Inputs& in,
                ClientLog& log, std::latch& go) {
  const std::string tenant = "planner-" + std::to_string(c);
  const std::vector<Call>& calls = in.clients[static_cast<std::size_t>(c)];
  log.estimate_digests.reserve(calls.size() * kBatchShapes);
  log.call_ok.reserve(calls.size());
  log.call_ms.reserve(calls.size());
  SpanLog* spans = log.spans.get();
  go.arrive_and_wait();
  std::int64_t due = now_ns();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& call = calls[i];
    const std::uint64_t request = (static_cast<std::uint64_t>(c) << 32) | i;
    const std::int64_t n_ops =
        call.model >= 0
            ? static_cast<std::int64_t>(
                  in.models[static_cast<std::size_t>(call.model)]->layers.size())
            : static_cast<std::int64_t>(call.shapes.size());
    log.attempted += n_ops;
    const std::int64_t t0 = now_ns();
    if (spans) log.late_ms.push_back(ns_to_ms(t0 - due));
    const std::uint64_t root =
        spans ? spans->open("request", Span::kNoParent, request) : 0;
    bool ok = true;
    try {
      if (call.model >= 0) {
        const std::uint64_t sub = spans ? spans->open("submit", root, request) : 0;
        const std::int64_t s0 = now_ns();
        auto future = server.submit_inference(
            tenant, in.models[static_cast<std::size_t>(call.model)]);
        if (spans) {
          spans->close(sub);
          log.submit_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
        }
        const std::uint64_t wait = spans ? spans->open("wait", root, request) : 0;
        const af::serve::InferenceResult result = future.get();
        if (spans) spans->close(wait);
        log.report_digests.push_back(digest(result.report));
      } else {
        const std::uint64_t sub = spans ? spans->open("submit", root, request) : 0;
        const std::int64_t s0 = now_ns();
        af::serve::BatchTicket ticket = server.submit_gemm_batch(tenant, call.shapes);
        if (spans) {
          spans->close(sub);
          log.submit_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
        }
        const std::uint64_t wait = spans ? spans->open("wait", root, request) : 0;
        const std::vector<af::engine::CostEstimate> estimates = ticket.get();
        if (spans) spans->close(wait);
        const std::size_t first = log.estimate_digests.size();
        for (const af::engine::CostEstimate& e : estimates) {
          log.estimate_digests.push_back(digest(e));
        }
        // A short or long answer keeps the log aligned with the inputs; the
        // zero digests of missing estimates then fail verification.
        log.estimate_digests.resize(first + call.shapes.size(), 0);
      }
    } catch (const std::exception&) {
      ok = false;
      log.failed += n_ops;
    }
    if (spans) spans->close(root);
    due = now_ns();
    log.call_ok.push_back(ok ? 1 : 0);
    if (!ok) continue;
    log.ops += n_ops;
    const double ms = ns_to_ms(due - t0);
    log.call_ms.push_back(ms);
    // A job starts with its inference call, so the job's first result is
    // that call's own latency.
    (i % kJobCalls == 0 ? log.first_ms : log.next_ms).push_back(ms);
  }
}

void verify(const Inputs& in, const std::vector<ClientLog>& logs,
            const af::serve::ServerOptions& opts) {
  // The shard engines' wiring: shard config, default (calibrated) clock,
  // the server's energy params.  evaluate() is the uncached closed form.
  const std::shared_ptr<af::engine::Engine> reference =
      af::engine::EngineBuilder()
          .config(array_config())
          .energy(opts.energy)
          .build("analytic");
  const af::nn::InferenceRunner runner(reference);
  std::vector<std::uint64_t> model_digests;
  for (const auto& model : in.models) {
    model_digests.push_back(digest(runner.run(*model)));
  }
  // Half of all shapes repeat the paper models' layers: price those once.
  std::unordered_map<std::uint64_t, std::uint64_t> pool_digests;
  for (const GemmShape& s : in.pool) {
    pool_digests.emplace(shape_key(s), digest(reference->evaluate(s, 0)));
  }
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const ClientLog& log = logs[c];
    std::size_t next_estimate = 0;
    std::size_t next_report = 0;
    for (std::size_t i = 0; i < in.clients[c].size(); ++i) {
      if (!log.call_ok[i]) continue;
      const Call& call = in.clients[c][i];
      if (call.model >= 0) {
        PB_CHECK(log.report_digests[next_report++] ==
                     model_digests[static_cast<std::size_t>(call.model)],
                 "cost_plan: client " << c << " call " << i
                     << ": inference report differs from InferenceRunner::run");
        continue;
      }
      for (const GemmShape& s : call.shapes) {
        const auto pooled = pool_digests.find(shape_key(s));
        const std::uint64_t want = pooled != pool_digests.end()
                                       ? pooled->second
                                       : digest(reference->evaluate(s, 0));
        PB_CHECK(log.estimate_digests[next_estimate++] == want,
                 "cost_plan: client " << c << " call " << i << ": estimate for "
                     << s.m << "x" << s.n << "x" << s.t
                     << " differs from Engine::evaluate");
      }
    }
  }
}

class CostPlan final : public Workload {
 public:
  Trial run_trial(std::uint64_t seed, bool trace) override {
    Trial trial;
    const std::int64_t setup0 = now_ns();
    const Inputs in = generate(seed);
    const af::serve::ServerOptions opts = server_options();
    std::vector<ClientLog> logs(kClients);
    std::vector<af::serve::ServerStats> servers;
    {
      af::serve::Server server(array_config(), opts);
      trial.setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

      std::latch go(kClients + 1);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        if (trace) logs[static_cast<std::size_t>(c)].spans = std::make_unique<SpanLog>(c);
        clients.emplace_back(run_client, c, std::ref(server), std::cref(in),
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

      servers.push_back(server.stats());
    }
    check_server_books(servers[0], "cost_plan server");
    trial.sim = sim_totals(servers);
    for (const ClientLog& log : logs) {
      merge_into(log, trial);
      if (trace) {
        append(trial.samples["serve.submit_us"], log.submit_us);
        append(trial.samples["bench.generator_late_ms"], log.late_ms);
      }
    }
    if (trace) {
      observe_servers(servers, trial);
      // The batched path answers whole calls, so its batch size is read
      // from the shards rather than from per-request results.
      std::int64_t batches = 0, requests = 0;
      for (const af::serve::ShardSnapshot& s : servers[0].shards) {
        batches += s.batches;
        requests += s.requests;
      }
      trial.observed["serve.batch_requests_mean"] =
          static_cast<double>(requests) / static_cast<double>(batches);
    }
    verify(in, logs, opts);
    return trial;
  }

  LadderInputs ladder_inputs(std::uint64_t seed) const override {
    const Inputs in = generate(seed);
    LadderInputs li;
    li.config = array_config();
    li.server = server_options();
    li.models = in.models;
    std::unordered_set<std::uint64_t> seen;
    for (const Call& call : in.clients[0]) {
      for (const GemmShape& s : call.shapes) {
        if (li.shapes.size() < kLadderShapes && seen.insert(shape_key(s)).second) {
          li.shapes.push_back(s);
        }
      }
    }
    // The planner never sends operands; the operand rungs run its shapes
    // clipped to kLadderOperandSide per dimension.
    af::Rng rng(seed ^ 0x6c61646465720000ULL);
    for (std::size_t i = 0; i < 64 && i < li.shapes.size(); ++i) {
      const GemmShape& s = li.shapes[i];
      const std::int64_t t = std::min(s.t, kLadderOperandSide);
      const std::int64_t n = std::min(s.n, kLadderOperandSide);
      const std::int64_t m = std::min(s.m, kLadderOperandSide);
      li.gemms.push_back({af::gemm::random_matrix(rng, t, n, -64, 64),
                          std::make_shared<const af::gemm::Mat32>(
                              af::gemm::random_matrix(rng, n, m, -64, 64))});
    }
    li.want_output = false;
    return li;
  }

  std::string input_bytes(std::uint64_t seed) const override {
    const Inputs in = generate(seed);
    ByteWriter w;
    for (const std::vector<Call>& calls : in.clients) {
      for (const Call& call : calls) {
        w.put(call.model).put(call.shapes.size());
        for (const GemmShape& s : call.shapes) w.put(s);
      }
    }
    return w.take();
  }
};

}  // namespace

std::unique_ptr<Workload> make_cost_plan() {
  return std::make_unique<CostPlan>();
}

}  // namespace pb
