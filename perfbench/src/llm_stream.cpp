// llm_stream — transformer serving, closed loop.
//
// Two client threads each serve their own queue of sessions, one session
// at a time: a session is one prefill pass followed by a chain of decode
// steps, and each step's phase GEMMs (serve/transformer_traffic.h: 2
// blocks, d_model 64, 2 heads) are sent when the previous step has
// completed; the next session starts when the last one ends.  Prompt and
// chain lengths are seeded shuffles of fixed multisets, the same for both
// clients, so every seed offers the same volume of work in a different
// order.  The server (2 shards, 16x16, memory hierarchy on, "sticky"
// reconfiguration with a 2048-cycle drain, 1/32 cycle-accurate audits)
// computes every product; the products are compared with reference_gemm off
// the clock.  Client threads + shard workers = 4 = the host's cores.
//
// A closed loop, not an open one: on a shared host an open loop at half
// capacity leaves the cores idle between arrivals, and the hypervisor's
// delay in waking them moved the median step latency by 20-100% from one
// run to the next.
#include <algorithm>
#include <future>
#include <latch>
#include <thread>

#include "gemm/reference.h"
#include "nn/transformer.h"
#include "serve/transformer_traffic.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace pb {
namespace {

constexpr int kClients = 2;
constexpr int kShards = 2;
constexpr int kArraySide = 16;
constexpr int kSessionsPerClient = 100;
constexpr std::int64_t kKvLen = 128;
constexpr std::int64_t kMinPrompt = 4;
constexpr int kPromptSteps = 7;   // prompts of 4, 6, ..., 16 rows
constexpr int kMinDecode = 4;
constexpr int kDecodeSpread = 9;  // chains of 4 .. 12 decode steps

af::nn::TransformerConfig transformer() {
  af::nn::TransformerConfig tc;
  tc.d_model = 64;
  tc.n_heads = 2;
  tc.d_ff = 256;
  tc.n_blocks = 2;
  return tc;
}

struct Session {
  std::vector<af::serve::PhaseGemm> prefill;
  std::vector<std::vector<af::serve::PhaseGemm>> decode;
  std::size_t first_gemm = 0;  // global index of its first GEMM
};

struct Inputs {
  af::serve::TransformerWeights weights;
  // Client c serves sessions c, c + kClients, c + 2 * kClients, ...
  std::vector<Session> sessions;
  std::size_t gemms = 0;
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  af::Rng rng(seed);
  in.weights = af::serve::make_transformer_weights(transformer(), kKvLen, rng);
  constexpr int kSessions = kClients * kSessionsPerClient;
  std::vector<std::int64_t> prompt(kSessions);
  std::vector<int> chain(kSessions);
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::int64_t> p(kSessionsPerClient);
    std::vector<int> d(kSessionsPerClient);
    for (int j = 0; j < kSessionsPerClient; ++j) {
      p[static_cast<std::size_t>(j)] = kMinPrompt + 2 * (j % kPromptSteps);
      d[static_cast<std::size_t>(j)] = kMinDecode + j % kDecodeSpread;
    }
    for (std::size_t j = kSessionsPerClient - 1; j > 0; --j) {
      std::swap(p[j], p[rng.next_below(j + 1)]);
      std::swap(d[j], d[rng.next_below(j + 1)]);
    }
    for (int j = 0; j < kSessionsPerClient; ++j) {
      prompt[static_cast<std::size_t>(j * kClients + c)] = p[static_cast<std::size_t>(j)];
      chain[static_cast<std::size_t>(j * kClients + c)] = d[static_cast<std::size_t>(j)];
    }
  }
  in.sessions.resize(kSessions);
  for (std::size_t i = 0; i < in.sessions.size(); ++i) {
    Session& s = in.sessions[i];
    s.first_gemm = in.gemms;
    s.prefill = af::serve::prefill_gemms(in.weights, prompt[i], rng);
    in.gemms += s.prefill.size();
    for (int d = 0; d < chain[i]; ++d) {
      s.decode.push_back(af::serve::decode_gemms(in.weights, rng));
      in.gemms += s.decode.back().size();
    }
  }
  return in;
}

af::arch::ArrayConfig array_config() {
  af::arch::ArrayConfig config = af::arch::ArrayConfig::square(kArraySide);
  config.mem.enabled = true;
  return config;
}

af::serve::ServerOptions server_options() {
  af::serve::ServerOptions opts;
  opts.num_shards = kShards;
  opts.backend = "analytic";
  opts.audit_fraction = 1.0 / 32.0;
  opts.reconfig_policy = "sticky";
  opts.reconfig_cycles = 2048;
  // Far above the two steps in flight: admission never blocks a client.
  opts.queue_capacity = 4096;
  return opts;
}

// What one client saw; products are compared with references afterwards
// through `digests` / `ok`, indexed by global GEMM number (each client
// writes only its own sessions' entries).
struct ClientLog : ClientRecord {
  std::vector<double> late_ms, submit_us, queue_ms, execute_ms, batch;
};

void run_client(int c, af::serve::Server& server, Inputs& in,
                std::vector<std::uint64_t>& digests, std::vector<char>& ok,
                ClientLog& log, std::latch& go) {
  const std::string tenant = "llm-" + std::to_string(c);
  SpanLog* spans = log.spans.get();
  std::vector<std::future<af::serve::GemmResult>> futures;
  go.arrive_and_wait();
  // A closed-loop step is due when the client's previous step returned.
  std::int64_t due = now_ns();
  for (std::size_t s = static_cast<std::size_t>(c); s < in.sessions.size(); s += kClients) {
    Session& session = in.sessions[s];
    std::size_t gemm = session.first_gemm;
    const std::int64_t start = now_ns();
    for (int step = -1; step < static_cast<int>(session.decode.size()); ++step) {
      std::vector<af::serve::PhaseGemm>& gemms =
          step < 0 ? session.prefill : session.decode[static_cast<std::size_t>(step)];
      const std::uint64_t request = gemm;
      const std::int64_t sent = now_ns();
      if (spans) log.late_ms.push_back(ns_to_ms(sent - due));
      const std::uint64_t root = spans ? spans->open("request", Span::kNoParent, request) : 0;
      futures.clear();
      for (af::serve::PhaseGemm& g : gemms) {
        log.attempted += 1;
        const std::int64_t s0 = now_ns();
        const std::uint64_t sub = spans ? spans->open("submit", root, request) : 0;
        try {
          futures.push_back(server.submit_gemm(tenant, std::move(g.a), g.b, 0, true));
        } catch (const std::exception&) {
          log.failed += 1;
          futures.emplace_back();  // invalid: collected as a failure
        }
        if (spans) {
          spans->close(sub);
          log.submit_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
        }
      }
      const std::uint64_t wait = spans ? spans->open("wait", root, request) : 0;
      for (std::future<af::serve::GemmResult>& f : futures) {
        const std::size_t g = gemm++;
        if (!f.valid()) continue;
        try {
          const af::serve::GemmResult r = f.get();
          digests[g] = digest(r.out);
          ok[g] = 1;
          log.ops += 1;
          if (spans) {
            log.queue_ms.push_back(r.queue_ms);
            log.execute_ms.push_back(r.latency_ms - r.queue_ms);
            log.batch.push_back(static_cast<double>(r.batch_requests));
          }
        } catch (const std::exception&) {
          log.failed += 1;
        }
      }
      const std::int64_t done = now_ns();
      due = done;
      if (spans) {
        spans->close(wait);
        spans->close(root);
      }
      log.call_ms.push_back(ns_to_ms(done - sent));
      if (step < 0) {
        log.first_ms.push_back(ns_to_ms(done - start));
      } else {
        log.next_ms.push_back(ns_to_ms(done - sent));
      }
    }
  }
}

class LlmStream final : public Workload {
 public:
  Trial run_trial(std::uint64_t seed, bool trace) override {
    Trial trial;
    const std::int64_t setup0 = now_ns();
    Inputs in = generate(seed);
    std::vector<std::uint64_t> digests(in.gemms, 0);
    std::vector<char> ok(in.gemms, 0);
    std::vector<ClientLog> logs(kClients);
    std::vector<af::serve::ServerStats> servers;
    {
      af::serve::Server server(array_config(), server_options());
      trial.setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

      std::latch go(kClients + 1);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        if (trace) log.spans = std::make_unique<SpanLog>(static_cast<std::uint64_t>(c));
        clients.emplace_back(run_client, c, std::ref(server), std::ref(in),
                             std::ref(digests), std::ref(ok), std::ref(log),
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
    check_server_books(servers[0], "llm_stream server");
    trial.sim = sim_totals(servers);
    PB_CHECK(trial.sim.audit_runs > 0, "llm_stream: no fused run was audited");
    for (const ClientLog& log : logs) {
      merge_into(log, trial);
      if (trace) {
        append(trial.samples["bench.generator_late_ms"], log.late_ms);
        append(trial.samples["serve.submit_us"], log.submit_us);
        append(trial.samples["serve.queue_wait_ms"], log.queue_ms);
        append(trial.samples["serve.execute_ms"], log.execute_ms);
        append(trial.samples["serve.batch_requests"], log.batch);
      }
    }
    if (trace) observe_servers(servers, trial);
    verify(seed, digests, ok);
    return trial;
  }

  LadderInputs ladder_inputs(std::uint64_t seed) const override {
    Inputs in = generate(seed);
    LadderInputs li;
    li.config = array_config();
    li.server = server_options();
    // The first two sessions' GEMMs: a prefill pass and its decode chain.
    for (std::size_t s = 0; s < 2 && s < in.sessions.size(); ++s) {
      for (af::serve::PhaseGemm& g : in.sessions[s].prefill) {
        li.gemms.push_back({std::move(g.a), g.b});
      }
      for (auto& step : in.sessions[s].decode) {
        for (af::serve::PhaseGemm& g : step) li.gemms.push_back({std::move(g.a), g.b});
      }
    }
    for (const OperandGemm& g : li.gemms) {
      const af::gemm::GemmShape s{g.b->cols(), g.b->rows(), g.a.rows()};
      if (std::find(li.shapes.begin(), li.shapes.end(), s) == li.shapes.end()) {
        li.shapes.push_back(s);
      }
    }
    const af::nn::TransformerConfig tc = transformer();
    li.models.push_back(std::make_shared<const af::nn::Model>(
        af::nn::prefill_model(tc, kMinPrompt + 2 * (kPromptSteps - 1))));
    li.models.push_back(std::make_shared<const af::nn::Model>(
        af::nn::decode_model(tc, kKvLen)));
    li.want_output = true;
    return li;
  }

  std::string input_bytes(std::uint64_t seed) const override {
    const Inputs in = generate(seed);
    ByteWriter w;
    for (const auto& panel : {in.weights.qkv, in.weights.out_proj,
                              in.weights.mlp_up, in.weights.mlp_down}) {
      for (const auto& m : panel) w.put(*m);
    }
    for (const Session& s : in.sessions) {
      w.put(s.prefill.size()).put(s.decode.size());
      for (const af::serve::PhaseGemm& g : s.prefill) w.put(g.a);
      for (const auto& step : s.decode) {
        for (const af::serve::PhaseGemm& g : step) w.put(g.a);
      }
    }
    return w.take();
  }

 private:
  // Regenerates the inputs from the seed (the served copies were moved
  // into the server) and compares every product with reference_gemm.
  void verify(std::uint64_t seed, const std::vector<std::uint64_t>& digests,
              const std::vector<char>& ok) const {
    const Inputs in = generate(seed);
    std::size_t g = 0;
    auto check = [&](const af::serve::PhaseGemm& gemm) {
      if (ok[g]) {
        PB_CHECK(digests[g] == digest(af::gemm::reference_gemm(gemm.a, *gemm.b)),
                 "llm_stream: GEMM " << g << " (" << af::nn::transformer_phase_name(gemm.phase)
                     << ", block " << gemm.block << ") differs from reference_gemm");
      }
      ++g;
    };
    for (const Session& s : in.sessions) {
      for (const af::serve::PhaseGemm& gemm : s.prefill) check(gemm);
      for (const auto& step : s.decode) {
        for (const af::serve::PhaseGemm& gemm : step) check(gemm);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_llm_stream() {
  return std::make_unique<LlmStream>();
}

}  // namespace pb
