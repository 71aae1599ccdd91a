// The batched/memoized cost path's contract: every fast path — SoA
// evaluate_batch, the sharded CostCache behind evaluate_cached /
// evaluate_sparse_cached, and the pooled submit_gemm_batch serving path —
// returns estimates EXACTLY equal to the scalar virtual evaluate() it
// replaces, on every backend; magic-memory closed forms never touch the
// estimate store; the cache stays within its capacity, never serves a
// stale entry across a config or energy-parameter change, and neither
// loses nor tears an entry under concurrent use; and the batched serving
// path keeps the server's books balanced under multi-producer pressure.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/sparse.h"
#include "engine/cost_cache.h"
#include "engine/engine.h"
#include "gemm/matrix.h"
#include "gemm/reference.h"
#include "mem/tile_scheduler.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::engine {
namespace {

arch::ArrayConfig config_for(int rows, int cols) {
  arch::ArrayConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.supported_k = {1};
  for (const int k : {2, 4}) {
    if (rows % k == 0 && cols % k == 0) cfg.supported_k.push_back(k);
  }
  cfg.validate();
  return cfg;
}

std::vector<gemm::GemmShape> random_shapes(int count, std::int64_t max_dim,
                                           std::int64_t max_t, Rng& rng) {
  std::vector<gemm::GemmShape> shapes;
  for (int i = 0; i < count; ++i) {
    shapes.push_back({rng.next_in(1, max_dim), rng.next_in(1, max_dim),
                      rng.next_in(1, max_t)});
  }
  return shapes;
}

// --- exact equality: batched and cached vs the scalar virtual evaluate -----

TEST(CostPathTest, EvaluateBatchMatchesScalarOnEveryBackend) {
  Rng rng(101);
  for (const std::string& backend : {"analytic", "cycle"}) {
    // The cycle backend MEASURES (full simulation per mode probed), so its
    // sweep stays small; the analytic one gets a broader randomized set.
    const bool cheap = backend == "analytic";
    const auto shapes = random_shapes(cheap ? 48 : 4, cheap ? 96 : 20,
                                      cheap ? 64 : 12, rng);
    auto engine = EngineBuilder().config(config_for(8, 8)).build(backend);
    auto reference = EngineBuilder().config(config_for(8, 8)).build(backend);
    for (const int k : {0, 1, 2, 4}) {
      const std::vector<CostEstimate> batched =
          engine->evaluate_batch(shapes, k);
      ASSERT_EQ(batched.size(), shapes.size());
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        EXPECT_TRUE(exactly_equal(batched[i], reference->evaluate(shapes[i], k)))
            << backend << " shape " << i << " k=" << k;
      }
    }
  }
}

TEST(CostPathTest, CachedEvaluateMatchesUncachedAndCounts) {
  Rng rng(202);
  for (const std::string& backend : {"analytic", "cycle"}) {
    const bool cheap = backend == "analytic";
    const auto shapes = random_shapes(cheap ? 32 : 3, cheap ? 80 : 16,
                                      cheap ? 48 : 8, rng);
    auto engine = EngineBuilder().config(config_for(8, 8)).build(backend);
    const std::int64_t miss0 = engine->cost_cache()->misses();
    for (const int k : {0, 2}) {
      for (const gemm::GemmShape& s : shapes) {
        const CostEstimate uncached = engine->evaluate(s, k);
        EXPECT_TRUE(exactly_equal(engine->evaluate_cached(s, k), uncached))
            << backend << " first (miss) call, k=" << k;
        EXPECT_TRUE(exactly_equal(engine->evaluate_cached(s, k), uncached))
            << backend << " second (hit) call, k=" << k;
      }
    }
    EXPECT_GT(engine->cost_cache()->misses(), miss0) << backend;
    EXPECT_GT(engine->cost_cache()->hits(), 0) << backend;
  }
}

TEST(CostPathTest, SparseCachedMatchesUncached) {
  Rng rng(303);
  auto engine = EngineBuilder().config(config_for(8, 8)).build("analytic");
  for (int i = 0; i < 16; ++i) {
    const gemm::GemmShape shape{rng.next_in(8, 64), rng.next_in(8, 64),
                                rng.next_in(1, 32)};
    const double density = 0.1 + 0.8 * rng.next_double();
    const arch::TileOccupancy occupancy =
        arch::TileOccupancy::synthetic(shape, 8, 8, density, rng);
    if (occupancy.nonzero_tiles() == 0) continue;
    for (const int k : {0, 1, 2}) {
      const CostEstimate uncached = engine->evaluate_sparse(shape, k,
                                                            occupancy);
      EXPECT_TRUE(exactly_equal(
          engine->evaluate_sparse_cached(shape, k, occupancy), uncached))
          << "sparse miss, k=" << k;
      EXPECT_TRUE(exactly_equal(
          engine->evaluate_sparse_cached(shape, k, occupancy), uncached))
          << "sparse hit, k=" << k;
    }
  }
}

// --- the bypass: magic-memory closed forms never touch the estimate store -

TEST(CostPathTest, MemoryOffAnalyticEstimatesBypassTheStore) {
  Rng rng(707);
  const auto shapes = random_shapes(24, 64, 32, rng);
  auto engine = EngineBuilder().config(config_for(8, 8)).build("analytic");
  auto reference = EngineBuilder().config(config_for(8, 8)).build("analytic");
  for (const int k : {1, 2, 4}) {
    const std::vector<CostEstimate> batched = engine->evaluate_batch(shapes, k);
    ASSERT_EQ(batched.size(), shapes.size());
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const CostEstimate want = reference->evaluate(shapes[i], k);
      EXPECT_TRUE(exactly_equal(engine->evaluate_cached(shapes[i], k), want))
          << "evaluate_cached, shape " << i << " k=" << k;
      EXPECT_TRUE(exactly_equal(batched[i], want))
          << "evaluate_batch, shape " << i << " k=" << k;
    }
  }
  const gemm::GemmShape sparse_shape{40, 48, 9};
  const arch::TileOccupancy occupancy =
      arch::TileOccupancy::synthetic(sparse_shape, 8, 8, 0.5, rng);
  for (const int k : {1, 2}) {
    const CostEstimate want =
        reference->evaluate_sparse(sparse_shape, k, occupancy);
    for (int call = 0; call < 2; ++call) {
      EXPECT_TRUE(exactly_equal(
          engine->evaluate_sparse_cached(sparse_shape, k, occupancy), want))
          << "evaluate_sparse_cached, k=" << k << " call " << call;
    }
  }
  EXPECT_EQ(engine->cost_cache()->size(), 0);
  EXPECT_EQ(engine->cost_cache()->hits(), 0);
  EXPECT_EQ(engine->cost_cache()->misses(), 0);

  // A measuring backend keeps memoizing with magic memory: its miss is a
  // full simulation.
  auto cycle = EngineBuilder().config(config_for(8, 8)).build("cycle");
  const gemm::GemmShape shape{12, 16, 5};
  const CostEstimate first = cycle->evaluate_cached(shape, 2);
  const std::int64_t hits_before = cycle->cost_cache()->hits();
  EXPECT_TRUE(exactly_equal(cycle->evaluate_cached(shape, 2), first));
  EXPECT_EQ(cycle->cost_cache()->hits(), hits_before + 1);
  EXPECT_EQ(cycle->cost_cache()->size(), 1);
}

// --- the bound: a full stripe evicts by CLOCK, and never grows ------------

// A distinct, self-describing estimate per tag: a torn or misfiled entry
// cannot equal the estimate its key was inserted with.
CostEstimate tagged_estimate(std::int64_t tag) {
  CostEstimate est;
  est.k = 1;
  est.cycles = tag;
  est.period_ps = 0.5 * static_cast<double>(tag);
  est.time_ps = 2.0 * static_cast<double>(tag);
  est.energy_pj = 3.0 * static_cast<double>(tag);
  est.activity.mult_ops = tag;
  est.activity.streaming_cycles = tag + 1;
  est.dram_bytes = 5 * tag;
  return est;
}

gemm::GemmShape tagged_shape(std::int64_t tag) { return {tag + 1, 7, 3}; }

using SweepPtr = std::shared_ptr<const std::vector<arch::ModeSweepEntry>>;

SweepPtr tagged_sweep(std::int64_t tag) {
  arch::ModeSweepEntry entry;
  entry.decision.k = 1;
  entry.decision.cycles = tag;
  entry.is_best = true;
  return std::make_shared<const std::vector<arch::ModeSweepEntry>>(
      std::vector<arch::ModeSweepEntry>{entry});
}

TEST(CostPathTest, CacheStaysWithinCapacityAndKeepsTheHotKey) {
  constexpr std::uint64_t kFp = 0xfeedULL;
  CostCache cache(/*stripe_capacity=*/4);
  ASSERT_EQ(cache.capacity(), 4 * static_cast<std::int64_t>(
                                      CostCache::kStripes));
  const std::int64_t distinct = 4 * cache.capacity();
  const std::int64_t hot = distinct;  // a tag no cold insert reuses

  // Estimate store: one cold insert per round, the hot key looked up on
  // every round.
  cache.insert(kFp, tagged_shape(hot), 1, CostCache::kDenseOccupancy,
               tagged_estimate(hot));
  for (std::int64_t tag = 0; tag < distinct; ++tag) {
    cache.insert(kFp, tagged_shape(tag), 1, CostCache::kDenseOccupancy,
                 tagged_estimate(tag));
    ASSERT_LE(cache.size(), cache.capacity()) << "after insert " << tag;
    const auto found =
        cache.find(kFp, tagged_shape(hot), 1, CostCache::kDenseOccupancy);
    ASSERT_TRUE(found.has_value()) << "hot key evicted at round " << tag;
    EXPECT_TRUE(exactly_equal(*found, tagged_estimate(hot)));
  }
  // Survivors answer with their own value; evicted keys simply miss.
  std::int64_t survivors = 0;
  for (std::int64_t tag = 0; tag < distinct; ++tag) {
    if (const auto found = cache.find(kFp, tagged_shape(tag), 1,
                                      CostCache::kDenseOccupancy)) {
      ++survivors;
      EXPECT_TRUE(exactly_equal(*found, tagged_estimate(tag))) << tag;
    }
  }
  EXPECT_GT(survivors, 0);
  EXPECT_LT(survivors, distinct);

  // Sweep store: the same bound, independently of the estimate store.
  cache.clear();
  EXPECT_EQ(cache.size(), 0);
  cache.insert_sweep(kFp, tagged_shape(hot), tagged_sweep(hot));
  for (std::int64_t tag = 0; tag < distinct; ++tag) {
    cache.insert_sweep(kFp, tagged_shape(tag), tagged_sweep(tag));
    ASSERT_LE(cache.size(), cache.capacity()) << "after sweep " << tag;
    const SweepPtr found = cache.find_sweep(kFp, tagged_shape(hot));
    ASSERT_NE(found, nullptr) << "hot sweep evicted at round " << tag;
    EXPECT_EQ(found->front().decision.cycles, hot);
  }

  EXPECT_THROW(CostCache(0), Error);
}

TEST(CostPathTest, ConcurrentInsertAndFindLoseAndTearNothing) {
  constexpr std::uint64_t kFp = 0xbeefULL;
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 1500;  // far below the default cap
  CostCache cache;
  std::atomic<int> faults{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      const std::int64_t other = (c + 1) % kThreads;
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        const std::int64_t tag = c * kPerThread + i;
        cache.insert(kFp, tagged_shape(tag), 1, CostCache::kDenseOccupancy,
                     tagged_estimate(tag));
        cache.insert_sweep(kFp, tagged_shape(tag), tagged_sweep(tag));
        const auto own =
            cache.find(kFp, tagged_shape(tag), 1, CostCache::kDenseOccupancy);
        if (!own || !exactly_equal(*own, tagged_estimate(tag))) {
          faults.fetch_add(1);
        }
        // A neighbour's key may not be there yet; if it is, it is whole.
        const std::int64_t theirs = other * kPerThread + i;
        if (const auto seen = cache.find(kFp, tagged_shape(theirs), 1,
                                         CostCache::kDenseOccupancy)) {
          if (!exactly_equal(*seen, tagged_estimate(theirs))) {
            faults.fetch_add(1);
          }
        }
        const SweepPtr sweep = cache.find_sweep(kFp, tagged_shape(tag));
        if (sweep == nullptr || sweep->front().decision.cycles != tag) {
          faults.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(faults.load(), 0);
  EXPECT_EQ(cache.size(), 2 * kThreads * kPerThread);
  for (std::int64_t tag = 0; tag < kThreads * kPerThread; ++tag) {
    const auto found =
        cache.find(kFp, tagged_shape(tag), 1, CostCache::kDenseOccupancy);
    ASSERT_TRUE(found.has_value()) << "lost " << tag;
    EXPECT_TRUE(exactly_equal(*found, tagged_estimate(tag))) << tag;
  }
}

// --- invalidation: a shared cache never crosses config/energy fingerprints -

TEST(CostPathTest, SharedCacheKeysOnConfigAndEnergy) {
  // Memory model on, so the analytic engines store their estimates (a
  // magic-memory closed form bypasses the store) and the fingerprint
  // guards a live store.
  const auto with_memory = [](arch::ArrayConfig cfg) {
    cfg.mem.enabled = true;
    return cfg;
  };
  auto cache = std::make_shared<CostCache>();
  const gemm::GemmShape shape{24, 24, 12};

  auto base = EngineBuilder().config(with_memory(config_for(8, 8)))
                  .cost_cache(cache).build("analytic");
  const CostEstimate first = base->evaluate_cached(shape, 2);
  EXPECT_TRUE(exactly_equal(first, base->evaluate(shape, 2)));
  const std::int64_t misses_after_base = cache->misses();
  EXPECT_GT(misses_after_base, 0);

  // Same geometry, same energy, new engine: same fingerprint — the second
  // engine answers from the first engine's entry (a hit, not a miss).
  auto twin = EngineBuilder().config(with_memory(config_for(8, 8)))
                  .cost_cache(cache).build("analytic");
  EXPECT_EQ(twin->cost_fingerprint(), base->cost_fingerprint());
  const std::int64_t hits_before = cache->hits();
  EXPECT_TRUE(exactly_equal(twin->evaluate_cached(shape, 2), first));
  EXPECT_GT(cache->hits(), hits_before);
  EXPECT_EQ(cache->misses(), misses_after_base);

  // Different geometry: different fingerprint, so the same (shape, k) key
  // misses and the answer matches THAT engine's scalar evaluate — never the
  // 8x8 entry.
  auto wider = EngineBuilder().config(with_memory(config_for(16, 16)))
                   .cost_cache(cache).build("analytic");
  EXPECT_NE(wider->cost_fingerprint(), base->cost_fingerprint());
  const CostEstimate wide = wider->evaluate_cached(shape, 2);
  EXPECT_TRUE(exactly_equal(wide, wider->evaluate(shape, 2)));
  EXPECT_GT(cache->misses(), misses_after_base);
  EXPECT_FALSE(exactly_equal(wide, first));

  // Different energy parameters on the base geometry: energy_pj changes, so
  // the fingerprint must change with it.
  arch::EnergyParams hot;
  hot.e_mult_fj *= 2.0;
  auto pricier = EngineBuilder().config(with_memory(config_for(8, 8)))
                     .energy(hot).cost_cache(cache).build("analytic");
  EXPECT_NE(pricier->cost_fingerprint(), base->cost_fingerprint());
  const CostEstimate priced = pricier->evaluate_cached(shape, 2);
  EXPECT_TRUE(exactly_equal(priced, pricier->evaluate(shape, 2)));
  EXPECT_NE(priced.energy_pj, first.energy_pj);
}

// --- run pricing: run_gemm's dense cost is the memoized evaluate -----------

TEST(CostPathTest, RunPricingEqualsEvaluateOnMissAndHit) {
  // Memory hierarchy on, so every miss prices a real DMA plan.
  arch::ArrayConfig cfg = config_for(8, 8);
  cfg.mem.enabled = true;
  auto cache = std::make_shared<CostCache>();
  auto engine =
      EngineBuilder().config(cfg).cost_cache(cache).build("analytic");
  auto reference = EngineBuilder().config(cfg).build("analytic");
  Rng rng(505);
  const std::vector<std::pair<int, gemm::GemmShape>> cases = {
      {2, {24, 40, 12}}, {0, {40, 24, 9}}, {1, {17, 33, 1}}};
  for (const auto& [k, shape] : cases) {
    const gemm::Mat32 a =
        gemm::random_matrix(rng, shape.t, shape.n, -100, 100);
    const gemm::Mat32 b =
        gemm::random_matrix(rng, shape.n, shape.m, -100, 100);
    GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = k;
    const CostEstimate want = reference->evaluate(shape, k);

    const std::int64_t misses_before = cache->misses();
    const RunResult miss = engine->run_gemm(request);
    EXPECT_TRUE(exactly_equal(miss.cost, want)) << "miss, k=" << k;
    EXPECT_GT(cache->misses(), misses_before) << "k=" << k;

    const std::int64_t hits_before = cache->hits();
    const std::int64_t misses_after = cache->misses();
    const RunResult hit = engine->run_gemm(request);
    EXPECT_TRUE(exactly_equal(hit.cost, want)) << "hit, k=" << k;
    EXPECT_GT(cache->hits(), hits_before) << "k=" << k;
    EXPECT_EQ(cache->misses(), misses_after) << "k=" << k;

    ASSERT_TRUE(miss.out.has_value() && hit.out.has_value());
    const gemm::Mat64 product = gemm::reference_gemm(a, b);
    EXPECT_EQ(gemm::first_mismatch(*miss.out, product), "") << "k=" << k;
    EXPECT_EQ(gemm::first_mismatch(*hit.out, product), "") << "k=" << k;
  }
}

TEST(CostPathTest, ShrunkScratchpadEnginePricesItsOwnPlanFromASharedCache) {
  // The serving degrade engine's situation: same array, scratchpad shrunk
  // to the shape's minimum, one cache shared with the full-size engine.
  // Its fingerprint differs, so its run prices its own DMA plan — never
  // the full engine's cached entry.
  arch::ArrayConfig full = config_for(8, 8);
  full.mem.enabled = true;
  const gemm::GemmShape shape{64, 64, 16};
  arch::ArrayConfig shrunk = full;
  shrunk.mem.spad_bytes =
      mem::TileScheduler(full).min_spad_bytes(shape, full.mem.reuse);
  auto cache = std::make_shared<CostCache>();
  auto wide = EngineBuilder().config(full).cost_cache(cache).build("analytic");
  auto narrow =
      EngineBuilder().config(shrunk).cost_cache(cache).build("analytic");
  ASSERT_NE(wide->cost_fingerprint(), narrow->cost_fingerprint());

  Rng rng(606);
  const gemm::Mat32 a = gemm::random_matrix(rng, shape.t, shape.n, -9, 9);
  const gemm::Mat32 b = gemm::random_matrix(rng, shape.n, shape.m, -9, 9);
  GemmRequest request;
  request.a = &a;
  request.b = &b;
  request.k = 2;
  request.want_output = false;
  const RunResult wide_run = wide->run_gemm(request);
  const RunResult narrow_run = narrow->run_gemm(request);
  EXPECT_TRUE(exactly_equal(wide_run.cost, wide->evaluate(shape, 2)));
  EXPECT_TRUE(exactly_equal(narrow_run.cost, narrow->evaluate(shape, 2)));
  EXPECT_FALSE(exactly_equal(narrow_run.cost, wide_run.cost));
  EXPECT_GT(narrow_run.cost.dram_bytes, wide_run.cost.dram_bytes);
  EXPECT_FALSE(narrow_run.out.has_value());
}

}  // namespace
}  // namespace af::engine

namespace af::serve {
namespace {

// --- the batched serving path under multi-producer pressure ----------------

TEST(CostPathTest, BatchedSubmitStressBooksBalance) {
  Rng shape_rng(404);
  std::vector<gemm::GemmShape> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back({shape_rng.next_in(1, 64), shape_rng.next_in(1, 64),
                    shape_rng.next_in(1, 32)});
  }

  for (const std::string& dispatcher : {"global", "stealing"}) {
    ServerOptions opts;
    opts.num_shards = 4;
    opts.max_batch = 8;
    opts.queue_capacity = 256;
    opts.backend = "analytic";
    opts.dispatcher = dispatcher;
    Server server(arch::ArrayConfig::square(8), opts);

    // The answers every producer must observe: a private reference engine
    // with the server's geometry (defaults for clock/energy match too).
    auto reference =
        engine::EngineBuilder().square(8).build("analytic");

    constexpr int kProducers = 4;
    constexpr int kBatches = 24;
    constexpr int kBatchSize = 16;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kProducers; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(1000 + c);
        std::vector<gemm::GemmShape> shapes(kBatchSize);
        for (int b = 0; b < kBatches; ++b) {
          for (int j = 0; j < kBatchSize; ++j) {
            shapes[static_cast<std::size_t>(j)] =
                pool[rng.next_below(pool.size())];
          }
          SubmitOptions sub;
          sub.k = (b % 3 == 0) ? 0 : 1;  // mix argmin and fixed-mode batches
          BatchTicket ticket = server.submit_gemm_batch(
              "tenant-" + std::to_string(c), shapes, sub);
          const std::vector<engine::CostEstimate> results = ticket.get();
          if (results.size() != shapes.size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (int j = 0; j < kBatchSize; ++j) {
            const engine::CostEstimate want = reference->evaluate(
                shapes[static_cast<std::size_t>(j)], sub.k);
            if (!engine::exactly_equal(
                    results[static_cast<std::size_t>(j)], want)) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(mismatches.load(), 0) << dispatcher;
    const ServerStats stats = server.stats();
    const std::int64_t total =
        static_cast<std::int64_t>(kProducers) * kBatches * kBatchSize;
    // Every shape is one logical request; nothing lost, nothing duplicated.
    EXPECT_EQ(stats.submitted, total) << dispatcher;
    EXPECT_EQ(stats.completed, total) << dispatcher;
    EXPECT_EQ(stats.rejected, 0) << dispatcher;
    EXPECT_EQ(stats.promise_double_sets, 0) << dispatcher;
    // Memory off: every estimate is a closed form recomputed per call, so
    // the server's estimate store is never consulted and stays empty (the
    // batched argmin runs inside evaluate_batch, not through the sweep
    // store, so no lookup of any kind is counted).
    EXPECT_EQ(stats.cost_cache_hits, 0) << dispatcher;
    EXPECT_EQ(stats.cost_cache_misses, 0) << dispatcher;
  }
}

TEST(CostPathTest, BatchedSubmitValidatesInput) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.backend = "analytic";
  Server server(arch::ArrayConfig::square(8), opts);

  const std::vector<gemm::GemmShape> good{{8, 8, 4}};
  EXPECT_THROW(server.submit_gemm_batch("t", std::span<const gemm::GemmShape>{}),
               Error);
  const std::vector<gemm::GemmShape> bad{{8, 0, 4}};
  EXPECT_THROW(server.submit_gemm_batch("t", bad), Error);
  SubmitOptions sub;
  sub.k = 3;  // unsupported mode on a {1,2,4} array
  EXPECT_THROW(server.submit_gemm_batch("t", good, sub), Error);

  // And the happy path still answers after the rejects.
  std::vector<engine::CostEstimate> results =
      server.submit_gemm_batch("t", good).get();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].cycles, 0);
}

}  // namespace
}  // namespace af::serve
