// "analytic" backend: closed-form latency (Eqs. 1-4), activity
// (arch/activity.h) and utilization-aware power behind the engine::Engine
// facade.  The closed forms are pinned cycle-for-cycle and
// counter-for-counter against the cycle-accurate simulator
// (tests/arch_equivalence_test.cpp, tests/engine_test.cpp), so this
// backend's CostEstimates are exactly the numbers the "cycle" backend
// measures — at a tiny fraction of the cost.  The output matrix is
// computed by the vectorized gemm::multiply (bit-identical to the
// gemm::reference_gemm oracle) only when the request asks for it; cost-only
// traffic never touches the operands.  With magic memory every estimate is
// the O(1) closed forms, recomputed per call: evaluate_cached,
// evaluate_batch and evaluate_sparse_cached leave the estimate store alone,
// since a lookup costs about as much as the arithmetic and an entry costs
// memory.  With the memory model on, a miss is a DMA plan, so dense
// estimates are memoized in the bounded cost cache (engine/cost_cache.h).
// The Eq. 6 argmin (k = 0) reads the cache's sweep store either way.

#pragma once

#include "engine/engine.h"

namespace af::engine {

class AnalyticEngine final : public Engine {
 public:
  AnalyticEngine(const arch::ArrayConfig& config,
                 std::shared_ptr<const arch::ClockModel> clock,
                 const arch::EnergyParams& energy,
                 util::ThreadPool* shared_pool);

  const std::string& name() const override;
  bool measures() const override { return false; }

  RunResult run_gemm(const GemmRequest& request) override;
  CostEstimate evaluate(const gemm::GemmShape& shape, int k = 0) override;
  // Vectorized batch path: the Eq. 3/4 integer closed forms and the Eq. 6
  // argmin run over contiguous SoA arrays (one branch-free inner loop per
  // mode, no per-element virtual dispatch), then one finalization per
  // element (memoized only with the memory model on; see
  // Engine::stores_estimates).  Element i is EXACTLY equal to
  // evaluate(shapes[i], k) — the SoA loops execute the same integer and
  // double arithmetic as arch::total_latency_cycles / absolute_time_ps.
  std::vector<CostEstimate> evaluate_batch(
      std::span<const gemm::GemmShape> shapes, int k = 0) override;
  CostEstimate evaluate_tile_asym(std::int64_t t, int k_v, int k_h) override;
  CostEstimate evaluate_sparse(const gemm::GemmShape& shape, int k,
                               const arch::TileOccupancy& occupancy) override;
};

}  // namespace af::engine
