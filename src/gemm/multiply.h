// Production GEMM: the product kernel behind the analytic backend's
// output-producing runs (engine::AnalyticEngine::run_gemm).
//
// reference_gemm (gemm/reference.h) stays the oracle — the simulator, the
// serving audit and the tests all compare against it.  multiply() computes
// the same 64-bit modular product, bit for bit, but streams each row of B
// contiguously into an output row (i-k-j order) in fixed-width chunks the
// compiler vectorizes; on x86-64 GCC/Clang it also builds an AVX2 clone
// that the loader selects when the CPU has it.

#pragma once

#include "gemm/matrix.h"

namespace af::gemm {

// X = A x B, A is T x N, B is N x M, with 64-bit modular accumulation.
// Exactly equal to reference_gemm(a, b): every product is an exact int64,
// and addition mod 2^64 gives the same sum in any order.
Mat64 multiply(const Mat32& a, const Mat32& b);

}  // namespace af::gemm
