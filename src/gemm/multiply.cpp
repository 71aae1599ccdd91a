#include "gemm/multiply.h"

#include <cstdint>

#include "util/status.h"

// The loader picks the AVX2 clone on CPUs that have it and the baseline
// (SSE2 on x86-64) clone elsewhere; other targets build the plain loops.
// So does a ThreadSanitizer build: the loader runs the clones' resolvers
// before the TSan runtime is up, and the program crashes at start.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AF_TSAN_BUILD 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define AF_TSAN_BUILD 1
#endif
#if defined(__GNUC__) && defined(__x86_64__) && defined(__linux__) && \
    !defined(AF_TSAN_BUILD)
#define AF_PRODUCT_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define AF_PRODUCT_CLONES
#endif

namespace af::gemm {
namespace {

// Output columns per inner chunk: a fixed trip count the vectorizer takes
// whole, with a scalar tail for the last m % kLanes columns.
constexpr std::int64_t kLanes = 8;
// Output rows that share one pass over B.
constexpr std::int64_t kRowBlock = 4;

// One exact int64 product, accumulated mod 2^64 in unsigned arithmetic —
// the same value mac_mod adds, with no signed overflow anywhere.
inline std::uint64_t term(std::int64_t x, std::int32_t y) {
  return static_cast<std::uint64_t>(x * y);
}

// x0..x3 (four output rows of length m) += a0..a3 (four rows of A, length
// n) times B (n x m): each row of B streams once into all four outputs.
AF_PRODUCT_CLONES
void four_rows(const std::int32_t* a0, const std::int32_t* a1,
               const std::int32_t* a2, const std::int32_t* a3,
               const std::int32_t* __restrict b, std::int64_t n,
               std::int64_t m, std::uint64_t* __restrict x0,
               std::uint64_t* __restrict x1, std::uint64_t* __restrict x2,
               std::uint64_t* __restrict x3) {
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t s0 = a0[k], s1 = a1[k], s2 = a2[k], s3 = a3[k];
    const std::int32_t* __restrict bk = b + k * m;
    std::int64_t j = 0;
    for (; j + kLanes <= m; j += kLanes) {
      for (std::int64_t l = 0; l < kLanes; ++l) {
        x0[j + l] += term(s0, bk[j + l]);
        x1[j + l] += term(s1, bk[j + l]);
        x2[j + l] += term(s2, bk[j + l]);
        x3[j + l] += term(s3, bk[j + l]);
      }
    }
    for (; j < m; ++j) {
      x0[j] += term(s0, bk[j]);
      x1[j] += term(s1, bk[j]);
      x2[j] += term(s2, bk[j]);
      x3[j] += term(s3, bk[j]);
    }
  }
}

// x (one output row of length m) += a (one row of A, length n) times B.
AF_PRODUCT_CLONES
void one_row(const std::int32_t* a, const std::int32_t* __restrict b,
             std::int64_t n, std::int64_t m, std::uint64_t* __restrict x) {
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t s = a[k];
    const std::int32_t* __restrict bk = b + k * m;
    std::int64_t j = 0;
    for (; j + kLanes <= m; j += kLanes) {
      for (std::int64_t l = 0; l < kLanes; ++l) {
        x[j + l] += term(s, bk[j + l]);
      }
    }
    for (; j < m; ++j) x[j] += term(s, bk[j]);
  }
}

}  // namespace

Mat64 multiply(const Mat32& a, const Mat32& b) {
  AF_CHECK(a.cols() == b.rows(), "GEMM inner-dimension mismatch: "
                                     << a.cols() << " vs " << b.rows());
  const std::int64_t t = a.rows();
  const std::int64_t n = a.cols();
  const std::int64_t m = b.cols();
  Mat64 x(t, m);
  const std::int32_t* pa = a.data().data();
  const std::int32_t* pb = b.data().data();
  // int64_t and uint64_t may alias (signed/unsigned variants of one type):
  // the kernels accumulate in unsigned so the wrap is defined behaviour.
  auto* px = reinterpret_cast<std::uint64_t*>(x.mutable_data());
  std::int64_t i = 0;
  for (; i + kRowBlock <= t; i += kRowBlock) {
    four_rows(pa + i * n, pa + (i + 1) * n, pa + (i + 2) * n,
              pa + (i + 3) * n, pb, n, m, px + i * m, px + (i + 1) * m,
              px + (i + 2) * m, px + (i + 3) * m);
  }
  for (; i < t; ++i) one_row(pa + i * n, pb, n, m, px + i * m);
  return x;
}

}  // namespace af::gemm
