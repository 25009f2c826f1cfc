// GEMM backend tests (ctest label: gemm).
//
// Contracts enforced here:
//   1. Non-finite propagation — no kernel masks NaN/Inf behind a zero-skip.
//      The NaN tests in this file FAIL against the pre-backend kernels, which
//      skipped `a == 0` terms and silently zeroed 0 * NaN.
//   2. Blocked == naive, bitwise, for every shape class the blocking logic
//      distinguishes (micro-tile remainders, strip remainders, empty dims).
//   3. Serial == parallel, bitwise, for every backend — thread count must
//      never change a result. For simd this covers the FMA-tile/scalar-tail
//      kernel boundary, which is pinned to the fixed task grid.
//   4. The simd tier is tolerance-equal to the reference kernels on all
//      shape classes, propagates NaN/Inf through the FMA tiles, and refuses
//      to run (std::runtime_error) on hosts without AVX2/FMA.
//   5. The PARDON_GEMM / PARDON_GEMM_THREADS environment switches reject
//      garbage loudly instead of silently running a different configuration
//      (regression tests for the strtol-without-endptr and swallowed-env
//      bugs).
// Plus an end-to-end golden run: a small federated FISC experiment produces
// bitwise-identical final model parameters under either scalar backend, and
// thread-count-invariant parameters under the simd backend.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fisc.hpp"
#include "data/partition.hpp"
#include "data/presets.hpp"
#include "data/splits.hpp"
#include "fl/simulator.hpp"
#include "nn/mlp.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace pardon::tensor {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Saves and restores the process-wide backend + thread settings so tests can
// flip them freely without leaking state into other test cases.
class GemmStateGuard {
 public:
  GemmStateGuard() : backend_(ActiveGemmBackend()) {}
  ~GemmStateGuard() {
    SetGemmBackend(backend_);
    SetGemmThreads(1);
  }

 private:
  GemmBackend backend_;
};

Tensor FilledTensor(std::vector<std::int64_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Pcg32 rng(seed);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = rng.NextUniform(-2.0f, 2.0f);
  }
  return t;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Saves/restores one environment variable so env-parsing tests cannot leak
// state into each other or into later suites.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) {
      saved_ = value;
    }
  }
  ~EnvVarGuard() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void Set(const char* value) { ::setenv(name_, value, 1); }
  void Unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// ---- 1. Non-finite propagation ---------------------------------------------

TEST(GemmNonFinite, ZeroTimesNaNPropagatesThroughMatMul) {
  // a = [[0, 1]], b = [[NaN], [2]]. 0 * NaN + 1 * 2 must be NaN; the old
  // zero-skip returned 2.
  Tensor a({1, 2});
  a[0] = 0.0f;
  a[1] = 1.0f;
  Tensor b({2, 1});
  b[0] = kNaN;
  b[1] = 2.0f;
  EXPECT_TRUE(std::isnan(NaiveMatMul(a, b).At(0, 0)));
  EXPECT_TRUE(std::isnan(BlockedMatMul(a, b).At(0, 0)));
}

TEST(GemmNonFinite, ZeroTimesInfIsNaNNotZero) {
  // a = [[0]], b = [[Inf]]. IEEE says 0 * Inf = NaN; the old zero-skip
  // returned 0.
  Tensor a({1, 1});
  a[0] = 0.0f;
  Tensor b({1, 1});
  b[0] = kInf;
  EXPECT_TRUE(std::isnan(NaiveMatMul(a, b).At(0, 0)));
  EXPECT_TRUE(std::isnan(BlockedMatMul(a, b).At(0, 0)));
}

TEST(GemmNonFinite, ZeroTimesNaNPropagatesThroughMatMulTransA) {
  // MatMulTransA(a, b) = a^T b with a [K,M], b [K,N]. Zero in a against NaN
  // in b; the old TransA kernel had the same zero-skip.
  Tensor a({2, 1});
  a[0] = 0.0f;
  a[1] = 1.0f;
  Tensor b({2, 1});
  b[0] = kNaN;
  b[1] = 2.0f;
  EXPECT_TRUE(std::isnan(NaiveMatMulTransA(a, b).At(0, 0)));
  EXPECT_TRUE(std::isnan(BlockedMatMulTransA(a, b).At(0, 0)));
}

TEST(GemmNonFinite, MatMulTransBPropagatesNaN) {
  // TransB never had the skip; pin the behavior anyway so it cannot regress.
  Tensor a({1, 2});
  a[0] = 0.0f;
  a[1] = 1.0f;
  Tensor b({1, 2});
  b[0] = kNaN;
  b[1] = 2.0f;
  EXPECT_TRUE(std::isnan(NaiveMatMulTransB(a, b).At(0, 0)));
  EXPECT_TRUE(std::isnan(BlockedMatMulTransB(a, b).At(0, 0)));
}

TEST(GemmNonFinite, NaNRowPoisonsOnlyItsOutputRow) {
  Tensor a = FilledTensor({3, 5}, 11);
  a.At(1, 2) = kNaN;
  const Tensor b = FilledTensor({5, 4}, 12);
  for (const Tensor& out : {NaiveMatMul(a, b), BlockedMatMul(a, b)}) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_FALSE(std::isnan(out.At(0, j)));
      EXPECT_TRUE(std::isnan(out.At(1, j)));
      EXPECT_FALSE(std::isnan(out.At(2, j)));
    }
  }
}

// ---- 2. Blocked vs naive bitwise parity ------------------------------------

struct Shape {
  std::int64_t m, k, n;
};

// Shape classes the blocking logic treats differently: single element, sizes
// below one micro-tile, exact tile/strip multiples, remainders in every
// dimension, tall-skinny / short-wide, and empty dims.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {4, 16, 16},  {5, 17, 18},  {64, 64, 64},
    {67, 33, 19}, {3, 200, 2}, {200, 3, 2},  {2, 2, 100},  {65, 1, 129},
    {0, 5, 3},   {5, 0, 3},    {5, 3, 0},
};

TEST(GemmParity, BlockedMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    const Tensor a = FilledTensor({s.m, s.k}, 100 + s.m);
    const Tensor b = FilledTensor({s.k, s.n}, 200 + s.n);
    const Tensor naive = NaiveMatMul(a, b);
    const Tensor blocked = BlockedMatMul(a, b);
    EXPECT_TRUE(BitwiseEqual(naive, blocked))
        << "MatMul mismatch at m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(GemmParity, BlockedTransAMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    const Tensor a = FilledTensor({s.k, s.m}, 300 + s.m);
    const Tensor b = FilledTensor({s.k, s.n}, 400 + s.n);
    EXPECT_TRUE(BitwiseEqual(NaiveMatMulTransA(a, b), BlockedMatMulTransA(a, b)))
        << "TransA mismatch at m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(GemmParity, BlockedTransBMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    const Tensor a = FilledTensor({s.m, s.k}, 500 + s.m);
    const Tensor b = FilledTensor({s.n, s.k}, 600 + s.n);
    EXPECT_TRUE(BitwiseEqual(NaiveMatMulTransB(a, b), BlockedMatMulTransB(a, b)))
        << "TransB mismatch at m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(GemmParity, DispatchFollowsActiveBackend) {
  GemmStateGuard guard;
  const Tensor a = FilledTensor({9, 13}, 7);
  const Tensor b = FilledTensor({13, 5}, 8);
  SetGemmBackend(GemmBackend::kNaive);
  const Tensor via_naive = MatMul(a, b);
  SetGemmBackend(GemmBackend::kBlocked);
  const Tensor via_blocked = MatMul(a, b);
  EXPECT_TRUE(BitwiseEqual(via_naive, via_blocked));
  EXPECT_TRUE(BitwiseEqual(via_naive, NaiveMatMul(a, b)));
}

// ---- 3. Serial vs parallel bitwise determinism ------------------------------

TEST(GemmDeterminism, ThreadCountNeverChangesTheResult) {
  GemmStateGuard guard;
  // Big enough to clear the parallel-dispatch threshold (2*m*k*n >= 2^22,
  // m > 64) so the 4-thread run genuinely fans out over the pool.
  const Tensor a = FilledTensor({160, 96}, 21);
  const Tensor b = FilledTensor({96, 144}, 22);
  SetGemmThreads(1);
  const Tensor serial = BlockedMatMul(a, b);
  SetGemmThreads(4);
  const Tensor parallel = BlockedMatMul(a, b);
  EXPECT_TRUE(BitwiseEqual(serial, parallel));
  EXPECT_TRUE(BitwiseEqual(serial, NaiveMatMul(a, b)));
}

TEST(GemmDeterminism, ParallelTransKernelsMatchSerial) {
  GemmStateGuard guard;
  const Tensor at = FilledTensor({96, 160}, 23);
  const Tensor b = FilledTensor({96, 144}, 24);
  const Tensor a2 = FilledTensor({160, 96}, 25);
  const Tensor bt = FilledTensor({144, 96}, 26);
  SetGemmThreads(1);
  const Tensor serial_ta = BlockedMatMulTransA(at, b);
  const Tensor serial_tb = BlockedMatMulTransB(a2, bt);
  SetGemmThreads(4);
  EXPECT_TRUE(BitwiseEqual(serial_ta, BlockedMatMulTransA(at, b)));
  EXPECT_TRUE(BitwiseEqual(serial_tb, BlockedMatMulTransB(a2, bt)));
}

// ---- 4. Simd tier ------------------------------------------------------------
//
// The AVX2/FMA backend rounds differently from the scalar kernels (one fused
// chain per element instead of mul+add), so parity against the reference is
// tolerance-based — but within itself it must be exactly as deterministic as
// the scalar backends: bitwise identical across thread counts and repeated
// calls, for every shape class.

// With |values| <= 2 and k <= 200 the per-element accumulation difference
// between the FMA chain and the scalar chain stays far below this.
constexpr float kSimdTol = 1e-3f;

TEST(GemmSimdParity, SimdMatchesNaiveWithinTolerance) {
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  for (const Shape& s : kShapes) {
    const Tensor a = FilledTensor({s.m, s.k}, 700 + s.m);
    const Tensor b = FilledTensor({s.k, s.n}, 800 + s.n);
    const Tensor naive = NaiveMatMul(a, b);
    const Tensor simd = SimdMatMul(a, b);
    ASSERT_EQ(naive.shape(), simd.shape());
    for (std::int64_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(naive[i], simd[i], kSimdTol)
          << "MatMul at " << i << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  }
}

TEST(GemmSimdParity, SimdTransKernelsMatchNaiveWithinTolerance) {
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  for (const Shape& s : kShapes) {
    const Tensor at = FilledTensor({s.k, s.m}, 900 + s.m);
    const Tensor b = FilledTensor({s.k, s.n}, 1000 + s.n);
    const Tensor ref_ta = NaiveMatMulTransA(at, b);
    const Tensor simd_ta = SimdMatMulTransA(at, b);
    ASSERT_EQ(ref_ta.shape(), simd_ta.shape());
    for (std::int64_t i = 0; i < ref_ta.size(); ++i) {
      EXPECT_NEAR(ref_ta[i], simd_ta[i], kSimdTol)
          << "TransA at " << i << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
    const Tensor a2 = FilledTensor({s.m, s.k}, 1100 + s.m);
    const Tensor bt = FilledTensor({s.n, s.k}, 1200 + s.n);
    const Tensor ref_tb = NaiveMatMulTransB(a2, bt);
    const Tensor simd_tb = SimdMatMulTransB(a2, bt);
    ASSERT_EQ(ref_tb.shape(), simd_tb.shape());
    for (std::int64_t i = 0; i < ref_tb.size(); ++i) {
      EXPECT_NEAR(ref_tb[i], simd_tb[i], kSimdTol)
          << "TransB at " << i << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  }
}

TEST(GemmSimdParity, DispatchFollowsSimdBackend) {
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  GemmStateGuard guard;
  const Tensor a = FilledTensor({13, 21}, 61);
  const Tensor b = FilledTensor({21, 18}, 62);
  SetGemmBackend(GemmBackend::kSimd);
  EXPECT_TRUE(SimdKernelsActive());
  EXPECT_TRUE(BitwiseEqual(MatMul(a, b), SimdMatMul(a, b)));
  SetGemmBackend(GemmBackend::kBlocked);
  EXPECT_FALSE(SimdKernelsActive());
  EXPECT_TRUE(BitwiseEqual(MatMul(a, b), BlockedMatMul(a, b)));
}

TEST(GemmSimdParity, SimdKernelsThrowWhenUnsupported) {
  if (GemmSimdSupported()) {
    GTEST_SKIP() << "host supports AVX2/FMA; unsupported path not reachable";
  }
  const Tensor a = FilledTensor({4, 4}, 63);
  const Tensor b = FilledTensor({4, 4}, 64);
  EXPECT_THROW(SimdMatMul(a, b), std::runtime_error);
  EXPECT_THROW(SimdMatMulTransA(a, b), std::runtime_error);
  EXPECT_THROW(SimdMatMulTransB(a, b), std::runtime_error);
  EXPECT_THROW(SetGemmBackend(GemmBackend::kSimd), std::runtime_error);
}

TEST(GemmSimdDeterminism, ThreadCountNeverChangesTheResult) {
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  GemmStateGuard guard;
  // Every shape class, every thread count: which kernel (FMA tile vs scalar
  // remainder) covers a row depends on the task grid, so this is the test
  // that pins the grid to the shape alone. The large shape clears the
  // parallel-dispatch threshold and genuinely fans out.
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  shapes.push_back({160, 96, 144});
  for (const Shape& s : shapes) {
    const Tensor a = FilledTensor({s.m, s.k}, 1300 + s.m);
    const Tensor b = FilledTensor({s.k, s.n}, 1400 + s.n);
    SetGemmThreads(1);
    const Tensor serial = SimdMatMul(a, b);
    EXPECT_TRUE(BitwiseEqual(serial, SimdMatMul(a, b)))
        << "repeated serial call diverged at m=" << s.m << " k=" << s.k
        << " n=" << s.n;
    for (const std::size_t threads : {2u, 3u, 4u}) {
      SetGemmThreads(threads);
      EXPECT_TRUE(BitwiseEqual(serial, SimdMatMul(a, b)))
          << "threads=" << threads << " m=" << s.m << " k=" << s.k
          << " n=" << s.n;
    }
  }
}

TEST(GemmSimdDeterminism, ParallelTransKernelsMatchSerial) {
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  GemmStateGuard guard;
  const Tensor at = FilledTensor({96, 160}, 65);
  const Tensor b = FilledTensor({96, 144}, 66);
  const Tensor a2 = FilledTensor({160, 96}, 67);
  const Tensor bt = FilledTensor({144, 96}, 68);
  SetGemmThreads(1);
  const Tensor serial_ta = SimdMatMulTransA(at, b);
  const Tensor serial_tb = SimdMatMulTransB(a2, bt);
  SetGemmThreads(4);
  EXPECT_TRUE(BitwiseEqual(serial_ta, SimdMatMulTransA(at, b)));
  EXPECT_TRUE(BitwiseEqual(serial_tb, SimdMatMulTransB(a2, bt)));
}

TEST(GemmSimdNonFinite, ZeroTimesNaNPropagatesThroughSimdKernels) {
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  // The PR 5 zero-skip regressions, on the simd tier: 0 * NaN and 0 * Inf
  // must come out NaN from the vector kernels too.
  Tensor a({1, 2});
  a[0] = 0.0f;
  a[1] = 1.0f;
  Tensor b({2, 1});
  b[0] = kNaN;
  b[1] = 2.0f;
  EXPECT_TRUE(std::isnan(SimdMatMul(a, b).At(0, 0)));
  Tensor at({2, 1});
  at[0] = 0.0f;
  at[1] = 1.0f;
  EXPECT_TRUE(std::isnan(SimdMatMulTransA(at, b).At(0, 0)));
  Tensor bt({1, 2});
  bt[0] = kNaN;
  bt[1] = 2.0f;
  EXPECT_TRUE(std::isnan(SimdMatMulTransB(a, bt).At(0, 0)));
  Tensor zero({1, 1});
  zero[0] = 0.0f;
  Tensor inf({1, 1});
  inf[0] = kInf;
  EXPECT_TRUE(std::isnan(SimdMatMul(zero, inf).At(0, 0)));
}

TEST(GemmSimdNonFinite, NaNRowPoisonsOnlyItsOutputRowThroughFmaTile) {
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  // m=8, n=16: rows 0..5 go through the 6x16 FMA tile, rows 6..7 through the
  // scalar remainder — the NaN row sits inside the tile, its neighbors prove
  // the tile doesn't smear it.
  Tensor a = FilledTensor({8, 20}, 71);
  a.At(2, 7) = kNaN;
  const Tensor b = FilledTensor({20, 16}, 72);
  const Tensor out = SimdMatMul(a, b);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 16; ++j) {
      EXPECT_EQ(std::isnan(out.At(i, j)), i == 2)
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(GemmNonFinite, ZeroSkipRegressionHoldsOnEveryTier) {
  // The dispatching MatMul must propagate 0 * NaN on whichever backend is
  // active — naive, blocked, and (where the host allows) simd.
  GemmStateGuard guard;
  Tensor a({1, 2});
  a[0] = 0.0f;
  a[1] = 1.0f;
  Tensor b({2, 1});
  b[0] = kNaN;
  b[1] = 2.0f;
  std::vector<GemmBackend> tiers = {GemmBackend::kNaive, GemmBackend::kBlocked};
  if (GemmSimdSupported()) tiers.push_back(GemmBackend::kSimd);
  for (const GemmBackend tier : tiers) {
    SetGemmBackend(tier);
    EXPECT_TRUE(std::isnan(MatMul(a, b).At(0, 0)))
        << "tier " << ToString(tier);
  }
}

// ---- 5. Env-parsing regressions ----------------------------------------------

TEST(GemmEnvParsing, ParseGemmThreadsValidatesTheFullString) {
  // Regression for the strtol-without-endptr bug: "abc" parsed to 0 and
  // silently forced a serial pool.
  EXPECT_THROW(ParseGemmThreads("abc"), std::invalid_argument);
  EXPECT_THROW(ParseGemmThreads("4abc"), std::invalid_argument);
  EXPECT_THROW(ParseGemmThreads("4 "), std::invalid_argument);
  EXPECT_THROW(ParseGemmThreads(""), std::invalid_argument);
  EXPECT_THROW(ParseGemmThreads("-2"), std::invalid_argument);
  EXPECT_THROW(ParseGemmThreads("0x4"), std::invalid_argument);
  EXPECT_THROW(ParseGemmThreads("99999999999999999999"),
               std::invalid_argument);
  EXPECT_EQ(ParseGemmThreads("0"), 0u);
  EXPECT_EQ(ParseGemmThreads("1"), 1u);
  EXPECT_EQ(ParseGemmThreads("8"), 8u);
}

TEST(GemmEnvParsing, GarbageThreadsEnvThrowsInsteadOfSilentSerialPool) {
  EnvVarGuard env("PARDON_GEMM_THREADS");
  env.Set("abc");
  EXPECT_THROW(detail::ResolveThreadsFromEnvOrDefault(),
               std::invalid_argument);
  env.Set("4abc");
  EXPECT_THROW(detail::ResolveThreadsFromEnvOrDefault(),
               std::invalid_argument);
  env.Set("6");
  EXPECT_EQ(detail::ResolveThreadsFromEnvOrDefault(), 6u);
  env.Unset();
  EXPECT_GE(detail::ResolveThreadsFromEnvOrDefault(), 1u);
}

TEST(GemmEnvParsing, InvalidBackendEnvThrowsInsteadOfSilentFallback) {
  // Regression for the swallowed-PARDON_GEMM bug: a typo like "bloked" used
  // to fall back to kBlocked with no diagnostic.
  EnvVarGuard env("PARDON_GEMM");
  env.Set("bloked");
  EXPECT_THROW(detail::ResolveBackendFromEnvOrDefault(),
               std::invalid_argument);
  env.Set("naive");
  EXPECT_EQ(detail::ResolveBackendFromEnvOrDefault(), GemmBackend::kNaive);
  env.Set("blocked");
  EXPECT_EQ(detail::ResolveBackendFromEnvOrDefault(), GemmBackend::kBlocked);
  if (GemmSimdSupported()) {
    env.Set("simd");
    EXPECT_EQ(detail::ResolveBackendFromEnvOrDefault(), GemmBackend::kSimd);
  } else {
    // Asking for simd on a host that can't run it is an error, not a silent
    // downgrade.
    env.Set("simd");
    EXPECT_THROW(detail::ResolveBackendFromEnvOrDefault(),
                 std::invalid_argument);
  }
  env.Unset();
  const GemmBackend fallback = detail::ResolveBackendFromEnvOrDefault();
  EXPECT_EQ(fallback, GemmSimdSupported() ? GemmBackend::kSimd
                                          : GemmBackend::kBlocked);
}

TEST(GemmEnvParsing, ApplyGemmConfigEnvWinsOverConfigButMustParse) {
  GemmStateGuard guard;
  EnvVarGuard env("PARDON_GEMM");
  util::Config config;
  config.Set("tensor.gemm", "naive");
  env.Set("blocked");
  ApplyGemmConfig(config);
  EXPECT_EQ(ActiveGemmBackend(), GemmBackend::kBlocked);
  // An unparseable env value used to be swallowed here (the config was
  // skipped whenever the env var was set at all); now it throws like the
  // config path does.
  env.Set("bloked");
  EXPECT_THROW(ApplyGemmConfig(config), std::invalid_argument);
  env.Unset();
  ApplyGemmConfig(config);
  EXPECT_EQ(ActiveGemmBackend(), GemmBackend::kNaive);
}

TEST(GemmEnvParsing, ApplyGemmConfigWithoutBackendKeyKeepsActiveBackend) {
  GemmStateGuard guard;
  EnvVarGuard env("PARDON_GEMM");
  env.Unset();
  SetGemmBackend(GemmBackend::kNaive);
  util::Config config;  // no tensor.gemm key
  ApplyGemmConfig(config);
  EXPECT_EQ(ActiveGemmBackend(), GemmBackend::kNaive);
}

// ---- Backend switch plumbing ------------------------------------------------

TEST(GemmConfig, ParseAndPrintRoundTrip) {
  EXPECT_EQ(ParseGemmBackend("naive"), GemmBackend::kNaive);
  EXPECT_EQ(ParseGemmBackend("blocked"), GemmBackend::kBlocked);
  EXPECT_EQ(ParseGemmBackend("simd"), GemmBackend::kSimd);
  EXPECT_EQ(ParseGemmBackend("BLOCKED"), std::nullopt);
  EXPECT_EQ(ParseGemmBackend("SIMD"), std::nullopt);
  EXPECT_EQ(ParseGemmBackend(""), std::nullopt);
  EXPECT_EQ(ParseGemmBackend("fast"), std::nullopt);
  EXPECT_EQ(ToString(GemmBackend::kNaive), "naive");
  EXPECT_EQ(ToString(GemmBackend::kBlocked), "blocked");
  EXPECT_EQ(ToString(GemmBackend::kSimd), "simd");
}

TEST(GemmConfig, ApplyGemmConfigSelectsBackend) {
  GemmStateGuard guard;
  // Env wins over config by design (and CI forces PARDON_GEMM per tier), so
  // testing the config path requires a clean environment.
  EnvVarGuard env("PARDON_GEMM");
  env.Unset();
  util::Config config;
  config.Set("tensor.gemm", "naive");
  ApplyGemmConfig(config);
  EXPECT_EQ(ActiveGemmBackend(), GemmBackend::kNaive);
  config.Set("tensor.gemm", "blocked");
  ApplyGemmConfig(config);
  EXPECT_EQ(ActiveGemmBackend(), GemmBackend::kBlocked);
  config.Set("tensor.gemm", "turbo");
  EXPECT_THROW(ApplyGemmConfig(config), std::invalid_argument);
  if (GemmSimdSupported()) {
    config.Set("tensor.gemm", "simd");
    ApplyGemmConfig(config);
    EXPECT_EQ(ActiveGemmBackend(), GemmBackend::kSimd);
  }
}

// ---- End-to-end golden run ---------------------------------------------------

TEST(GemmGolden, FederatedFiscRunIsBackendInvariant) {
  GemmStateGuard guard;
  const data::ScenarioPreset preset = data::MakePacsLike();
  const data::DomainGenerator generator(preset.generator);
  const data::FederatedSplit split =
      data::BuildSplit(generator, {.train_domains = {0, 1},
                                   .val_domains = {2},
                                   .test_domains = {3},
                                   .samples_per_train_domain = 120,
                                   .samples_per_eval_domain = 60,
                                   .seed = 9});
  const std::vector<data::Dataset> clients = data::PartitionHeterogeneous(
      split.train, {.num_clients = 3, .lambda = 0.5, .seed = 10});
  const nn::MlpClassifier model(
      {.input_dim = preset.generator.shape.FlatDim(),
       .hidden = {32},
       .embed_dim = 16,
       .num_classes = preset.generator.num_classes,
       .seed = 11});
  const fl::FlConfig fl_config{.total_clients = 3,
                               .participants_per_round = 3,
                               .rounds = 4,
                               .batch_size = 16,
                               .optimizer = {.lr = 3e-3f},
                               .eval_every = 2,
                               .seed = 12};
  const fl::Simulator simulator(clients, fl_config);
  const std::vector<fl::EvalSet> evals = {{"test", &split.test}};

  auto run_with = [&](GemmBackend backend) {
    SetGemmBackend(backend);
    util::ThreadPool pool(2);
    core::Fisc fisc;
    return simulator.Run(fisc, model, evals, &pool).final_model.FlatParams();
  };
  const std::vector<float> naive_params = run_with(GemmBackend::kNaive);
  const std::vector<float> blocked_params = run_with(GemmBackend::kBlocked);
  ASSERT_EQ(naive_params.size(), blocked_params.size());
  // Bitwise equality: every MatMul in the MLP training path is covered by the
  // kernel-level determinism contract, so the whole run must be too.
  for (std::size_t i = 0; i < naive_params.size(); ++i) {
    ASSERT_EQ(naive_params[i], blocked_params[i]) << "param " << i;
  }
}

TEST(GemmGolden, SimdFederatedFiscRunIsThreadCountInvariant) {
  // The simd tier drifts from the scalar backends by design, but within
  // itself the per-backend contract holds end-to-end: the same federated
  // FISC run (AdaIN transfer, softmax, losses, every MatMul) produces
  // bitwise-identical final parameters at any GEMM thread count.
  if (!GemmSimdSupported()) GTEST_SKIP() << "no AVX2/FMA on this host";
  GemmStateGuard guard;
  const data::ScenarioPreset preset = data::MakePacsLike();
  const data::DomainGenerator generator(preset.generator);
  const data::FederatedSplit split =
      data::BuildSplit(generator, {.train_domains = {0, 1},
                                   .val_domains = {2},
                                   .test_domains = {3},
                                   .samples_per_train_domain = 120,
                                   .samples_per_eval_domain = 60,
                                   .seed = 9});
  const std::vector<data::Dataset> clients = data::PartitionHeterogeneous(
      split.train, {.num_clients = 3, .lambda = 0.5, .seed = 10});
  const nn::MlpClassifier model(
      {.input_dim = preset.generator.shape.FlatDim(),
       .hidden = {32},
       .embed_dim = 16,
       .num_classes = preset.generator.num_classes,
       .seed = 11});
  const fl::FlConfig fl_config{.total_clients = 3,
                               .participants_per_round = 3,
                               .rounds = 4,
                               .batch_size = 16,
                               .optimizer = {.lr = 3e-3f},
                               .eval_every = 2,
                               .seed = 12};
  const fl::Simulator simulator(clients, fl_config);
  const std::vector<fl::EvalSet> evals = {{"test", &split.test}};

  SetGemmBackend(GemmBackend::kSimd);
  auto run_with_threads = [&](std::size_t threads) {
    SetGemmThreads(threads);
    util::ThreadPool pool(2);
    core::Fisc fisc;
    return simulator.Run(fisc, model, evals, &pool).final_model.FlatParams();
  };
  const std::vector<float> serial_params = run_with_threads(1);
  const std::vector<float> parallel_params = run_with_threads(4);
  ASSERT_EQ(serial_params.size(), parallel_params.size());
  for (std::size_t i = 0; i < serial_params.size(); ++i) {
    ASSERT_EQ(serial_params[i], parallel_params[i]) << "param " << i;
  }
}

}  // namespace
}  // namespace pardon::tensor
