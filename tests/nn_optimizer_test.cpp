// Optimizer tests: exact single-step math and convergence behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace pardon::nn {
namespace {

using tensor::Tensor;

TEST(Sgd, PlainStepIsLrTimesGrad) {
  Tensor param({2}, {1.0f, 2.0f});
  Tensor grad({2}, {0.5f, -1.0f});
  Sgd sgd({&param}, {&grad}, {.lr = 0.1f});
  sgd.Step();
  EXPECT_FLOAT_EQ(param[0], 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(param[1], 2.0f + 0.1f);
}

TEST(Sgd, MomentumAccumulates) {
  Tensor param({1}, {0.0f});
  Tensor grad({1}, {1.0f});
  Sgd sgd({&param}, {&grad}, {.lr = 1.0f, .momentum = 0.5f});
  sgd.Step();  // v = 1, param = -1
  EXPECT_FLOAT_EQ(param[0], -1.0f);
  sgd.Step();  // v = 1.5, param = -2.5
  EXPECT_FLOAT_EQ(param[0], -2.5f);
}

TEST(Sgd, WeightDecayShrinksParams) {
  Tensor param({1}, {10.0f});
  Tensor grad({1}, {0.0f});
  Sgd sgd({&param}, {&grad}, {.lr = 0.1f, .weight_decay = 0.5f});
  sgd.Step();
  EXPECT_FLOAT_EQ(param[0], 10.0f - 0.1f * 0.5f * 10.0f);
}

TEST(Adam, FirstStepMovesByLr) {
  Tensor param({1}, {0.0f});
  Tensor grad({1}, {3.0f});
  Adam adam({&param}, {&grad}, {.lr = 0.1f, .epsilon = 1e-8f});
  adam.Step();
  // With bias correction, the first Adam step is ~lr * sign(grad).
  EXPECT_NEAR(param[0], -0.1f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2.
  Tensor param({1}, {10.0f});
  Tensor grad({1});
  Adam adam({&param}, {&grad}, {.lr = 0.1f});
  for (int i = 0; i < 500; ++i) {
    grad[0] = 2.0f * (param[0] - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(param[0], 3.0f, 0.05f);
}

// -- bitwise equality with the scalar loops ---------------------------------
// Step() walks raw pointers so the loops vectorise. These tests hold it to a
// test-local copy of the plain scalar loop, bit for bit, at every length
// 0..67 so each vector width's tail is hit.

std::vector<std::uint32_t> Bits(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    bits.push_back(std::bit_cast<std::uint32_t>(t[i]));
  }
  return bits;
}

// Gaussian values with exact zeros, -0.0f and wide magnitudes mixed in.
Tensor MixedValues(std::int64_t n, tensor::Pcg32& rng) {
  Tensor t({n});
  for (std::int64_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 0: t[i] = 0.0f; break;
      case 3: t[i] = -0.0f; break;
      case 5: t[i] = rng.NextGaussian() * 1e-6f; break;
      default: t[i] = rng.NextGaussian() * 4.0f;
    }
  }
  return t;
}

void ReferenceAdamStep(Tensor& p, const Tensor& g, Tensor& m, Tensor& v,
                       const Adam::Options& o, int t) {
  const float bias1 = 1.0f - std::pow(o.beta1, static_cast<float>(t));
  const float bias2 = 1.0f - std::pow(o.beta2, static_cast<float>(t));
  for (std::int64_t j = 0; j < p.size(); ++j) {
    const float grad = g[j] + o.weight_decay * p[j];
    m[j] = o.beta1 * m[j] + (1.0f - o.beta1) * grad;
    v[j] = o.beta2 * v[j] + (1.0f - o.beta2) * grad * grad;
    const float m_hat = m[j] / bias1;
    const float v_hat = v[j] / bias2;
    p[j] -= o.lr * m_hat / (std::sqrt(v_hat) + o.epsilon);
  }
}

void ReferenceSgdStep(Tensor& p, const Tensor& g, Tensor& vel,
                      const Sgd::Options& o) {
  for (std::int64_t j = 0; j < p.size(); ++j) {
    float grad = g[j] + o.weight_decay * p[j];
    if (o.momentum != 0.0f) {
      vel[j] = o.momentum * vel[j] + grad;
      grad = vel[j];
    }
    p[j] -= o.lr * grad;
  }
}

TEST(Adam, StepMatchesScalarLoopBitwise) {
  for (const float weight_decay : {0.0f, 1e-2f}) {
    const Adam::Options options{.lr = 3e-3f, .weight_decay = weight_decay};
    for (std::int64_t n = 0; n <= 67; ++n) {
      tensor::Pcg32 rng(static_cast<std::uint64_t>(n) + 1);
      // A second parameter of another length, as a model has several.
      const std::int64_t n2 = (n * 5) % 13 + 1;
      Tensor p1 = MixedValues(n, rng), p2 = MixedValues(n2, rng);
      Tensor g1({n}), g2({n2});
      Tensor ref1 = p1, ref2 = p2;
      Tensor m1({n}), v1({n}), m2({n2}), v2({n2});
      Adam adam({&p1, &p2}, {&g1, &g2}, options);
      for (int t = 1; t <= 3; ++t) {
        g1 = MixedValues(n, rng);
        g2 = MixedValues(n2, rng);
        adam.Step();
        ReferenceAdamStep(ref1, g1, m1, v1, options, t);
        ReferenceAdamStep(ref2, g2, m2, v2, options, t);
        ASSERT_EQ(Bits(p1), Bits(ref1)) << "n=" << n << " step " << t;
        ASSERT_EQ(Bits(p2), Bits(ref2)) << "n2=" << n2 << " step " << t;
      }
    }
  }
}

TEST(Sgd, StepMatchesScalarLoopBitwise) {
  for (const float momentum : {0.0f, 0.9f}) {
    for (const float weight_decay : {0.0f, 1e-2f}) {
      const Sgd::Options options{
          .lr = 1e-2f, .momentum = momentum, .weight_decay = weight_decay};
      for (std::int64_t n = 0; n <= 67; ++n) {
        tensor::Pcg32 rng(static_cast<std::uint64_t>(n) + 101);
        Tensor p = MixedValues(n, rng);
        Tensor g({n});
        Tensor ref = p, vel({n});
        Sgd sgd({&p}, {&g}, options);
        for (int t = 1; t <= 3; ++t) {
          g = MixedValues(n, rng);
          sgd.Step();
          ReferenceSgdStep(ref, g, vel, options);
          ASSERT_EQ(Bits(p), Bits(ref))
              << "n=" << n << " momentum " << momentum << " step " << t;
        }
      }
    }
  }
}

TEST(Optimizer, ZeroGradClearsBuffers) {
  Tensor param({2});
  Tensor grad({2}, {1.0f, 2.0f});
  Sgd sgd({&param}, {&grad}, {});
  sgd.ZeroGrad();
  EXPECT_EQ(grad[0], 0.0f);
  EXPECT_EQ(grad[1], 0.0f);
}

TEST(Optimizer, RejectsMismatchedShapes) {
  Tensor param({2});
  Tensor grad({3});
  EXPECT_THROW(Sgd({&param}, {&grad}, {}), std::invalid_argument);
  Tensor grad2({2});
  EXPECT_THROW(Sgd({&param}, {&grad2, &grad2}, {}), std::invalid_argument);
}

TEST(MakeOptimizer, DispatchesOnKind) {
  Tensor param({1}, {0.0f});
  Tensor grad({1}, {1.0f});
  const auto sgd = MakeOptimizer(
      {&param}, {&grad},
      {.kind = OptimizerOptions::Kind::kSgdMomentum, .lr = 1.0f, .momentum = 0.0f});
  sgd->Step();
  EXPECT_FLOAT_EQ(param[0], -1.0f);

  param[0] = 0.0f;
  const auto adam = MakeOptimizer(
      {&param}, {&grad}, {.kind = OptimizerOptions::Kind::kAdam, .lr = 0.5f});
  adam->Step();
  EXPECT_NEAR(param[0], -0.5f, 0.05f);
}

}  // namespace
}  // namespace pardon::nn
