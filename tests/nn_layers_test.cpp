// Layer tests: forward semantics plus numerical gradient checks for every
// layer's backward pass (central differences against the analytic gradient).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"

namespace pardon::nn {
namespace {

using tensor::Pcg32;
using tensor::Tensor;

// Numerically checks dL/dx for L = sum(w .* f(x)) with random fixed w.
// Returns max abs difference between analytic and numeric input gradients.
float CheckInputGradient(Layer& layer, const Tensor& x, Pcg32& rng,
                         float epsilon = 1e-3f) {
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(x, ctx, /*training=*/true, &rng);
  const Tensor weights = Tensor::Gaussian(y.shape(), 0.0f, 1.0f, rng);

  layer.ZeroGrad();
  const Tensor analytic = layer.Backward(weights, *ctx);

  float max_diff = 0.0f;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    Tensor x_plus = x, x_minus = x;
    x_plus[i] += epsilon;
    x_minus[i] -= epsilon;
    std::unique_ptr<Layer::Context> scratch;
    // Stochastic layers cannot be checked this way; callers pass
    // deterministic layers only.
    const float f_plus =
        tensor::Dot(layer.Forward(x_plus, scratch, true, &rng), weights);
    const float f_minus =
        tensor::Dot(layer.Forward(x_minus, scratch, true, &rng), weights);
    const float numeric = (f_plus - f_minus) / (2.0f * epsilon);
    max_diff = std::max(max_diff, std::fabs(numeric - analytic[i]));
  }
  return max_diff;
}

TEST(Linear, ForwardMatchesHandComputed) {
  Linear layer(Tensor({2, 2}, {1, 2, 3, 4}), Tensor({2}, {10, 20}));
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(Tensor({1, 2}, {1, 1}), ctx, true, nullptr);
  EXPECT_FLOAT_EQ(y.At(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.At(0, 1), 2 + 4 + 20);
}

TEST(Linear, InputGradientMatchesNumeric) {
  Pcg32 rng(1);
  Linear layer(4, 3, rng);
  const Tensor x = Tensor::Gaussian({5, 4}, 0, 1, rng);
  EXPECT_LT(CheckInputGradient(layer, x, rng), 1e-2f);
}

TEST(Linear, ParamGradientMatchesNumeric) {
  Pcg32 rng(2);
  Linear layer(3, 2, rng);
  const Tensor x = Tensor::Gaussian({4, 3}, 0, 1, rng);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(x, ctx, true, &rng);
  const Tensor weights = Tensor::Gaussian(y.shape(), 0, 1, rng);
  layer.ZeroGrad();
  layer.Backward(weights, *ctx);

  Tensor* w = layer.Params()[0];
  Tensor* gw = layer.Grads()[0];
  const float epsilon = 1e-3f;
  for (std::int64_t i = 0; i < w->size(); i += 2) {
    const float original = (*w)[i];
    (*w)[i] = original + epsilon;
    std::unique_ptr<Layer::Context> scratch;
    const float f_plus = tensor::Dot(layer.Forward(x, scratch, true, &rng), weights);
    (*w)[i] = original - epsilon;
    const float f_minus = tensor::Dot(layer.Forward(x, scratch, true, &rng), weights);
    (*w)[i] = original;
    EXPECT_NEAR((f_plus - f_minus) / (2 * epsilon), (*gw)[i], 1e-2f);
  }
}

TEST(Linear, GradAccumulatesAcrossBackwardCalls) {
  Pcg32 rng(3);
  Linear layer(2, 2, rng);
  const Tensor x = Tensor::Gaussian({3, 2}, 0, 1, rng);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(x, ctx, true, &rng);
  const Tensor g = Tensor::Ones(y.shape());
  layer.ZeroGrad();
  layer.Backward(g, *ctx);
  const Tensor once = *layer.Grads()[0];
  layer.Backward(g, *ctx);
  const Tensor twice = *layer.Grads()[0];
  EXPECT_LT(tensor::MaxAbsDiff(tensor::Scale(once, 2.0f), twice), 1e-5f);
}

TEST(Relu, ZeroesNegativesAndMasksGradient) {
  Relu relu;
  Pcg32 rng(4);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = relu.Forward(Tensor({1, 4}, {-1, 2, -3, 4}), ctx, true, &rng);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 2);
  const Tensor grad = relu.Backward(Tensor({1, 4}, {1, 1, 1, 1}), *ctx);
  EXPECT_FLOAT_EQ(grad[0], 0);
  EXPECT_FLOAT_EQ(grad[1], 1);
}

std::vector<std::uint32_t> Bits(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    bits.push_back(std::bit_cast<std::uint32_t>(t[i]));
  }
  return bits;
}

// Relu is a branch-free select; it must keep the branchy loop's signed zeros
// and NaNs, which std::max would not.
TEST(Relu, SelectMatchesBranchyLoopOnSignedZeroAndNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> values = {-0.0f, 0.0f, nan, -nan, -1.5f, 2.0f,
                                     -inf, inf, 1e-40f, -1e-40f, 3.0f,
                                     -0.0f, nan, 0.0f, -2.0f};
  // 15 values in a [3, 5] batch, so the vector loops have a tail.
  const Tensor x({3, 5}, values);
  Pcg32 rng(4);
  const Tensor grad_out = Tensor::Gaussian({3, 5}, 0.0f, 1.0f, rng);

  Tensor want_y = x;
  for (std::int64_t i = 0; i < want_y.size(); ++i) {
    if (want_y[i] < 0.0f) want_y[i] = 0.0f;
  }
  Tensor want_grad = grad_out;
  for (std::int64_t i = 0; i < want_grad.size(); ++i) {
    if (want_y[i] <= 0.0f) want_grad[i] = 0.0f;
  }

  Relu relu;
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = relu.Forward(x, ctx, /*training=*/true, &rng);
  EXPECT_EQ(Bits(y), Bits(want_y));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y[0]), 0x80000000u);  // -0 stays -0
  EXPECT_TRUE(std::isnan(y[2]));
  EXPECT_EQ(Bits(relu.Backward(grad_out, *ctx)), Bits(want_grad));
}

TEST(Tanh, GradientMatchesNumeric) {
  Tanh layer;
  Pcg32 rng(5);
  const Tensor x = Tensor::Gaussian({3, 4}, 0, 1, rng);
  EXPECT_LT(CheckInputGradient(layer, x, rng), 1e-2f);
}

TEST(LeakyRelu, GradientMatchesNumeric) {
  LeakyRelu layer(0.1f);
  Pcg32 rng(6);
  // Offset from zero so finite differences do not straddle the kink.
  Tensor x = Tensor::Gaussian({3, 4}, 0, 1, rng);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.1f;
  }
  EXPECT_LT(CheckInputGradient(layer, x, rng), 1e-2f);
}

TEST(Activations, SigmoidValuesAndGradient) {
  Sigmoid layer;
  Pcg32 rng(1);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(Tensor({1, 3}, {0, 100, -100}), ctx, true, &rng);
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
  const Tensor x = Tensor::Gaussian({3, 4}, 0, 1, rng);
  EXPECT_LT(CheckInputGradient(layer, x, rng), 1e-2f);
}

TEST(Activations, GeluValuesAndGradient) {
  Gelu layer;
  Pcg32 rng(2);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(Tensor({1, 3}, {0, 10, -10}), ctx, true, &rng);
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 10.0f, 1e-3f);
  EXPECT_NEAR(y[2], 0.0f, 1e-3f);
  const Tensor x = Tensor::Gaussian({3, 4}, 0, 1, rng);
  EXPECT_LT(CheckInputGradient(layer, x, rng), 1e-2f);
}

TEST(Activations, SoftplusValuesAndGradient) {
  Softplus layer;
  Pcg32 rng(3);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(Tensor({1, 2}, {0, 50}), ctx, true, &rng);
  EXPECT_NEAR(y[0], std::log(2.0f), 1e-5f);
  EXPECT_NEAR(y[1], 50.0f, 1e-4f);
  const Tensor x = Tensor::Gaussian({3, 4}, 0, 2, rng);
  EXPECT_LT(CheckInputGradient(layer, x, rng), 1e-2f);
}

TEST(Dropout, EvalIsIdentityTrainScalesSurvivors) {
  Dropout dropout(0.5f);
  Pcg32 rng(7);
  const Tensor x = Tensor::Ones({1, 1000});
  std::unique_ptr<Layer::Context> ctx;
  const Tensor eval_y = dropout.Forward(x, ctx, /*training=*/false, nullptr);
  EXPECT_EQ(tensor::MaxAbsDiff(eval_y, x), 0.0f);
  EXPECT_EQ(ctx, nullptr);

  const Tensor train_y = dropout.Forward(x, ctx, /*training=*/true, &rng);
  int zeros = 0;
  for (std::int64_t i = 0; i < train_y.size(); ++i) {
    if (train_y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(train_y[i], 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_GT(zeros, 350);
  EXPECT_LT(zeros, 650);
}

TEST(Dropout, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
}

TEST(InstanceNorm1d, RowsBecomeStandardized) {
  InstanceNorm1d layer;
  Pcg32 rng(8);
  const Tensor x = Tensor::Gaussian({4, 32}, 3.0f, 2.0f, rng);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(x, ctx, true, &rng);
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (std::int64_t c = 0; c < 32; ++c) mean += y.At(r, c);
    mean /= 32;
    for (std::int64_t c = 0; c < 32; ++c) {
      var += (y.At(r, c) - mean) * (y.At(r, c) - mean);
    }
    var /= 32;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(InstanceNorm1d, GradientMatchesNumeric) {
  InstanceNorm1d layer;
  Pcg32 rng(9);
  const Tensor x = Tensor::Gaussian({3, 6}, 0, 1, rng);
  EXPECT_LT(CheckInputGradient(layer, x, rng, 1e-2f), 5e-2f);
}

TEST(BatchNorm1d, TrainingNormalizesByBatchStats) {
  BatchNorm1d layer(3);
  Pcg32 rng(10);
  const Tensor x = Tensor::Gaussian({64, 3}, 5.0f, 3.0f, rng);
  std::unique_ptr<Layer::Context> ctx;
  const Tensor y = layer.Forward(x, ctx, /*training=*/true, &rng);
  const Tensor col_mean = tensor::ColMean(y);
  for (std::int64_t c = 0; c < 3; ++c) EXPECT_NEAR(col_mean[c], 0.0f, 1e-4f);
}

TEST(BatchNorm1d, RunningStatsConvergeAndEvalUsesThem) {
  BatchNorm1d layer(2);
  Pcg32 rng(11);
  std::unique_ptr<Layer::Context> ctx;
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::Gaussian({32, 2}, 4.0f, 1.0f, rng);
    layer.Forward(x, ctx, /*training=*/true, &rng);
  }
  // Eval on data with the SAME distribution: output should be ~standardized.
  const Tensor x = Tensor::Gaussian({256, 2}, 4.0f, 1.0f, rng);
  const Tensor y = layer.Forward(x, ctx, /*training=*/false, nullptr);
  const Tensor mean = tensor::ColMean(y);
  for (std::int64_t c = 0; c < 2; ++c) EXPECT_NEAR(mean[c], 0.0f, 0.2f);
}

TEST(BatchNorm1d, GradientMatchesNumeric) {
  // Freeze running-stat updates' effect by checking in a single pass: the
  // analytic backward uses batch statistics, matching the forward.
  BatchNorm1d layer(4);
  Pcg32 rng(12);
  const Tensor x = Tensor::Gaussian({8, 4}, 0, 1, rng);
  // NOTE: Forward updates running stats each call, but the loss value for
  // the numeric check depends only on batch stats, which are unaffected.
  EXPECT_LT(CheckInputGradient(layer, x, rng, 1e-2f), 5e-2f);
}

TEST(BatchNorm1d, BuffersExposedAndCloned) {
  BatchNorm1d layer(3);
  ASSERT_EQ(layer.Buffers().size(), 2u);
  Pcg32 rng(13);
  std::unique_ptr<Layer::Context> ctx;
  layer.Forward(Tensor::Gaussian({16, 3}, 2.0f, 1.0f, rng), ctx, true, &rng);
  const auto clone = layer.Clone();
  auto* bn_clone = dynamic_cast<BatchNorm1d*>(clone.get());
  ASSERT_NE(bn_clone, nullptr);
  EXPECT_LT(tensor::MaxAbsDiff(*layer.Buffers()[0], *bn_clone->Buffers()[0]),
            1e-6f);
  // Mutating the clone's buffers must not touch the original.
  bn_clone->Buffers()[0]->Fill(99.0f);
  EXPECT_GT(tensor::MaxAbsDiff(*layer.Buffers()[0], *bn_clone->Buffers()[0]),
            1.0f);
}

// The column-by-column BatchNorm1d loops the layer used before its passes
// walked rows outer; the rewrite must reproduce them bit for bit.
struct ReferenceBatchNorm {
  Tensor gamma, beta, running_mean, running_var, grad_gamma, grad_beta;
  Tensor xhat, inv_std;
  float momentum = 0.1f, epsilon = 1e-5f;

  Tensor Forward(const Tensor& x, bool training) {
    const std::int64_t n = x.dim(0), d = x.dim(1);
    Tensor mean({d}), var({d});
    if (training && n > 1) {
      for (std::int64_t c = 0; c < d; ++c) {
        double acc = 0.0;
        for (std::int64_t r = 0; r < n; ++r) acc += x.At(r, c);
        mean[c] = static_cast<float>(acc / static_cast<double>(n));
      }
      for (std::int64_t c = 0; c < d; ++c) {
        double acc = 0.0;
        for (std::int64_t r = 0; r < n; ++r) {
          const double diff = double(x.At(r, c)) - mean[c];
          acc += diff * diff;
        }
        var[c] = static_cast<float>(acc / static_cast<double>(n));
      }
      for (std::int64_t c = 0; c < d; ++c) {
        running_mean[c] =
            (1.0f - momentum) * running_mean[c] + momentum * mean[c];
        running_var[c] = (1.0f - momentum) * running_var[c] + momentum * var[c];
      }
    } else {
      mean = running_mean;
      var = running_var;
    }
    xhat = Tensor({n, d});
    inv_std = Tensor({d});
    Tensor out({n, d});
    for (std::int64_t c = 0; c < d; ++c) {
      inv_std[c] = 1.0f / std::sqrt(var[c] + epsilon);
      for (std::int64_t r = 0; r < n; ++r) {
        xhat.At(r, c) = (x.At(r, c) - mean[c]) * inv_std[c];
        out.At(r, c) = gamma[c] * xhat.At(r, c) + beta[c];
      }
    }
    return out;
  }

  Tensor Backward(const Tensor& grad_out) {
    const std::int64_t n = xhat.dim(0), d = xhat.dim(1);
    Tensor grad({n, d});
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::int64_t c = 0; c < d; ++c) {
      double g_sum = 0.0, gx_sum = 0.0;
      for (std::int64_t r = 0; r < n; ++r) {
        g_sum += grad_out.At(r, c);
        gx_sum += double(grad_out.At(r, c)) * xhat.At(r, c);
      }
      grad_gamma[c] += static_cast<float>(gx_sum);
      grad_beta[c] += static_cast<float>(g_sum);
      const float scale = gamma[c] * inv_std[c];
      const float g_mean = static_cast<float>(g_sum) * inv_n;
      const float gx_mean = static_cast<float>(gx_sum) * inv_n;
      for (std::int64_t r = 0; r < n; ++r) {
        grad.At(r, c) =
            scale * (grad_out.At(r, c) - g_mean - xhat.At(r, c) * gx_mean);
      }
    }
    return grad;
  }
};

TEST(BatchNorm1d, RowOuterPassesMatchColumnLoopsBitwise) {
  // Odd n and d leave tails in every vectorised loop; n = 1 in training
  // takes the running-statistics path.
  for (const std::int64_t n : {1, 3, 7, 33}) {
    for (const std::int64_t d : {1, 5, 17, 31}) {
      Pcg32 rng(static_cast<std::uint64_t>(n * 100 + d));
      BatchNorm1d layer(d);
      ReferenceBatchNorm ref;
      ref.gamma = Tensor::Gaussian({d}, 1.0f, 0.5f, rng);
      ref.beta = Tensor::Gaussian({d}, 0.0f, 0.5f, rng);
      ref.running_mean = Tensor::Gaussian({d}, 0.0f, 1.0f, rng);
      ref.running_var = Tensor::Uniform({d}, 0.5f, 2.0f, rng);
      ref.grad_gamma = Tensor::Gaussian({d}, 0.0f, 1.0f, rng);
      ref.grad_beta = Tensor::Gaussian({d}, 0.0f, 1.0f, rng);
      *layer.Params()[0] = ref.gamma;
      *layer.Params()[1] = ref.beta;
      *layer.Buffers()[0] = ref.running_mean;
      *layer.Buffers()[1] = ref.running_var;
      *layer.Grads()[0] = ref.grad_gamma;
      *layer.Grads()[1] = ref.grad_beta;

      for (const bool training : {true, false}) {
        const Tensor x = Tensor::Gaussian({n, d}, 3.0f, 2.0f, rng);
        const Tensor grad_out = Tensor::Gaussian({n, d}, 0.0f, 1.0f, rng);
        std::unique_ptr<Layer::Context> ctx;
        const Tensor y = layer.Forward(x, ctx, training, &rng);
        const Tensor grad = layer.Backward(grad_out, *ctx);
        const Tensor want_y = ref.Forward(x, training);
        const Tensor want_grad = ref.Backward(grad_out);
        const std::string where = "n=" + std::to_string(n) +
                                  " d=" + std::to_string(d) +
                                  (training ? " train" : " eval");
        EXPECT_EQ(Bits(y), Bits(want_y)) << where;
        EXPECT_EQ(Bits(grad), Bits(want_grad)) << where;
        EXPECT_EQ(Bits(*layer.Buffers()[0]), Bits(ref.running_mean)) << where;
        EXPECT_EQ(Bits(*layer.Buffers()[1]), Bits(ref.running_var)) << where;
        EXPECT_EQ(Bits(*layer.Grads()[0]), Bits(ref.grad_gamma)) << where;
        EXPECT_EQ(Bits(*layer.Grads()[1]), Bits(ref.grad_beta)) << where;
      }
    }
  }
}

TEST(Sequential, ChainGradientMatchesNumeric) {
  Pcg32 rng(14);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(4, 6, rng));
  seq.Add(std::make_unique<Tanh>());
  seq.Add(std::make_unique<Linear>(6, 3, rng));

  const Tensor x = Tensor::Gaussian({2, 4}, 0, 1, rng);
  Sequential::Trace trace;
  const Tensor y = seq.Forward(x, &trace, true, &rng);
  const Tensor weights = Tensor::Gaussian(y.shape(), 0, 1, rng);
  seq.ZeroGrad();
  const Tensor analytic = seq.Backward(weights, trace);

  const float epsilon = 1e-3f;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += epsilon;
    xm[i] -= epsilon;
    const float fp = tensor::Dot(seq.Forward(xp, nullptr, true, &rng), weights);
    const float fm = tensor::Dot(seq.Forward(xm, nullptr, true, &rng), weights);
    EXPECT_NEAR((fp - fm) / (2 * epsilon), analytic[i], 2e-2f);
  }
}

TEST(Sequential, CopyIsDeep) {
  Pcg32 rng(15);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(2, 2, rng));
  Sequential copy = seq;
  (*copy.Params()[0])[0] += 1.0f;
  EXPECT_GT(std::fabs((*copy.Params()[0])[0] - (*seq.Params()[0])[0]), 0.5f);
}

TEST(Sequential, BackwardRejectsMismatchedTrace) {
  Pcg32 rng(16);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(2, 2, rng));
  Sequential::Trace empty_trace;
  EXPECT_THROW(seq.Backward(Tensor({1, 2}), empty_trace), std::invalid_argument);
}

}  // namespace
}  // namespace pardon::nn
