#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace pardon::nn {

namespace {
struct TensorContext : Layer::Context {
  explicit TensorContext(Tensor t) : value(std::move(t)) {}
  Tensor value;
};

struct NormContext : Layer::Context {
  Tensor normalized;  // y rows
  Tensor inv_std;     // [N]
};

const TensorContext& AsTensorContext(const Layer::Context& ctx) {
  return static_cast<const TensorContext&>(ctx);
}
}  // namespace

// ---------------------------------------------------------------- Linear ----

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Pcg32& rng)
    : weight_({in_features, out_features}),
      bias_({out_features}),
      grad_weight_({in_features, out_features}),
      grad_bias_({out_features}) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features));
  for (std::int64_t i = 0; i < weight_.size(); ++i) {
    weight_[i] = rng.NextUniform(-bound, bound);
  }
}

Linear::Linear(Tensor weight, Tensor bias)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()) {
  if (weight_.rank() != 2 || bias_.rank() != 1 ||
      bias_.dim(0) != weight_.dim(1)) {
    throw std::invalid_argument("Linear: inconsistent weight/bias shapes");
  }
}

Tensor Linear::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                       bool /*training*/, Pcg32* /*rng*/) const {
  ctx = std::make_unique<TensorContext>(x);
  Tensor out = tensor::MatMul(x, weight_);
  tensor::AddRowVectorInPlace(out, bias_);  // skips AddRowVector's full copy
  return out;
}

Tensor Linear::Backward(const Tensor& grad_out, const Context& ctx) {
  const Tensor& x = AsTensorContext(ctx).value;
  grad_weight_ += tensor::MatMulTransA(x, grad_out);
  grad_bias_ += tensor::ColSum(grad_out);
  return tensor::MatMulTransB(grad_out, weight_);
}

std::unique_ptr<Layer> Linear::Clone() const {
  return std::make_unique<Linear>(weight_, bias_);
}

// ------------------------------------------------------------------ Relu ----

// Branch-free selects vectorise. Not std::max: it would turn -0.0f into +0.0f
// and NaN into 0, where the select keeps both.
Tensor Relu::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                     bool /*training*/, Pcg32* /*rng*/) const {
  Tensor y(x.shape());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  for (std::int64_t i = 0; i < y.size(); ++i) {
    out[i] = in[i] < 0.0f ? 0.0f : in[i];
  }
  ctx = std::make_unique<TensorContext>(y);
  return y;
}

Tensor Relu::Backward(const Tensor& grad_out, const Context& ctx) {
  const Tensor& y = AsTensorContext(ctx).value;
  Tensor grad(grad_out.shape());
  const float* __restrict fwd = y.data();
  const float* __restrict g = grad_out.data();
  float* __restrict out = grad.data();
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    const float gi = g[i];  // loaded unconditionally so the select vectorises
    out[i] = fwd[i] <= 0.0f ? 0.0f : gi;
  }
  return grad;
}

// ------------------------------------------------------------------ Tanh ----

Tensor Tanh::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                     bool /*training*/, Pcg32* /*rng*/) const {
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) y[i] = std::tanh(y[i]);
  ctx = std::make_unique<TensorContext>(y);
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_out, const Context& ctx) {
  const Tensor& y = AsTensorContext(ctx).value;
  Tensor grad = grad_out;
  for (std::int64_t i = 0; i < grad.size(); ++i) grad[i] *= 1.0f - y[i] * y[i];
  return grad;
}

// --------------------------------------------------------------- Sigmoid ----

Tensor Sigmoid::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                        bool /*training*/, Pcg32* /*rng*/) const {
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    y[i] = 1.0f / (1.0f + std::exp(-y[i]));
  }
  ctx = std::make_unique<TensorContext>(y);
  return y;
}

Tensor Sigmoid::Backward(const Tensor& grad_out, const Context& ctx) {
  const Tensor& y = AsTensorContext(ctx).value;
  Tensor grad = grad_out;
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    grad[i] *= y[i] * (1.0f - y[i]);
  }
  return grad;
}

// ------------------------------------------------------------------ Gelu ----

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

Tensor Gelu::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                     bool /*training*/, Pcg32* /*rng*/) const {
  ctx = std::make_unique<TensorContext>(x);
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    const float v = y[i];
    y[i] = 0.5f * v * (1.0f + std::tanh(kGeluC * (v + 0.044715f * v * v * v)));
  }
  return y;
}

Tensor Gelu::Backward(const Tensor& grad_out, const Context& ctx) {
  const Tensor& x = AsTensorContext(ctx).value;
  Tensor grad = grad_out;
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    const float v = x[i];
    const float u = kGeluC * (v + 0.044715f * v * v * v);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    grad[i] *= 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
  }
  return grad;
}

// -------------------------------------------------------------- Softplus ----

Tensor Softplus::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                         bool /*training*/, Pcg32* /*rng*/) const {
  ctx = std::make_unique<TensorContext>(x);
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    // Numerically stable: log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}).
    y[i] = std::max(y[i], 0.0f) + std::log1p(std::exp(-std::fabs(y[i])));
  }
  return y;
}

Tensor Softplus::Backward(const Tensor& grad_out, const Context& ctx) {
  const Tensor& x = AsTensorContext(ctx).value;
  Tensor grad = grad_out;
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    grad[i] *= 1.0f / (1.0f + std::exp(-x[i]));
  }
  return grad;
}

// ------------------------------------------------------------- LeakyRelu ----

Tensor LeakyRelu::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                          bool /*training*/, Pcg32* /*rng*/) const {
  ctx = std::make_unique<TensorContext>(x);
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0f) y[i] *= slope_;
  }
  return y;
}

Tensor LeakyRelu::Backward(const Tensor& grad_out, const Context& ctx) {
  const Tensor& x = AsTensorContext(ctx).value;
  Tensor grad = grad_out;
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    if (x[i] < 0.0f) grad[i] *= slope_;
  }
  return grad;
}

// --------------------------------------------------------------- Dropout ----

Dropout::Dropout(float p) : p_(p) {
  if (p < 0.0f || p >= 1.0f) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                        bool training, Pcg32* rng) const {
  if (!training || p_ == 0.0f) {
    ctx.reset();
    return x;
  }
  if (rng == nullptr) {
    throw std::invalid_argument("Dropout: training forward requires an rng");
  }
  Tensor mask(x.shape());
  const float keep_scale = 1.0f / (1.0f - p_);
  for (std::int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng->NextFloat() < p_ ? 0.0f : keep_scale;
  }
  Tensor y = tensor::Mul(x, mask);
  ctx = std::make_unique<TensorContext>(std::move(mask));
  return y;
}

Tensor Dropout::Backward(const Tensor& grad_out, const Context& ctx) {
  return tensor::Mul(grad_out, AsTensorContext(ctx).value);
}

// ------------------------------------------------------------ BatchNorm1d ----

namespace {
struct BatchNormContext : Layer::Context {
  Tensor normalized;  // xhat [N, D]
  Tensor inv_std;     // [D]
};
}  // namespace

BatchNorm1d::BatchNorm1d(std::int64_t features, float momentum, float epsilon)
    : momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Tensor::Ones({features})),
      beta_({features}),
      grad_gamma_({features}),
      grad_beta_({features}),
      running_mean_({features}),
      running_var_(Tensor::Ones({features})) {}

Tensor BatchNorm1d::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                            bool training, Pcg32* /*rng*/) const {
  if (x.rank() != 2 || x.dim(1) != gamma_.size()) {
    throw std::invalid_argument("BatchNorm1d: bad input shape " +
                                x.ShapeString());
  }
  const std::int64_t n = x.dim(0), d = x.dim(1);
  // Rows outer, columns inner, one double accumulator per column: each
  // column still sums rows 0..n-1 in order, so the statistics are bitwise
  // those of a column-by-column walk, and the inner loops vectorise.
  const float* __restrict xs = x.data();
  Tensor mean({d}), var({d});
  if (training && n > 1) {
    std::vector<double> acc_buffer(static_cast<std::size_t>(d), 0.0);
    double* __restrict acc = acc_buffer.data();
    float* __restrict mu = mean.data();
    for (std::int64_t r = 0; r < n; ++r) {
      const float* __restrict row = xs + r * d;
      for (std::int64_t c = 0; c < d; ++c) acc[c] += row[c];
    }
    for (std::int64_t c = 0; c < d; ++c) {
      mu[c] = static_cast<float>(acc[c] / static_cast<double>(n));
      acc[c] = 0.0;
    }
    for (std::int64_t r = 0; r < n; ++r) {
      const float* __restrict row = xs + r * d;
      for (std::int64_t c = 0; c < d; ++c) {
        const double diff = double(row[c]) - mu[c];
        acc[c] += diff * diff;
      }
    }
    for (std::int64_t c = 0; c < d; ++c) {
      var[c] = static_cast<float>(acc[c] / static_cast<double>(n));
    }
    for (std::int64_t c = 0; c < d; ++c) {
      running_mean_[c] =
          (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[c];
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * var[c];
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  auto bn_ctx = std::make_unique<BatchNormContext>();
  bn_ctx->normalized = Tensor({n, d});
  bn_ctx->inv_std = Tensor({d});
  for (std::int64_t c = 0; c < d; ++c) {
    bn_ctx->inv_std[c] = 1.0f / std::sqrt(var[c] + epsilon_);
  }
  Tensor out({n, d});
  const float* __restrict mu = mean.data();
  const float* __restrict inv_std = bn_ctx->inv_std.data();
  const float* __restrict gamma = gamma_.data();
  const float* __restrict beta = beta_.data();
  for (std::int64_t r = 0; r < n; ++r) {
    const float* __restrict row = xs + r * d;
    float* __restrict xhat = bn_ctx->normalized.data() + r * d;
    float* __restrict y = out.data() + r * d;
    // Two loops, not one: fused, the pointer pairs exceed what GCC will
    // check for overlap at run time, and it does not vectorise.
    for (std::int64_t c = 0; c < d; ++c) {
      xhat[c] = (row[c] - mu[c]) * inv_std[c];
    }
    for (std::int64_t c = 0; c < d; ++c) y[c] = gamma[c] * xhat[c] + beta[c];
  }
  // Eval-mode backward (through running stats) would be a per-feature scale;
  // the context supports both, so always record it.
  ctx = std::move(bn_ctx);
  return out;
}

Tensor BatchNorm1d::Backward(const Tensor& grad_out, const Context& ctx) {
  const auto& bn_ctx = static_cast<const BatchNormContext&>(ctx);
  const Tensor& xhat = bn_ctx.normalized;
  const std::int64_t n = xhat.dim(0), d = xhat.dim(1);
  Tensor grad({n, d});
  const float inv_n = 1.0f / static_cast<float>(n);
  // Same row-outer walk as Forward: per-column sums keep their row order.
  const float* __restrict go = grad_out.data();
  const float* __restrict xh = xhat.data();
  std::vector<double> sums(2 * static_cast<std::size_t>(d), 0.0);
  double* __restrict g_sum = sums.data();
  double* __restrict gx_sum = sums.data() + d;
  for (std::int64_t r = 0; r < n; ++r) {
    const float* __restrict go_row = go + r * d;
    const float* __restrict xh_row = xh + r * d;
    for (std::int64_t c = 0; c < d; ++c) {
      g_sum[c] += go_row[c];
      gx_sum[c] += double(go_row[c]) * xh_row[c];
    }
  }
  std::vector<float> per_column(3 * static_cast<std::size_t>(d));
  float* __restrict scale = per_column.data();
  float* __restrict g_mean = scale + d;
  float* __restrict gx_mean = g_mean + d;
  for (std::int64_t c = 0; c < d; ++c) {
    grad_gamma_[c] += static_cast<float>(gx_sum[c]);
    grad_beta_[c] += static_cast<float>(g_sum[c]);
    scale[c] = gamma_[c] * bn_ctx.inv_std[c];
    g_mean[c] = static_cast<float>(g_sum[c]) * inv_n;
    gx_mean[c] = static_cast<float>(gx_sum[c]) * inv_n;
  }
  for (std::int64_t r = 0; r < n; ++r) {
    const float* __restrict go_row = go + r * d;
    const float* __restrict xh_row = xh + r * d;
    float* __restrict out = grad.data() + r * d;
    for (std::int64_t c = 0; c < d; ++c) {
      out[c] = scale[c] * (go_row[c] - g_mean[c] - xh_row[c] * gx_mean[c]);
    }
  }
  return grad;
}

std::unique_ptr<Layer> BatchNorm1d::Clone() const {
  auto clone = std::make_unique<BatchNorm1d>(gamma_.size(), momentum_, epsilon_);
  clone->gamma_ = gamma_;
  clone->beta_ = beta_;
  clone->running_mean_ = running_mean_;
  clone->running_var_ = running_var_;
  return clone;
}

// -------------------------------------------------------- InstanceNorm1d ----

Tensor InstanceNorm1d::Forward(const Tensor& x, std::unique_ptr<Context>& ctx,
                               bool /*training*/, Pcg32* /*rng*/) const {
  if (x.rank() != 2) {
    throw std::invalid_argument("InstanceNorm1d: expected [N,D] input");
  }
  const std::int64_t n = x.dim(0), d = x.dim(1);
  auto norm_ctx = std::make_unique<NormContext>();
  norm_ctx->normalized = Tensor({n, d});
  norm_ctx->inv_std = Tensor({n});
  for (std::int64_t r = 0; r < n; ++r) {
    const float* row = x.data() + r * d;
    double mean = 0.0;
    for (std::int64_t c = 0; c < d; ++c) mean += row[c];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::int64_t c = 0; c < d; ++c) {
      const double diff = row[c] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + epsilon_));
    norm_ctx->inv_std[r] = inv_std;
    float* out_row = norm_ctx->normalized.data() + r * d;
    for (std::int64_t c = 0; c < d; ++c) {
      out_row[c] = static_cast<float>((row[c] - mean)) * inv_std;
    }
  }
  Tensor y = norm_ctx->normalized;
  ctx = std::move(norm_ctx);
  return y;
}

Tensor InstanceNorm1d::Backward(const Tensor& grad_out, const Context& ctx) {
  const auto& norm_ctx = static_cast<const NormContext&>(ctx);
  const Tensor& y = norm_ctx.normalized;
  const std::int64_t n = y.dim(0), d = y.dim(1);
  Tensor grad({n, d});
  for (std::int64_t r = 0; r < n; ++r) {
    const float* g = grad_out.data() + r * d;
    const float* yr = y.data() + r * d;
    double g_sum = 0.0, gy_sum = 0.0;
    for (std::int64_t c = 0; c < d; ++c) {
      g_sum += g[c];
      gy_sum += double(g[c]) * yr[c];
    }
    const float g_mean = static_cast<float>(g_sum / static_cast<double>(d));
    const float gy_mean = static_cast<float>(gy_sum / static_cast<double>(d));
    const float inv_std = norm_ctx.inv_std[r];
    float* out = grad.data() + r * d;
    for (std::int64_t c = 0; c < d; ++c) {
      out[c] = inv_std * (g[c] - g_mean - yr[c] * gy_mean);
    }
  }
  return grad;
}

}  // namespace pardon::nn
