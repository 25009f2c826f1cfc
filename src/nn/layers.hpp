// Concrete layers: Linear, ReLU, Tanh, LeakyReLU, Sigmoid, GELU, Softplus,
// Dropout, BatchNorm1d (FL-aware running statistics), InstanceNorm1d.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace pardon::nn {

// Fully-connected layer: y = x W + b with W [in, out], b [out].
// Initialization is Kaiming-uniform scaled for the fan-in.
class Linear : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Pcg32& rng);
  // Constructs from existing parameters (used by Clone and checkpoints).
  Linear(Tensor weight, Tensor bias);

  std::string Name() const override { return "Linear"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Grads() override { return {&grad_weight_, &grad_bias_}; }
  std::unique_ptr<Layer> Clone() const override;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  std::int64_t in_features() const { return weight_.dim(0); }
  std::int64_t out_features() const { return weight_.dim(1); }

 private:
  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;
};

class Relu : public Layer {
 public:
  std::string Name() const override { return "Relu"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Relu>();
  }
};

class Tanh : public Layer {
 public:
  std::string Name() const override { return "Tanh"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Tanh>();
  }
};

class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(float negative_slope = 0.01f) : slope_(negative_slope) {}
  std::string Name() const override { return "LeakyRelu"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<LeakyRelu>(slope_);
  }

 private:
  float slope_;
};

class Sigmoid : public Layer {
 public:
  std::string Name() const override { return "Sigmoid"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Sigmoid>();
  }
};

// Gaussian Error Linear Unit (tanh approximation, as used by most
// transformer implementations).
class Gelu : public Layer {
 public:
  std::string Name() const override { return "Gelu"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Gelu>();
  }
};

// Softplus: smooth ReLU, log(1 + e^x).
class Softplus : public Layer {
 public:
  std::string Name() const override { return "Softplus"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Softplus>();
  }
};

// Inverted dropout: at train time zeroes each activation with probability p
// and scales survivors by 1/(1-p); identity at eval time.
class Dropout : public Layer {
 public:
  explicit Dropout(float p);
  std::string Name() const override { return "Dropout"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Dropout>(p_);
  }

 private:
  float p_;
};

// 1-D batch normalization over [N, D] activations with affine parameters and
// running statistics. Training mode normalizes by batch statistics and
// updates the running estimates; eval mode uses the running estimates. The
// running stats are Buffers(): they ride along in FL aggregation, which is
// how per-client input-distribution divergence (e.g. from style
// augmentation) surfaces as aggregated-model degradation — the phenomenon
// FISC's shared interpolation style is designed to avoid.
class BatchNorm1d : public Layer {
 public:
  explicit BatchNorm1d(std::int64_t features, float momentum = 0.1f,
                       float epsilon = 1e-5f);

  std::string Name() const override { return "BatchNorm1d"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::vector<Tensor*> Params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> Grads() override { return {&grad_gamma_, &grad_beta_}; }
  std::vector<Tensor*> Buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::unique_ptr<Layer> Clone() const override;

 private:
  float momentum_;
  float epsilon_;
  Tensor gamma_;
  Tensor beta_;
  Tensor grad_gamma_;
  Tensor grad_beta_;
  // Updated during training forward passes; declared mutable because Forward
  // is const for every other layer. Each model clone owns its buffers, so
  // there is no cross-thread mutation.
  mutable Tensor running_mean_;
  mutable Tensor running_var_;
};

// Per-row (instance) normalization without affine parameters:
// y = (x - mean_row) / std_row. Removes first- and second-order channel
// statistics from a flattened sample — the style signal AdaIN manipulates —
// so it is the natural normalization for DG feature extractors.
class InstanceNorm1d : public Layer {
 public:
  explicit InstanceNorm1d(float epsilon = 1e-5f) : epsilon_(epsilon) {}
  std::string Name() const override { return "InstanceNorm1d"; }
  Tensor Forward(const Tensor& x, std::unique_ptr<Context>& ctx, bool training,
                 Pcg32* rng) const override;
  Tensor Backward(const Tensor& grad_out, const Context& ctx) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<InstanceNorm1d>(epsilon_);
  }

 private:
  float epsilon_;
};

}  // namespace pardon::nn
