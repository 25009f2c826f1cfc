#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace pardon::nn {

Optimizer::Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads)
    : params_(std::move(params)), grads_(std::move(grads)) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Optimizer: params/grads size mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i]->shape() != grads_[i]->shape()) {
      throw std::invalid_argument("Optimizer: param/grad shape mismatch");
    }
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor* g : grads_) g->Fill(0.0f);
}

Sgd::Sgd(std::vector<Tensor*> params, std::vector<Tensor*> grads,
         Options options)
    : Optimizer(std::move(params), std::move(grads)), options_(options) {
  if (options_.momentum != 0.0f) {
    velocity_.reserve(params_.size());
    for (Tensor* p : params_) velocity_.emplace_back(p->shape());
  }
}

// Options are copied into locals and the buffers walked through __restrict
// pointers so GCC vectorises the loops; each element's expression is the
// scalar one, so results are bitwise unchanged (docs/PERFORMANCE.md).
void Sgd::Step() {
  const float lr = options_.lr;
  const float momentum = options_.momentum;
  const float weight_decay = options_.weight_decay;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    float* __restrict p = params_[i]->data();
    const float* __restrict g = grads_[i]->data();
    const std::int64_t n = params_[i]->size();
    if (momentum == 0.0f) {
      for (std::int64_t j = 0; j < n; ++j) {
        p[j] -= lr * (g[j] + weight_decay * p[j]);
      }
      continue;
    }
    float* __restrict vel = velocity_[i].data();
    for (std::int64_t j = 0; j < n; ++j) {
      vel[j] = momentum * vel[j] + (g[j] + weight_decay * p[j]);
      p[j] -= lr * vel[j];
    }
  }
}

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
           Options options)
    : Optimizer(std::move(params), std::move(grads)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

// Built with -fno-math-errno (src/nn/CMakeLists.txt): without it std::sqrt
// keeps an errno branch that stops the loop vectorising. sqrt and / are
// correctly rounded either way, so only errno differs.
void Adam::Step() {
  ++t_;
  const float lr = options_.lr;
  const float beta1 = options_.beta1;
  const float beta2 = options_.beta2;
  const float epsilon = options_.epsilon;
  const float weight_decay = options_.weight_decay;
  const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    float* __restrict p = params_[i]->data();
    const float* __restrict g = grads_[i]->data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    const std::int64_t n = params_[i]->size();
    for (std::int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + weight_decay * p[j];
      m[j] = beta1 * m[j] + (1.0f - beta1) * grad;
      v[j] = beta2 * v[j] + (1.0f - beta2) * grad * grad;
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      p[j] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
    }
  }
}

std::unique_ptr<Optimizer> MakeOptimizer(std::vector<Tensor*> params,
                                         std::vector<Tensor*> grads,
                                         const OptimizerOptions& options) {
  if (options.kind == OptimizerOptions::Kind::kSgdMomentum) {
    return std::make_unique<Sgd>(
        std::move(params), std::move(grads),
        Sgd::Options{.lr = options.lr,
                     .momentum = options.momentum,
                     .weight_decay = options.weight_decay});
  }
  return std::make_unique<Adam>(
      std::move(params), std::move(grads),
      Adam::Options{.lr = options.lr, .weight_decay = options.weight_decay});
}

}  // namespace pardon::nn
