#include "nn/mlp.hpp"

#include <stdexcept>

#include "nn/layers.hpp"

namespace pardon::nn {

MlpClassifier::MlpClassifier(const Config& config) : config_(config) {
  if (config.input_dim <= 0 || config.embed_dim <= 0 ||
      config.num_classes <= 0) {
    throw std::invalid_argument("MlpClassifier: non-positive dimensions");
  }
  Pcg32 rng(config.seed, /*stream=*/0x6d6c70ULL);
  if (config.input_instance_norm) {
    features_.Add(std::make_unique<InstanceNorm1d>());
  }
  std::int64_t prev = config.input_dim;
  for (const std::int64_t width : config.hidden) {
    features_.Add(std::make_unique<Linear>(prev, width, rng));
    if (config.batch_norm) {
      features_.Add(std::make_unique<BatchNorm1d>(width));
    }
    features_.Add(std::make_unique<Relu>());
    if (config.dropout > 0.0f) {
      features_.Add(std::make_unique<Dropout>(config.dropout));
    }
    prev = width;
  }
  features_.Add(std::make_unique<Linear>(prev, config.embed_dim, rng));
  head_.Add(std::make_unique<Linear>(config.embed_dim, config.num_classes, rng));
}

Tensor MlpClassifier::Embed(const Tensor& x, Sequential::Trace* trace,
                            bool training, Pcg32* rng) const {
  return features_.Forward(x, trace, training, rng);
}

Tensor MlpClassifier::Logits(const Tensor& z, Sequential::Trace* trace,
                             bool training, Pcg32* rng) const {
  return head_.Forward(z, trace, training, rng);
}

Tensor MlpClassifier::InferLogits(const Tensor& x) const {
  return head_.Infer(features_.Infer(x));
}

Tensor MlpClassifier::InferEmbeddings(const Tensor& x) const {
  return features_.Infer(x);
}

Tensor MlpClassifier::BackwardHead(const Tensor& grad_logits,
                                   const Sequential::Trace& trace) {
  return head_.Backward(grad_logits, trace);
}

Tensor MlpClassifier::BackwardFeatures(const Tensor& grad_embed,
                                       const Sequential::Trace& trace) {
  return features_.Backward(grad_embed, trace);
}

std::vector<Tensor*> MlpClassifier::Params() {
  std::vector<Tensor*> params = features_.Params();
  for (Tensor* p : head_.Params()) params.push_back(p);
  return params;
}

std::vector<Tensor*> MlpClassifier::Grads() {
  std::vector<Tensor*> grads = features_.Grads();
  for (Tensor* g : head_.Grads()) grads.push_back(g);
  return grads;
}

std::vector<Tensor*> MlpClassifier::Buffers() {
  std::vector<Tensor*> buffers = features_.Buffers();
  for (Tensor* b : head_.Buffers()) buffers.push_back(b);
  return buffers;
}

namespace {
// Parameters first, then buffers — a stable order for the flat wire format.
std::vector<tensor::Tensor*> AllState(MlpClassifier& model) {
  std::vector<tensor::Tensor*> state = model.Params();
  for (tensor::Tensor* b : model.Buffers()) state.push_back(b);
  return state;
}
}  // namespace

void MlpClassifier::ZeroGrad() {
  features_.ZeroGrad();
  head_.ZeroGrad();
}

std::int64_t MlpClassifier::NumParams() const {
  std::int64_t total = 0;
  for (Tensor* p : AllState(const_cast<MlpClassifier&>(*this))) {
    total += p->size();
  }
  return total;
}

std::vector<float> MlpClassifier::FlatParams() const {
  std::vector<float> flat;
  for (Tensor* p : AllState(const_cast<MlpClassifier&>(*this))) {
    flat.insert(flat.end(), p->data(), p->data() + p->size());
  }
  return flat;
}

void MlpClassifier::SetFlatParams(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Tensor* p : AllState(*this)) {
    const std::size_t count = static_cast<std::size_t>(p->size());
    if (offset + count > flat.size()) {
      throw std::invalid_argument("SetFlatParams: flat vector too short");
    }
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + count),
              p->data());
    offset += count;
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("SetFlatParams: flat vector too long");
  }
}

}  // namespace pardon::nn
