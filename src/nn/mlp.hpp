// The model shared by all FL participants (Section 2.2 of the paper):
// a feature extractor f: X -> Z and a unified linear classifier g: Z -> R^|I|.
//
// The paper uses ResNet-50 on images; this reproduction uses an MLP on
// synthetic feature-map inputs (see DESIGN.md substitutions). The split into
// f and g is load-bearing: FISC's contrastive losses act on f's output
// embeddings while cross-entropy acts on g's logits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace pardon::nn {

class MlpClassifier {
 public:
  struct Config {
    std::int64_t input_dim = 0;
    std::vector<std::int64_t> hidden = {64};
    std::int64_t embed_dim = 32;
    std::int64_t num_classes = 2;
    float dropout = 0.0f;
    // Insert BatchNorm1d after every hidden Linear (the ResNet-50 analogue;
    // running stats are FedAvg-averaged with the parameters).
    bool batch_norm = true;
    // Prepends an InstanceNorm1d layer to the extractor — removes per-sample
    // first/second-moment statistics (used by ablations, off by default so
    // style information reaches the network as the paper assumes).
    bool input_instance_norm = false;
    std::uint64_t seed = 1;
  };

  explicit MlpClassifier(const Config& config);

  const Config& config() const { return config_; }

  // -- forward/backward -------------------------------------------------------
  // Embedding z = f(x) for a batch x [B, input_dim] -> [B, embed_dim].
  Tensor Embed(const Tensor& x, Sequential::Trace* trace, bool training,
               Pcg32* rng) const;
  // Logits y = g(z) -> [B, num_classes].
  Tensor Logits(const Tensor& z, Sequential::Trace* trace, bool training,
                Pcg32* rng) const;
  // Convenience full pass without gradient bookkeeping (eval mode).
  Tensor InferLogits(const Tensor& x) const;
  Tensor InferEmbeddings(const Tensor& x) const;

  // Backprop helpers; gradients accumulate into this model's buffers.
  // Returns dL/dz for the classifier, dL/dx for the extractor.
  Tensor BackwardHead(const Tensor& grad_logits, const Sequential::Trace& trace);
  Tensor BackwardFeatures(const Tensor& grad_embed,
                          const Sequential::Trace& trace);

  // -- parameter plumbing for FL ------------------------------------------------
  std::vector<Tensor*> Params();
  std::vector<Tensor*> Grads();
  // Non-trainable state included in FlatParams (BatchNorm running stats).
  std::vector<Tensor*> Buffers();
  void ZeroGrad();
  std::int64_t NumParams() const;

  // Serializes all parameters AND buffers into one flat vector (stable
  // layer order); the FL server aggregates these.
  std::vector<float> FlatParams() const;
  void SetFlatParams(std::span<const float> flat);

  // Deep copy sharing no state.
  MlpClassifier Clone() const { return *this; }

  Sequential& features() { return features_; }
  Sequential& head() { return head_; }

 private:
  Config config_;
  Sequential features_;
  Sequential head_;
};

}  // namespace pardon::nn
