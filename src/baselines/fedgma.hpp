// FedGMA (Tenison et al., TMLR 2023): gradient-masked averaging. Local
// training is plain ERM; at aggregation, each parameter coordinate's update
// is kept at full strength only if the share of clients agreeing on its sign
// meets the threshold tau (0.4 in the paper); disagreeing coordinates are
// soft-masked by their agreement score.
#pragma once

#include "fl/algorithm.hpp"

namespace pardon::baselines {

class FedGma : public fl::Algorithm {
 public:
  struct Options {
    float tau = 0.4f;  // paper's suggested agreement threshold
    float server_lr = 1.0f;
  };

  FedGma() : FedGma(Options{}) {}
  explicit FedGma(Options options) : options_(options) {}

  std::string Name() const override { return "FedGMA"; }
  void Setup(const fl::FlContext& context) override { config_ = context.config; }

  fl::ClientUpdate TrainClient(int client_id, const data::Dataset& dataset,
                               const nn::MlpClassifier& global_model,
                               int round, tensor::Pcg32& rng) override;

  std::vector<float> Aggregate(std::span<const float> global_params,
                               std::span<const fl::ClientUpdate> updates,
                               std::span<const int> client_ids,
                               int round) override;

  // The mask needs every update's sign before any coordinate is final, so
  // Aggregate runs over the materialised batch.
  bool SupportsStreamingAggregation() const override { return false; }

 private:
  Options options_;
  fl::FlConfig config_;
};

}  // namespace pardon::baselines
