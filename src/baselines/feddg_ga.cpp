#include "baselines/feddg_ga.hpp"

#include <algorithm>
#include <cmath>

#include "fl/aggregate.hpp"
#include "fl/local_training.hpp"
#include "fl/sim_checkpoint.hpp"
#include "fl/wire.hpp"

namespace pardon::baselines {

void FedDgGa::Setup(const fl::FlContext& context) {
  config_ = context.config;
  weights_.clear();
}

double FedDgGa::ClientWeight(int client_id) const {
  const auto it = weights_.find(client_id);
  return it == weights_.end() ? 1.0 : it->second;
}

fl::ClientUpdate FedDgGa::TrainClient(int /*client_id*/,
                                      const data::Dataset& dataset,
                                      const nn::MlpClassifier& global_model,
                                      int /*round*/, tensor::Pcg32& rng) {
  const fl::LocalTrainOptions options{
      .epochs = config_.local_epochs,
      .batch_size = config_.batch_size,
      .optimizer = config_.optimizer,
      .track_generalization_gap = true,
  };
  return fl::TrainLocal(global_model, dataset, options, rng);
}

std::vector<float> FedDgGa::Aggregate(std::span<const float> /*global_params*/,
                                      std::span<const fl::ClientUpdate> updates,
                                      std::span<const int> client_ids,
                                      int round) {
  // Generalization gaps of this round's participants.
  std::vector<double> gaps(updates.size());
  double max_abs_gap = 0.0;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    gaps[k] = updates[k].loss_before - updates[k].loss_after;
    max_abs_gap = std::max(max_abs_gap, std::fabs(gaps[k]));
  }

  const double step = options_.initial_step *
                      (1.0 - static_cast<double>(round) /
                                 static_cast<double>(std::max(config_.rounds, 1)));

  std::vector<double> round_weights(updates.size());
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const int client = client_ids[k];
    double w = ClientWeight(client);
    if (max_abs_gap > 1e-12) {
      // Larger gap -> the global model generalizes worse to this client;
      // give it more aggregation weight.
      w += step * (gaps[k] / max_abs_gap);
    }
    w = std::max(w, options_.min_weight);
    weights_[client] = w;
    round_weights[k] = w * static_cast<double>(updates[k].num_samples);
  }
  return fl::WeightedAverage(updates, round_weights);
}

std::vector<std::uint8_t> FedDgGa::SaveRoundState() const {
  if (weights_.empty()) return {};
  std::vector<std::uint8_t> out;
  fl::wire::PutU32(out, static_cast<std::uint32_t>(weights_.size()));
  for (const auto& [client, weight] : weights_) {  // std::map: sorted, stable
    fl::wire::PutU32(out, static_cast<std::uint32_t>(client));
    fl::wire::PutF64(out, weight);
  }
  return out;
}

void FedDgGa::LoadRoundState(std::span<const std::uint8_t> state) {
  weights_.clear();
  if (state.empty()) return;
  std::size_t cursor = 0;
  const std::uint32_t count = fl::wire::GetU32(state, cursor);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto client =
        static_cast<std::int32_t>(fl::wire::GetU32(state, cursor));
    const double weight = fl::wire::GetF64(state, cursor);
    if (!weights_.emplace(client, weight).second) {
      throw fl::CheckpointError(
          "sim checkpoint: FedDG-GA state: duplicate client id");
    }
  }
  if (cursor != state.size()) {
    throw fl::CheckpointError("sim checkpoint: FedDG-GA state: trailing bytes");
  }
}

}  // namespace pardon::baselines
