#include "baselines/fedgma.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "fl/local_training.hpp"

namespace pardon::baselines {

fl::ClientUpdate FedGma::TrainClient(int /*client_id*/,
                                     const data::Dataset& dataset,
                                     const nn::MlpClassifier& global_model,
                                     int /*round*/, tensor::Pcg32& rng) {
  const fl::LocalTrainOptions options{
      .epochs = config_.local_epochs,
      .batch_size = config_.batch_size,
      .optimizer = config_.optimizer,
  };
  return fl::TrainLocal(global_model, dataset, options, rng);
}

std::vector<float> FedGma::Aggregate(std::span<const float> global_params,
                                     std::span<const fl::ClientUpdate> updates,
                                     std::span<const int> /*client_ids*/,
                                     int /*round*/) {
  if (updates.empty()) {
    throw std::invalid_argument("FedGma::Aggregate: no updates");
  }
  const std::size_t dim = global_params.size();
  double total_weight = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    if (u.params.size() != dim) {
      throw std::invalid_argument("FedGma::Aggregate: update dim mismatch");
    }
    total_weight += static_cast<double>(u.num_samples);
  }
  if (total_weight <= 0.0) total_weight = 1.0;

  // One pass per update over contiguous memory. Each coordinate's delta
  // (local - global) bumps its sign count and is added into a double
  // accumulator in update order, the same additions a coordinate-outer walk
  // would make, so the result is bitwise unchanged.
  std::vector<std::int32_t> counts(2 * dim, 0);
  std::vector<double> sum(dim, 0.0);
  std::int32_t* __restrict positive = counts.data();
  std::int32_t* __restrict negative = counts.data() + dim;
  double* __restrict avg_delta = sum.data();
  const float* __restrict global = global_params.data();
  for (const fl::ClientUpdate& u : updates) {
    const float* __restrict local = u.params.data();
    const double weight = static_cast<double>(u.num_samples) / total_weight;
    for (std::size_t j = 0; j < dim; ++j) {
      const float delta = local[j] - global[j];
      positive[j] += delta > 0.0f;
      negative[j] += delta < 0.0f;
      avg_delta[j] += weight * delta;
    }
  }

  // Agreement = max(share of positive deltas, share of negative deltas);
  // coordinates below tau are soft-masked by it.
  const float num_updates = static_cast<float>(updates.size());
  std::vector<float> out(global_params.begin(), global_params.end());
  for (std::size_t j = 0; j < dim; ++j) {
    const float agreement =
        static_cast<float>(std::max(positive[j], negative[j])) / num_updates;
    const float mask = agreement >= options_.tau ? 1.0f : agreement;
    out[j] += options_.server_lr * mask * static_cast<float>(avg_delta[j]);
  }
  return out;
}

}  // namespace pardon::baselines
