#include "fl/aggregate.hpp"

#include <stdexcept>

namespace pardon::fl {

std::vector<float> FedAvg(std::span<const ClientUpdate> updates) {
  std::vector<double> weights;
  weights.reserve(updates.size());
  for (const ClientUpdate& u : updates) {
    weights.push_back(static_cast<double>(u.num_samples));
  }
  return WeightedAverage(updates, weights);
}

std::vector<float> WeightedAverage(std::span<const ClientUpdate> updates,
                                   std::span<const double> weights) {
  if (updates.empty()) {
    throw std::invalid_argument("WeightedAverage: no updates");
  }
  if (updates.size() != weights.size()) {
    throw std::invalid_argument("WeightedAverage: weight count mismatch");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("WeightedAverage: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("WeightedAverage: zero total weight");
  }
  // The batched path IS the streaming path fed in index order: one shared
  // fold keeps the two bitwise interchangeable.
  StreamingWeightedSum stream(updates.front().params.size(), total);
  for (std::size_t k = 0; k < updates.size(); ++k) {
    if (updates[k].params.size() != stream.dim()) {
      throw std::invalid_argument("WeightedAverage: parameter dim mismatch");
    }
    stream.Add(updates[k].params, weights[k]);
  }
  return stream.Finish();
}

StreamingWeightedSum::StreamingWeightedSum(std::size_t dim,
                                           double total_weight)
    : acc_(dim, 0.0), total_weight_(total_weight) {
  if (!(total_weight > 0.0)) {
    throw std::invalid_argument("StreamingWeightedSum: zero total weight");
  }
}

void StreamingWeightedSum::Add(std::span<const float> params, double weight) {
  if (weight < 0.0) {
    throw std::invalid_argument("StreamingWeightedSum: negative weight");
  }
  if (params.size() != acc_.size()) {
    throw std::invalid_argument("StreamingWeightedSum: parameter dim mismatch");
  }
  const double w = weight / total_weight_;
  for (std::size_t j = 0; j < acc_.size(); ++j) acc_[j] += w * params[j];
  ++folded_;
}

std::vector<float> StreamingWeightedSum::Finish() const {
  if (folded_ == 0) {
    throw std::logic_error("StreamingWeightedSum: nothing folded");
  }
  std::vector<float> out(acc_.size());
  for (std::size_t j = 0; j < acc_.size(); ++j) {
    out[j] = static_cast<float>(acc_[j]);
  }
  return out;
}

}  // namespace pardon::fl
