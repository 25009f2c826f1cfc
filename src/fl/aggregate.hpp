// Server-side parameter aggregation primitives.
#pragma once

#include <span>
#include <vector>

#include "fl/types.hpp"

namespace pardon::fl {

// Sample-count-weighted FedAvg over client parameter vectors (the paper's
// aggregation step: G = (1/N) sum_i n_i G_i with N = sum n_i). All updates
// must share the global parameter dimension.
std::vector<float> FedAvg(std::span<const ClientUpdate> updates);

// Weighted average with explicit weights (FedDG-GA's adjusted weights);
// weights are normalized internally and must be non-negative with a positive
// sum.
std::vector<float> WeightedAverage(std::span<const ClientUpdate> updates,
                                   std::span<const double> weights);

// Constant-memory streaming counterpart of WeightedAverage: updates are
// folded one at a time and discarded, so the server never holds more than the
// accumulator. The total weight is announced up front — in the simulator it
// is computable before any update exists, because fault survival depends only
// on (seed, round, client) and FedAvg weights equal client dataset sizes —
// which lets Add perform the SAME normalize-first arithmetic
// (acc[j] += (w/total) * p[j]) in the SAME order as the batched path.
// Folding the survivors in delivery order therefore produces a result bitwise
// identical to WeightedAverage over the materialized updates.
class StreamingWeightedSum {
 public:
  // Throws std::invalid_argument when total_weight is not positive (the same
  // contract as WeightedAverage's zero-total check).
  StreamingWeightedSum(std::size_t dim, double total_weight);

  // Folds one parameter vector with the given non-negative weight. O(dim);
  // the caller may free the update immediately after.
  void Add(std::span<const float> params, double weight);

  std::size_t folded() const { return folded_; }
  std::size_t dim() const { return acc_.size(); }

  // The weighted average of everything folded so far. Throws std::logic_error
  // when nothing has been folded.
  std::vector<float> Finish() const;

 private:
  std::vector<double> acc_;
  double total_weight_ = 0.0;
  std::size_t folded_ = 0;
};

}  // namespace pardon::fl
