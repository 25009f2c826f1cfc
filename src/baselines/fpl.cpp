#include "baselines/fpl.hpp"

#include <algorithm>
#include <map>

#include "clustering/finch.hpp"
#include "fl/aggregate.hpp"
#include "fl/local_training.hpp"
#include "fl/sim_checkpoint.hpp"
#include "fl/wire.hpp"
#include "nn/losses.hpp"
#include "tensor/ops.hpp"

namespace pardon::baselines {

void Fpl::Setup(const fl::FlContext& context) {
  config_ = context.config;
  prototypes_ = tensor::Tensor();
  prototype_classes_.clear();
}

fl::ClientUpdate Fpl::TrainClient(int /*client_id*/,
                                  const data::Dataset& dataset,
                                  const nn::MlpClassifier& global_model,
                                  int /*round*/, tensor::Pcg32& rng) {
  // Prototype-contrastive hook against the CURRENT global cluster
  // prototypes (empty in round 1 -> contributes nothing).
  const tensor::Tensor protos = prototypes_;  // copy: stable during training
  const std::vector<int> proto_classes = prototype_classes_;
  const float weight = options_.contrast_weight;
  const float margin = options_.margin;
  const fl::EmbedLossHook hook =
      [&protos, &proto_classes, weight, margin](
          const tensor::Tensor& embeddings, std::span<const int> labels,
          tensor::Tensor& grad_embed) -> float {
    if (protos.size() == 0) return 0.0f;
    const nn::PrototypeContrastResult result = nn::PrototypeContrastiveLoss(
        embeddings, labels, protos, proto_classes, margin);
    grad_embed += tensor::Scale(result.grad_embeddings, weight);
    return weight * result.loss;
  };

  const fl::LocalTrainOptions options{
      .epochs = config_.local_epochs,
      .batch_size = config_.batch_size,
      .optimizer = config_.optimizer,
  };
  fl::ClientUpdate update =
      fl::TrainLocal(global_model, dataset, options, rng, &hook);

  // Compute per-class mean embeddings with the trained local model.
  if (!dataset.empty()) {
    nn::MlpClassifier local = global_model.Clone();
    local.SetFlatParams(update.params);
    const tensor::Tensor embeddings = local.InferEmbeddings(dataset.images());
    const std::int64_t d = embeddings.dim(1);
    std::map<int, std::pair<tensor::Tensor, int>> per_class;
    for (std::int64_t i = 0; i < dataset.size(); ++i) {
      const int y = dataset.Label(i);
      auto [it, inserted] =
          per_class.try_emplace(y, tensor::Tensor({d}), 0);
      it->second.first += embeddings.Row(i);
      ++it->second.second;
    }
    std::vector<tensor::Tensor> rows;
    for (auto& [y, acc] : per_class) {
      acc.first *= 1.0f / static_cast<float>(acc.second);
      rows.push_back(acc.first);
      update.prototype_class.push_back(y);
    }
    update.prototypes = tensor::Tensor::Stack(rows);
  }
  return update;
}

std::vector<float> Fpl::Aggregate(std::span<const float> /*global_params*/,
                                  std::span<const fl::ClientUpdate> updates,
                                  std::span<const int> /*client_ids*/,
                                  int /*round*/) {
  // Group uploaded prototypes by class, FINCH-cluster each group, and keep
  // cluster centers as the new unbiased global prototypes.
  std::map<int, std::vector<tensor::Tensor>> by_class;
  for (const fl::ClientUpdate& u : updates) {
    for (std::size_t p = 0; p < u.prototype_class.size(); ++p) {
      by_class[u.prototype_class[p]].push_back(
          u.prototypes.Row(static_cast<std::int64_t>(p)));
    }
  }
  std::vector<tensor::Tensor> proto_rows;
  std::vector<int> proto_classes;
  for (const auto& [y, rows] : by_class) {
    if (rows.size() == 1) {
      proto_rows.push_back(rows.front());
      proto_classes.push_back(y);
      continue;
    }
    const tensor::Tensor stacked = tensor::Tensor::Stack(rows);
    const clustering::FinchResult finch =
        clustering::Finch(stacked, clustering::Metric::kCosine);
    const clustering::Partition& coarsest = finch.CoarsestNonTrivial();
    for (int c = 0; c < coarsest.num_clusters; ++c) {
      proto_rows.push_back(coarsest.centers.Row(c));
      proto_classes.push_back(y);
    }
  }
  if (!proto_rows.empty()) {
    prototypes_ = tensor::Tensor::Stack(proto_rows);
    prototype_classes_ = std::move(proto_classes);
  }
  return fl::FedAvg(updates);
}

std::vector<std::uint8_t> Fpl::SaveRoundState() const {
  if (prototypes_.size() == 0) return {};  // round 1: nothing to carry over
  std::vector<std::uint8_t> out;
  fl::wire::PutU64(out, static_cast<std::uint64_t>(prototypes_.dim(0)));
  fl::wire::PutU64(out, static_cast<std::uint64_t>(prototypes_.dim(1)));
  fl::wire::PutFloatsU64(out, prototypes_.data(),
                         static_cast<std::size_t>(prototypes_.size()));
  fl::wire::PutU32(out, static_cast<std::uint32_t>(prototype_classes_.size()));
  for (const int y : prototype_classes_) {
    fl::wire::PutU32(out, static_cast<std::uint32_t>(y));
  }
  return out;
}

void Fpl::LoadRoundState(std::span<const std::uint8_t> state) {
  if (state.empty()) {
    prototypes_ = tensor::Tensor();
    prototype_classes_.clear();
    return;
  }
  std::size_t cursor = 0;
  const auto rows = static_cast<std::int64_t>(fl::wire::GetU64(state, cursor));
  const auto dim = static_cast<std::int64_t>(fl::wire::GetU64(state, cursor));
  if (rows <= 0 || dim <= 0) {
    throw fl::CheckpointError(
        "sim checkpoint: FPL state: non-positive prototype shape");
  }
  const std::vector<float> data = fl::wire::GetFloatsU64(state, cursor);
  // Divide, never multiply: a corrupt shape cannot overflow the check.
  const auto size = static_cast<std::int64_t>(data.size());
  if (size % dim != 0 || size / dim != rows) {
    throw fl::CheckpointError(
        "sim checkpoint: FPL state: prototype data/shape mismatch");
  }
  const std::uint32_t num_classes = fl::wire::GetU32(state, cursor);
  if (num_classes != static_cast<std::uint32_t>(rows)) {
    throw fl::CheckpointError(
        "sim checkpoint: FPL state: class-id count != prototype rows");
  }
  std::vector<int> classes(num_classes);
  for (auto& y : classes) {
    y = static_cast<std::int32_t>(fl::wire::GetU32(state, cursor));
  }
  if (cursor != state.size()) {
    throw fl::CheckpointError("sim checkpoint: FPL state: trailing bytes");
  }
  tensor::Tensor protos({rows, dim});
  std::copy(data.begin(), data.end(), protos.data());
  prototypes_ = std::move(protos);
  prototype_classes_ = std::move(classes);
}

}  // namespace pardon::baselines
