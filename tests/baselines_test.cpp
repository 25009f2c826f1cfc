// Baseline algorithm tests: each method's distinctive mechanism, plus a
// smoke round through the simulator for every method.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "baselines/ccst.hpp"
#include "baselines/fedavg.hpp"
#include "baselines/feddg_ga.hpp"
#include "baselines/fedgma.hpp"
#include "baselines/fedsr.hpp"
#include "baselines/fpl.hpp"
#include "data/domain_generator.hpp"
#include "data/partition.hpp"
#include "data/presets.hpp"
#include "fl/simulator.hpp"
#include "tensor/ops.hpp"

namespace pardon::baselines {
namespace {

using tensor::Pcg32;

struct BaselineFixture {
  BaselineFixture() {
    data::GeneratorConfig config = data::MakePacsLike(505).generator;
    config.shape = {.channels = 4, .height = 8, .width = 8};
    const data::DomainGenerator generator(config);
    Pcg32 rng(1);
    data::Dataset train(config.shape, config.num_classes, config.num_domains);
    train.Append(generator.GenerateDomain(0, 60, rng));
    train.Append(generator.GenerateDomain(1, 60, rng));
    clients = data::PartitionHeterogeneous(
        train, {.num_clients = 4, .lambda = 0.2, .seed = 2});
    eval = generator.GenerateDomain(2, 50, rng);
    model_config = nn::MlpClassifier::Config{
        .input_dim = config.shape.FlatDim(),
        .hidden = {24},
        .embed_dim = 12,
        .num_classes = config.num_classes,
        .seed = 3,
    };
    fl_config = fl::FlConfig{.total_clients = 4,
                             .participants_per_round = 3,
                             .rounds = 4,
                             .batch_size = 16,
                             .optimizer = {.lr = 3e-3f},
                             .eval_every = 0,
                             .seed = 4};
  }
  std::vector<data::Dataset> clients;
  data::Dataset eval;
  nn::MlpClassifier::Config model_config;
  fl::FlConfig fl_config;
};

TEST(AllBaselines, SmokeRoundTrip) {
  const BaselineFixture fixture;
  const nn::MlpClassifier model(fixture.model_config);
  const fl::Simulator simulator(fixture.clients, fixture.fl_config);
  const std::vector<fl::EvalSet> evals = {{"eval", &fixture.eval}};

  std::vector<std::unique_ptr<fl::Algorithm>> algorithms;
  algorithms.push_back(std::make_unique<FedAvg>());
  algorithms.push_back(std::make_unique<FedSr>());
  algorithms.push_back(std::make_unique<FedGma>());
  algorithms.push_back(std::make_unique<FedDgGa>());
  algorithms.push_back(std::make_unique<Fpl>());
  algorithms.push_back(std::make_unique<Ccst>());

  for (const auto& algorithm : algorithms) {
    const fl::SimulationResult result =
        simulator.Run(*algorithm, model, evals);
    EXPECT_GE(result.final_accuracy[0], 0.0) << algorithm->Name();
    EXPECT_TRUE(tensor::AllFinite(tensor::Tensor(
        {static_cast<std::int64_t>(result.final_model.FlatParams().size())},
        result.final_model.FlatParams())))
        << algorithm->Name();
  }
}

TEST(FedGma, MasksDisagreeingCoordinates) {
  FedGma gma({.tau = 1.0f, .server_lr = 1.0f});
  const std::vector<float> global = {0.0f, 0.0f};
  std::vector<fl::ClientUpdate> updates(2);
  updates[0].params = {1.0f, 1.0f};
  updates[0].num_samples = 1;
  updates[1].params = {1.0f, -1.0f};
  updates[1].num_samples = 1;
  const std::vector<int> ids = {0, 1};
  const std::vector<float> merged = gma.Aggregate(global, updates, ids, 1);
  // Coordinate 0: full agreement -> mask 1 -> 1.0. Coordinate 1: 50/50
  // disagreement with tau=1 -> soft mask 0.5 applied to avg delta 0 -> 0.
  EXPECT_FLOAT_EQ(merged[0], 1.0f);
  EXPECT_FLOAT_EQ(merged[1], 0.0f);
}

TEST(FedGma, CountsMajoritySign) {
  // tau above 1 soft-masks every coordinate by its agreement, so the merged
  // value is agreement * weighted mean delta.
  FedGma gma({.tau = 1.5f, .server_lr = 1.0f});
  const std::vector<float> global = {0.0f, 0.0f, 0.0f};
  std::vector<fl::ClientUpdate> updates(3);
  updates[0].params = {1.0f, -1.0f, 0.0f};
  updates[1].params = {2.0f, 1.0f, 0.0f};
  updates[2].params = {3.0f, -2.0f, 1.0f};
  for (fl::ClientUpdate& u : updates) u.num_samples = 1;
  const std::vector<int> ids = {0, 1, 2};
  const std::vector<float> merged = gma.Aggregate(global, updates, ids, 1);
  // Agreements 1, 2/3 (two negative of three) and 1/3 (zeros count for
  // neither sign); mean deltas 2, -2/3 and 1/3.
  EXPECT_FLOAT_EQ(merged[0], 2.0f);
  EXPECT_NEAR(merged[1], -4.0f / 9.0f, 1e-6f);
  EXPECT_NEAR(merged[2], 1.0f / 9.0f, 1e-6f);
}

// The coordinate-outer FedGMA aggregation, with its separate sign-agreement
// pass, as it was before Aggregate became one pass per update.
std::vector<float> ReferenceFedGmaAggregate(
    std::span<const float> global_params,
    std::span<const fl::ClientUpdate> updates, float tau, float server_lr) {
  const std::size_t dim = global_params.size();
  std::vector<std::vector<float>> deltas;
  std::vector<double> weights;
  double total_weight = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    std::vector<float> delta(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      delta[j] = u.params[j] - global_params[j];
    }
    deltas.push_back(std::move(delta));
    weights.push_back(static_cast<double>(u.num_samples));
    total_weight += static_cast<double>(u.num_samples);
  }
  if (total_weight <= 0.0) total_weight = 1.0;
  std::vector<float> agreement(dim, 0.0f);
  for (std::size_t j = 0; j < dim; ++j) {
    int positive = 0, negative = 0;
    for (const auto& delta : deltas) {
      if (delta[j] > 0.0f) {
        ++positive;
      } else if (delta[j] < 0.0f) {
        ++negative;
      }
    }
    agreement[j] = static_cast<float>(std::max(positive, negative)) /
                   static_cast<float>(deltas.size());
  }
  std::vector<float> out(global_params.begin(), global_params.end());
  for (std::size_t j = 0; j < dim; ++j) {
    double avg_delta = 0.0;
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      avg_delta += weights[k] / total_weight * deltas[k][j];
    }
    const float mask = agreement[j] >= tau ? 1.0f : agreement[j];
    out[j] += server_lr * mask * static_cast<float>(avg_delta);
  }
  return out;
}

TEST(FedGma, AggregateMatchesCoordinateLoopBitwise) {
  for (const std::size_t k : {1u, 2u, 4u, 5u, 20u}) {
    for (const std::size_t dim : {1u, 7u, 67u, 1001u}) {
      Pcg32 rng(static_cast<std::uint64_t>(k * 10007 + dim));
      std::vector<float> global(dim);
      for (float& g : global) g = rng.NextGaussian();
      // Every fifth coordinate of global is -0.0f, every seventh 0.0f, so
      // a local value equal to it gives an exact zero delta of either sign.
      for (std::size_t j = 0; j < dim; j += 5) global[j] = -0.0f;
      for (std::size_t j = 0; j < dim; j += 7) global[j] = 0.0f;
      std::vector<fl::ClientUpdate> updates(k);
      for (std::size_t c = 0; c < k; ++c) {
        updates[c].num_samples = static_cast<std::int64_t>(3 * c + 1);
        updates[c].params.resize(dim);
        for (std::size_t j = 0; j < dim; ++j) {
          const float step = rng.NextGaussian() * 1e-2f;
          switch ((j + c) % 6) {
            case 0: updates[c].params[j] = global[j]; break;  // zero delta
            case 1: updates[c].params[j] = -0.0f; break;
            // Even k gives coordinate j % 6 == 2 sign ties: half the
            // clients step up, half down.
            case 2:
              updates[c].params[j] = global[j] + (c % 2 ? 0.5f : -0.5f);
              break;
            default: updates[c].params[j] = global[j] + step;
          }
        }
      }
      std::vector<int> ids(k);
      for (const FedGma::Options options :
           {FedGma::Options{}, FedGma::Options{.tau = 0.7f, .server_lr = 0.5f}}) {
        FedGma gma(options);
        const std::vector<float> got = gma.Aggregate(global, updates, ids, 1);
        const std::vector<float> want = ReferenceFedGmaAggregate(
            global, updates, options.tau, options.server_lr);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t j = 0; j < dim; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got[j]),
                    std::bit_cast<std::uint32_t>(want[j]))
              << "k=" << k << " dim=" << dim << " coordinate " << j;
        }
      }
    }
  }
}

TEST(FedGma, AggregateRejectsEmptyAndMismatchedUpdates) {
  FedGma gma;
  const std::vector<float> global = {0.0f, 0.0f};
  EXPECT_THROW(gma.Aggregate(global, {}, {}, 1), std::invalid_argument);
  std::vector<fl::ClientUpdate> updates(1);
  updates[0].params = {1.0f};
  updates[0].num_samples = 1;
  const std::vector<int> ids = {0};
  EXPECT_THROW(gma.Aggregate(global, updates, ids, 1), std::invalid_argument);
}

TEST(FedDgGa, ShiftsWeightTowardLargerGap) {
  const BaselineFixture fixture;
  FedDgGa ga;
  ga.Setup({.client_data = &fixture.clients, .config = fixture.fl_config});
  std::vector<fl::ClientUpdate> updates(2);
  updates[0].params = {1.0f};
  updates[0].num_samples = 10;
  updates[0].loss_before = 2.0;  // big generalization gap
  updates[0].loss_after = 0.5;
  updates[1].params = {0.0f};
  updates[1].num_samples = 10;
  updates[1].loss_before = 0.6;  // small gap
  updates[1].loss_after = 0.5;
  const std::vector<float> global = {0.0f};
  const std::vector<int> ids = {0, 1};
  ga.Aggregate(global, updates, ids, 1);
  EXPECT_GT(ga.ClientWeight(0), ga.ClientWeight(1));
}

TEST(Fpl, PrototypesFlowThroughAggregation) {
  const BaselineFixture fixture;
  Fpl fpl;
  fpl.Setup({.client_data = &fixture.clients, .config = fixture.fl_config});
  EXPECT_EQ(fpl.prototypes().size(), 0);

  nn::MlpClassifier model(fixture.model_config);
  Pcg32 rng(5);
  std::vector<fl::ClientUpdate> updates;
  std::vector<int> ids;
  for (int c = 0; c < 2; ++c) {
    updates.push_back(
        fpl.TrainClient(c, fixture.clients[static_cast<std::size_t>(c)], model,
                        1, rng));
    ids.push_back(c);
    EXPECT_GT(updates.back().prototype_class.size(), 0u);
    EXPECT_EQ(updates.back().prototypes.dim(1), 12);  // embed dim
  }
  const std::vector<float> global = model.FlatParams();
  fpl.Aggregate(global, updates, ids, 1);
  EXPECT_GT(fpl.prototypes().dim(0), 0);
  EXPECT_EQ(fpl.prototypes().dim(0),
            static_cast<std::int64_t>(fpl.prototype_classes().size()));
}

TEST(Ccst, BuildsBankAndAugmentedDatasets) {
  const BaselineFixture fixture;
  Ccst ccst;
  ccst.Setup({.client_data = &fixture.clients, .config = fixture.fl_config});
  EXPECT_EQ(ccst.style_bank().size(), fixture.clients.size());
  for (std::size_t c = 0; c < fixture.clients.size(); ++c) {
    EXPECT_GE(ccst.BankIndexOfClient(static_cast<int>(c)), 0);
  }
  // Local training runs on the (doubled) augmented dataset but reports the
  // original sample count for FedAvg weighting.
  nn::MlpClassifier model(fixture.model_config);
  Pcg32 rng(6);
  const fl::ClientUpdate update =
      ccst.TrainClient(0, fixture.clients[0], model, 1, rng);
  EXPECT_EQ(update.num_samples, fixture.clients[0].size());
}

TEST(FedSr, NoiseAndRegularizersStillLearn) {
  const BaselineFixture fixture;
  FedSr fedsr;
  fedsr.Setup({.client_data = &fixture.clients, .config = fixture.fl_config});
  nn::MlpClassifier model(fixture.model_config);
  Pcg32 rng(7);
  const fl::ClientUpdate update =
      fedsr.TrainClient(0, fixture.clients[0], model, 1, rng);
  EXPECT_EQ(update.params.size(), model.FlatParams().size());
  EXPECT_NE(update.params, model.FlatParams());
}

}  // namespace
}  // namespace pardon::baselines
