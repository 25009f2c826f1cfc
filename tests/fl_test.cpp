// FL framework tests: aggregation math, client sampling, local training,
// and simulator determinism.
#include <gtest/gtest.h>

#include <set>

#include "baselines/fedavg.hpp"
#include "data/domain_generator.hpp"
#include "data/partition.hpp"
#include "fl/aggregate.hpp"
#include "fl/local_training.hpp"
#include "fl/sampler.hpp"
#include "fl/simulator.hpp"
#include "metrics/evaluation.hpp"
#include "tensor/ops.hpp"

namespace pardon::fl {
namespace {

using tensor::Pcg32;
using tensor::Tensor;

ClientUpdate MakeUpdate(std::vector<float> params, std::int64_t samples) {
  ClientUpdate update;
  update.params = std::move(params);
  update.num_samples = samples;
  return update;
}

TEST(FedAvg, WeightsBySampleCount) {
  const std::vector<ClientUpdate> updates = {
      MakeUpdate({0.0f, 0.0f}, 1),
      MakeUpdate({3.0f, 6.0f}, 2),
  };
  const std::vector<float> merged = FedAvg(updates);
  EXPECT_FLOAT_EQ(merged[0], 2.0f);
  EXPECT_FLOAT_EQ(merged[1], 4.0f);
}

TEST(WeightedAverage, ErrorsOnBadInput) {
  const std::vector<ClientUpdate> updates = {MakeUpdate({1.0f}, 1)};
  EXPECT_THROW(WeightedAverage({}, {}), std::invalid_argument);
  const std::vector<double> negative = {-1.0};
  EXPECT_THROW(WeightedAverage(updates, negative), std::invalid_argument);
  const std::vector<double> zero = {0.0};
  EXPECT_THROW(WeightedAverage(updates, zero), std::invalid_argument);
  const std::vector<ClientUpdate> mismatched = {MakeUpdate({1.0f}, 1),
                                                MakeUpdate({1.0f, 2.0f}, 1)};
  const std::vector<double> weights = {1.0, 1.0};
  EXPECT_THROW(WeightedAverage(mismatched, weights), std::invalid_argument);
}

TEST(FedAvg, IdempotentOnIdenticalUpdates) {
  const std::vector<ClientUpdate> updates = {
      MakeUpdate({1.5f, -2.0f}, 3),
      MakeUpdate({1.5f, -2.0f}, 9),
  };
  const std::vector<float> merged = FedAvg(updates);
  EXPECT_FLOAT_EQ(merged[0], 1.5f);
  EXPECT_FLOAT_EQ(merged[1], -2.0f);
}

TEST(WeightedAverage, MatchesManualComputation) {
  Pcg32 rng(101);
  std::vector<ClientUpdate> updates(3);
  std::vector<double> weights = {1.0, 2.0, 5.0};
  std::vector<double> expected(8, 0.0);
  for (std::size_t k = 0; k < 3; ++k) {
    updates[k].params.resize(8);
    updates[k].num_samples = 1;
    for (std::size_t j = 0; j < 8; ++j) {
      updates[k].params[j] = rng.NextGaussian();
      expected[j] += weights[k] / 8.0 * updates[k].params[j];
    }
  }
  const std::vector<float> merged = WeightedAverage(updates, weights);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(merged[j], expected[j], 1e-5f);
  }
}

// -- metamorphic properties of fl::aggregate --------------------------------

TEST(FedAvg, PairSwapIsBitwiseInvariant) {
  // With two clients the accumulator sees one addition per coordinate in
  // either order, and float addition commutes — so swapping the clients is
  // invariant with tolerance ZERO.
  Pcg32 rng(301);
  std::vector<ClientUpdate> updates(2);
  for (auto& u : updates) {
    u.params.resize(32);
    for (float& p : u.params) p = rng.NextGaussian();
  }
  updates[0].num_samples = 3;
  updates[1].num_samples = 11;
  const std::vector<ClientUpdate> swapped = {updates[1], updates[0]};
  EXPECT_EQ(FedAvg(updates), FedAvg(swapped));
}

TEST(FedAvg, PermutationInvariantWithinSummationTolerance) {
  // With more clients the summation order changes, so invariance holds up to
  // floating-point reassociation only.
  Pcg32 rng(302);
  std::vector<ClientUpdate> updates(5);
  for (std::size_t k = 0; k < updates.size(); ++k) {
    updates[k].params.resize(64);
    for (float& p : updates[k].params) p = rng.NextGaussian();
    updates[k].num_samples = static_cast<std::int64_t>(k + 1);
  }
  std::vector<ClientUpdate> permuted = {updates[3], updates[0], updates[4],
                                        updates[2], updates[1]};
  const std::vector<float> a = FedAvg(updates);
  const std::vector<float> b = FedAvg(permuted);
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_NEAR(a[j], b[j], 1e-6f);
  }
}

TEST(FedAvg, EqualSampleCountsMatchUniformWeightsBitwise) {
  // n/(K*n) and 1/K are correctly-rounded quotients of the same real number,
  // so FedAvg with all-equal sample counts must equal the uniformly-weighted
  // average bitwise — tolerance ZERO (identical summation order).
  Pcg32 rng(303);
  std::vector<ClientUpdate> updates(4);
  for (auto& u : updates) {
    u.params.resize(48);
    for (float& p : u.params) p = rng.NextGaussian();
    u.num_samples = 37;  // equal, deliberately not a power of two
  }
  const std::vector<double> uniform(4, 1.0);
  EXPECT_EQ(FedAvg(updates), WeightedAverage(updates, uniform));
}

TEST(FedAvg, EqualWeightsEqualTheUnweightedMean) {
  const std::vector<ClientUpdate> updates = {
      MakeUpdate({1.0f, -4.0f}, 5),
      MakeUpdate({3.0f, 2.0f}, 5),
      MakeUpdate({5.0f, 8.0f}, 5),
  };
  const std::vector<float> merged = FedAvg(updates);
  EXPECT_NEAR(merged[0], 3.0f, 1e-6f);
  EXPECT_NEAR(merged[1], 2.0f, 1e-6f);
}

TEST(FedAvg, WeightScalingIsBitwiseInvariant) {
  // Scaling every sample count by the same integer leaves every normalized
  // weight a correctly-rounded quotient of the same real value — bitwise
  // invariant, tolerance ZERO.
  Pcg32 rng(304);
  std::vector<ClientUpdate> updates(3);
  for (std::size_t k = 0; k < updates.size(); ++k) {
    updates[k].params.resize(40);
    for (float& p : updates[k].params) p = rng.NextGaussian();
    updates[k].num_samples = static_cast<std::int64_t>(2 * k + 3);
  }
  std::vector<ClientUpdate> scaled = updates;
  for (auto& u : scaled) u.num_samples *= 7;
  EXPECT_EQ(FedAvg(updates), FedAvg(scaled));
}

TEST(ClientSampler, DeterministicSortedSubset) {
  const ClientSampler sampler(100, 20, 7);
  const std::vector<int> a = sampler.Sample(3);
  const std::vector<int> b = sampler.Sample(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 20u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (const int id : a) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 100);
  }
  EXPECT_NE(sampler.Sample(4), a);
}

TEST(ClientSampler, RoundRobinRotatesDeterministically) {
  const ClientSampler sampler(10, 4, 7, SamplingStrategy::kRoundRobin);
  EXPECT_EQ(sampler.Sample(1), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sampler.Sample(2), (std::vector<int>{4, 5, 6, 7}));
  // Round 3 wraps.
  EXPECT_EQ(sampler.Sample(3), (std::vector<int>{0, 1, 8, 9}));
  // Every client appears within ceil(N/K) consecutive rounds.
  std::set<int> seen;
  for (int round = 1; round <= 3; ++round) {
    for (const int id : sampler.Sample(round)) seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(ClientSampler, RoundRobinRotationSurvivesProductionRoundCounts) {
  // Regression: the rotation start used to be computed in 32-bit —
  // (round - 1) * participants wraps past 2^31 at production round x cohort
  // scales, turning the start negative and the selection into garbage ids.
  const ClientSampler small(7, 3, 7, SamplingStrategy::kRoundRobin);
  // (10^9 - 1) * 3 = 2,999,999,997 — far past INT_MAX; mod 7 it is 1.
  EXPECT_EQ(small.Sample(1'000'000'000), (std::vector<int>{1, 2, 3}));

  // Production-shaped ring: K = N - 1 leaves exactly the client just before
  // the rotation start unselected.
  const int total = 100'001;
  const int participants = 100'000;
  const int round = 30'000;
  const ClientSampler sampler(total, participants, 7,
                              SamplingStrategy::kRoundRobin);
  const std::vector<int> selected = sampler.Sample(round);
  ASSERT_EQ(selected.size(), static_cast<std::size_t>(participants));
  std::vector<bool> present(static_cast<std::size_t>(total), false);
  for (const int id : selected) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, total);
    present[static_cast<std::size_t>(id)] = true;
  }
  const std::int64_t start =
      (static_cast<std::int64_t>(round - 1) * participants) % total;
  const auto missing =
      static_cast<std::size_t>((start + total - 1) % total);
  EXPECT_FALSE(present[missing]);
}

TEST(ClientSampler, WeightedBySizeFavorsLargeClients) {
  std::vector<std::int64_t> sizes(10, 1);
  sizes[3] = 1000;  // one huge client
  const ClientSampler sampler(10, 2, 11, SamplingStrategy::kWeightedBySize,
                              sizes);
  int hits = 0;
  for (int round = 1; round <= 50; ++round) {
    const std::vector<int> selected = sampler.Sample(round);
    EXPECT_EQ(selected.size(), 2u);
    std::set<int> unique(selected.begin(), selected.end());
    EXPECT_EQ(unique.size(), 2u);  // without replacement
    if (unique.count(3)) ++hits;
  }
  EXPECT_GT(hits, 45);  // the huge client is nearly always selected
}

TEST(WeightedDrawIndex, FallsBackToLastPositiveWeight) {
  // Regression: when floating-point rounding leaves the target above the
  // scanned total, the fallback used to return the last client outright —
  // even with zero weight (already selected or empty), which produced
  // duplicate participants in a round. It must return the last
  // positive-weight entry instead.
  const std::vector<double> weights = {3.0, 0.0, 2.0, 0.0};
  EXPECT_EQ(internal::WeightedDrawIndex(weights, 5.5), 2);  // past the total
  EXPECT_EQ(internal::WeightedDrawIndex(weights, 4.0), 2);
  EXPECT_EQ(internal::WeightedDrawIndex(weights, 0.1), 0);
  const std::vector<double> all_zero = {0.0, 0.0};
  EXPECT_EQ(internal::WeightedDrawIndex(all_zero, 1.0), -1);
}

TEST(ClientSampler, WeightedNeverSelectsEmptyClients) {
  // Zero-size clients must never appear even when K exceeds the number of
  // non-empty clients (the draw loop stops once all weight is consumed).
  const std::vector<std::int64_t> sizes = {0, 4, 0, 6, 0};
  const ClientSampler sampler(5, 5, 21, SamplingStrategy::kWeightedBySize,
                              sizes);
  for (int round = 1; round <= 100; ++round) {
    EXPECT_EQ(sampler.Sample(round), (std::vector<int>{1, 3}));
  }
}

TEST(ClientSampler, WeightedNoDuplicatesUnderRoundingStress) {
  // 2^53-scale sizes next to unit ones make the weighted scan's sequential
  // subtraction round differently from the summed total — the regime where
  // the old fallback could return an already-selected client.
  std::vector<std::int64_t> sizes;
  for (int i = 0; i < 24; ++i) {
    sizes.push_back(i % 2 == 0 ? (std::int64_t{1} << 53) : 1);
  }
  const ClientSampler sampler(24, 12, 77, SamplingStrategy::kWeightedBySize,
                              sizes);
  for (int round = 1; round <= 200; ++round) {
    const std::vector<int> selected = sampler.Sample(round);
    EXPECT_EQ(selected.size(), 12u);
    const std::set<int> unique(selected.begin(), selected.end());
    EXPECT_EQ(unique.size(), selected.size())
        << "duplicate participant in round " << round;
  }
}

TEST(ClientSampler, WeightedBySizeRequiresSizes) {
  EXPECT_THROW(ClientSampler(5, 2, 1, SamplingStrategy::kWeightedBySize),
               std::invalid_argument);
}

TEST(ClientSampler, CoversAllClientsWhenKEqualsN) {
  const ClientSampler sampler(5, 5, 1);
  const std::vector<int> all = sampler.Sample(1);
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Small shared fixture: a 2-domain dataset split over 4 clients.
struct FlFixture {
  FlFixture() {
    data::GeneratorConfig config;
    config.num_domains = 2;
    config.num_classes = 3;
    config.shape = {.channels = 2, .height = 4, .width = 4};
    config.seed = 33;
    const data::DomainGenerator generator(config);
    Pcg32 rng(3);
    data::Dataset train(config.shape, 3, 2);
    train.Append(generator.GenerateDomain(0, 80, rng));
    train.Append(generator.GenerateDomain(1, 80, rng));
    clients = data::PartitionHeterogeneous(
        train, {.num_clients = 4, .lambda = 0.5, .seed = 9});
    eval = generator.GenerateDomain(0, 60, rng);
    model_config = nn::MlpClassifier::Config{
        .input_dim = config.shape.FlatDim(),
        .hidden = {16},
        .embed_dim = 8,
        .num_classes = 3,
        .seed = 13,
    };
  }
  std::vector<data::Dataset> clients;
  data::Dataset eval;
  nn::MlpClassifier::Config model_config;
};

TEST(TrainLocal, ImprovesLocalLoss) {
  const FlFixture fixture;
  nn::MlpClassifier model(fixture.model_config);
  const data::Dataset& dataset = fixture.clients[0];
  const double before = metrics::MeanLoss(model, dataset);
  Pcg32 rng(5);
  const LocalTrainOptions options{.epochs = 10, .batch_size = 16,
                                  .optimizer = {.lr = 3e-3f}};
  const ClientUpdate update = TrainLocal(model, dataset, options, rng);
  nn::MlpClassifier trained = model.Clone();
  trained.SetFlatParams(update.params);
  EXPECT_LT(metrics::MeanLoss(trained, dataset), before);
  EXPECT_EQ(update.num_samples, dataset.size());
  EXPECT_GT(update.train_seconds, 0.0);
}

TEST(TrainLocal, TracksGeneralizationGap) {
  const FlFixture fixture;
  nn::MlpClassifier model(fixture.model_config);
  Pcg32 rng(6);
  const LocalTrainOptions options{.epochs = 5, .batch_size = 16,
                                  .optimizer = {.lr = 3e-3f},
                                  .track_generalization_gap = true};
  const ClientUpdate update =
      TrainLocal(model, fixture.clients[0], options, rng);
  EXPECT_GT(update.loss_before, 0.0);
  EXPECT_GT(update.loss_after, 0.0);
  EXPECT_LT(update.loss_after, update.loss_before);
}

TEST(TrainLocal, EmptyDatasetReturnsGlobalParams) {
  const FlFixture fixture;
  nn::MlpClassifier model(fixture.model_config);
  const data::Dataset empty(fixture.clients[0].shape(), 3, 2);
  Pcg32 rng(7);
  const ClientUpdate update = TrainLocal(model, empty, {}, rng);
  EXPECT_EQ(update.params, model.FlatParams());
  EXPECT_EQ(update.num_samples, 0);
}

TEST(Simulator, DeterministicGivenSeed) {
  const FlFixture fixture;
  const nn::MlpClassifier model(fixture.model_config);
  const FlConfig config{.total_clients = 4,
                        .participants_per_round = 2,
                        .rounds = 3,
                        .batch_size = 16,
                        .optimizer = {.lr = 3e-3f},
                        .eval_every = 0,
                        .seed = 77};
  const Simulator simulator(fixture.clients, config);
  const std::vector<EvalSet> evals = {{"eval", &fixture.eval}};

  baselines::FedAvg algo_a, algo_b;
  const SimulationResult a = simulator.Run(algo_a, model, evals);
  const SimulationResult b = simulator.Run(algo_b, model, evals);
  EXPECT_EQ(a.final_model.FlatParams(), b.final_model.FlatParams());
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(Simulator, ParallelMatchesSerial) {
  const FlFixture fixture;
  const nn::MlpClassifier model(fixture.model_config);
  const FlConfig config{.total_clients = 4,
                        .participants_per_round = 3,
                        .rounds = 3,
                        .batch_size = 16,
                        .optimizer = {.lr = 3e-3f},
                        .eval_every = 0,
                        .seed = 78};
  const Simulator simulator(fixture.clients, config);
  const std::vector<EvalSet> evals = {{"eval", &fixture.eval}};

  baselines::FedAvg serial_algo, parallel_algo;
  util::ThreadPool pool(4);
  const SimulationResult serial = simulator.Run(serial_algo, model, evals);
  const SimulationResult parallel =
      simulator.Run(parallel_algo, model, evals, &pool);
  EXPECT_EQ(serial.final_model.FlatParams(),
            parallel.final_model.FlatParams());
}

TEST(Simulator, RecordsEvalSeriesAndCosts) {
  const FlFixture fixture;
  const nn::MlpClassifier model(fixture.model_config);
  const FlConfig config{.total_clients = 4,
                        .participants_per_round = 2,
                        .rounds = 4,
                        .batch_size = 16,
                        .optimizer = {.lr = 3e-3f},
                        .eval_every = 2,
                        .seed = 79};
  const Simulator simulator(fixture.clients, config);
  const std::vector<EvalSet> evals = {{"eval", &fixture.eval}};
  baselines::FedAvg algorithm;
  const SimulationResult result = simulator.Run(algorithm, model, evals);
  EXPECT_EQ(result.recorder.Rounds("eval"), (std::vector<int>{2, 4}));
  EXPECT_EQ(result.costs.client_rounds, 8);
  EXPECT_EQ(result.costs.aggregate_rounds, 4);
  EXPECT_GT(result.costs.local_train_seconds, 0.0);
}

TEST(Simulator, ClientDropoutStillConverges) {
  const FlFixture fixture;
  const nn::MlpClassifier model(fixture.model_config);
  FlConfig config{.total_clients = 4,
                  .participants_per_round = 3,
                  .rounds = 6,
                  .batch_size = 16,
                  .optimizer = {.lr = 3e-3f},
                  .client_dropout = 0.4,
                  .eval_every = 0,
                  .seed = 91};
  const Simulator simulator(fixture.clients, config);
  const std::vector<EvalSet> evals = {{"eval", &fixture.eval}};
  baselines::FedAvg algorithm;
  const SimulationResult result = simulator.Run(algorithm, model, evals);
  // Dropped updates mean fewer aggregation rounds than training rounds is
  // possible, but training still progresses and the run stays deterministic.
  EXPECT_LE(result.costs.aggregate_rounds, 6);
  baselines::FedAvg again;
  const SimulationResult repeat = simulator.Run(again, model, evals);
  EXPECT_EQ(result.final_model.FlatParams(), repeat.final_model.FlatParams());
}

TEST(Simulator, RoundRobinSamplingRuns) {
  const FlFixture fixture;
  const nn::MlpClassifier model(fixture.model_config);
  FlConfig config{.total_clients = 4,
                  .participants_per_round = 2,
                  .rounds = 4,
                  .batch_size = 16,
                  .sampling = SamplingStrategy::kRoundRobin,
                  .optimizer = {.lr = 3e-3f},
                  .eval_every = 0,
                  .seed = 97};
  const Simulator simulator(fixture.clients, config);
  baselines::FedAvg algorithm;
  const SimulationResult result =
      simulator.Run(algorithm, model, {{"eval", &fixture.eval}});
  EXPECT_EQ(result.costs.client_rounds, 8);
}

TEST(Simulator, EarlyStopsAtTargetAccuracy) {
  const FlFixture fixture;
  const nn::MlpClassifier model(fixture.model_config);
  FlConfig config{.total_clients = 4,
                  .participants_per_round = 3,
                  .rounds = 40,
                  .batch_size = 16,
                  .optimizer = {.lr = 3e-3f},
                  .eval_every = 1,
                  .target_accuracy = 0.05,  // trivially reachable
                  .seed = 95};
  const Simulator simulator(fixture.clients, config);
  const std::vector<EvalSet> evals = {{"eval", &fixture.eval}};
  baselines::FedAvg algorithm;
  const SimulationResult result = simulator.Run(algorithm, model, evals);
  EXPECT_LT(result.costs.aggregate_rounds, 40);
  EXPECT_GE(result.final_accuracy[0], 0.05);
}

TEST(Simulator, RejectsMismatchedClientCount) {
  const FlFixture fixture;
  const FlConfig config{.total_clients = 7};
  EXPECT_THROW(Simulator(fixture.clients, config), std::invalid_argument);
}

}  // namespace
}  // namespace pardon::fl
