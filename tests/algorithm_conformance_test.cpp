// Algorithm conformance suite: every FedDG method in the repo — FISC and the
// seven baselines — is run through the same set of metamorphic properties:
//
//   1. Fixed-seed determinism: two identically-seeded runs produce bitwise
//      identical final parameters and accuracy.
//   2. Client-permutation invariance of aggregation: permuting the order in
//      which identical updates reach Aggregate changes the result by at most
//      floating-point summation reordering (the tolerance-0 cases with fixed
//      summation order are covered on fl::FedAvg directly in fl_test.cpp).
//   3. Weight-scaling invariance: multiplying every client's sample count by
//      the same integer leaves the aggregate bitwise unchanged (normalized
//      weights are correctly-rounded quotients of equal real numbers).
//   4. Bounded degradation under 30% injected dropout via the FaultPlan
//      machinery, and determinism of the faulted run.
//   5. Event-engine mode agreement: streaming aggregation (when the method
//      supports it) is bitwise identical to the materialized path, kAuto
//      resolves to one of the two, and forcing streaming onto a
//      batched-only method is rejected.
//   6. Checkpoint/resume transparency: saving at round R and resuming from
//      that checkpoint reproduces the uninterrupted run bitwise (the full
//      kill-point/fault/corruption matrix lives in
//      checkpoint_resume_test.cpp).
//
// Adding a new Algorithm to the suite is one line in ConformanceMethods()
// (see docs/TESTING.md).
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "baselines/ccst.hpp"
#include "baselines/fedavg.hpp"
#include "baselines/feddg_ga.hpp"
#include "baselines/fedgma.hpp"
#include "baselines/fedprox.hpp"
#include "baselines/fedsr.hpp"
#include "baselines/fpl.hpp"
#include "core/fisc.hpp"
#include "data/domain_generator.hpp"
#include "data/partition.hpp"
#include "fl/sim_checkpoint.hpp"
#include "fl/simulator.hpp"

namespace pardon::fl {
namespace {

using tensor::Pcg32;

// `make` comes first: gtest names each case after this struct's raw bytes,
// and a leading std::string would start every test name with a heap address
// that differs from run to run. A stateless lambda leaves the std::function's
// leading storage zeroed.
struct ConformanceMethod {
  std::function<std::unique_ptr<Algorithm>()> make;
  std::string name;
};

std::vector<ConformanceMethod> ConformanceMethods() {
  return {
      {[] { return std::make_unique<baselines::FedAvg>(); }, "FedAvg"},
      {[] { return std::make_unique<baselines::FedProx>(); }, "FedProx"},
      {[] { return std::make_unique<baselines::FedSr>(); }, "FedSR"},
      {[] { return std::make_unique<baselines::FedGma>(); }, "FedGMA"},
      {[] { return std::make_unique<baselines::Fpl>(); }, "FPL"},
      {[] { return std::make_unique<baselines::FedDgGa>(); }, "FedDG-GA"},
      {[] { return std::make_unique<baselines::Ccst>(); }, "CCST"},
      {[] { return std::make_unique<core::Fisc>(); }, "FISC"},
  };
}

// One shared scenario for the whole suite: 2 domains over 6 clients, small
// images so FISC's style pipeline stays cheap.
struct ConformanceWorld {
  ConformanceWorld() {
    data::GeneratorConfig generator_config;
    generator_config.num_domains = 2;
    generator_config.num_classes = 3;
    generator_config.shape = {.channels = 2, .height = 4, .width = 4};
    generator_config.seed = 51;
    const data::DomainGenerator generator(generator_config);
    Pcg32 rng(4);
    data::Dataset train(generator_config.shape, 3, 2);
    train.Append(generator.GenerateDomain(0, 120, rng));
    train.Append(generator.GenerateDomain(1, 120, rng));
    clients = data::PartitionHeterogeneous(
        train, {.num_clients = 6, .lambda = 0.5, .seed = 19});
    eval = generator.GenerateDomain(0, 80, rng);
    model_config = nn::MlpClassifier::Config{
        .input_dim = generator_config.shape.FlatDim(),
        .hidden = {16},
        .embed_dim = 8,
        .num_classes = 3,
        .seed = 23,
    };
    fl_config = FlConfig{.total_clients = 6,
                         .participants_per_round = 3,
                         .rounds = 4,
                         .batch_size = 16,
                         .optimizer = {.lr = 3e-3f},
                         .eval_every = 0,
                         .seed = 211};
  }

  static const ConformanceWorld& Get() {
    static const ConformanceWorld world;
    return world;
  }

  SimulationResult Run(Algorithm& algorithm, const FlConfig& config) const {
    const Simulator simulator(clients, config);
    nn::MlpClassifier model(model_config);
    return simulator.Run(algorithm, model, {{"eval", &eval}});
  }

  // Identical per-client updates for aggregation metamorphic tests: Setup,
  // then train `count` clients from the initial model with fixed rng forks.
  std::vector<ClientUpdate> TrainUpdates(Algorithm& algorithm,
                                         int count) const {
    const FlContext context{.client_data = &clients,
                            .initial_model = nullptr,
                            .config = fl_config,
                            .pool = nullptr};
    algorithm.Setup(context);
    nn::MlpClassifier model(model_config);
    std::vector<ClientUpdate> updates;
    updates.reserve(static_cast<std::size_t>(count));
    Pcg32 root(fl_config.seed, /*stream=*/0x636f6eULL);
    for (int client = 0; client < count; ++client) {
      Pcg32 rng = root.Fork(static_cast<std::uint64_t>(client));
      updates.push_back(algorithm.TrainClient(
          client, clients[static_cast<std::size_t>(client)], model,
          /*round=*/1, rng));
    }
    return updates;
  }

  std::vector<float> InitialParams() const {
    return nn::MlpClassifier(model_config).FlatParams();
  }

  std::vector<data::Dataset> clients;
  data::Dataset eval;
  nn::MlpClassifier::Config model_config;
  FlConfig fl_config;
};

class AlgorithmConformanceTest
    : public ::testing::TestWithParam<ConformanceMethod> {};

TEST_P(AlgorithmConformanceTest, FixedSeedDeterminism) {
  const ConformanceWorld& world = ConformanceWorld::Get();
  const auto algo_a = GetParam().make();
  const auto algo_b = GetParam().make();
  const SimulationResult a = world.Run(*algo_a, world.fl_config);
  const SimulationResult b = world.Run(*algo_b, world.fl_config);
  EXPECT_EQ(a.final_model.FlatParams(), b.final_model.FlatParams());
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

TEST_P(AlgorithmConformanceTest, AggregationIsPermutationInvariant) {
  const ConformanceWorld& world = ConformanceWorld::Get();
  // Two fresh instances trained identically, fed the same updates in
  // different client orders.
  const auto algo_a = GetParam().make();
  const auto algo_b = GetParam().make();
  const std::vector<ClientUpdate> updates = world.TrainUpdates(*algo_a, 3);
  const std::vector<ClientUpdate> check = world.TrainUpdates(*algo_b, 3);
  for (std::size_t k = 0; k < updates.size(); ++k) {
    ASSERT_EQ(updates[k].params, check[k].params)
        << GetParam().name << ": training is not deterministic";
  }

  const std::vector<float> global = world.InitialParams();
  const std::vector<int> ids = {0, 1, 2};
  const std::vector<float> in_order =
      algo_a->Aggregate(global, updates, ids, /*round=*/1);

  const std::vector<ClientUpdate> permuted = {check[2], check[0], check[1]};
  const std::vector<int> permuted_ids = {2, 0, 1};
  const std::vector<float> out_of_order =
      algo_b->Aggregate(global, permuted, permuted_ids, /*round=*/1);

  ASSERT_EQ(in_order.size(), out_of_order.size());
  for (std::size_t j = 0; j < in_order.size(); ++j) {
    EXPECT_NEAR(in_order[j], out_of_order[j], 1e-5f)
        << GetParam().name << " diverged at coordinate " << j;
  }
}

TEST_P(AlgorithmConformanceTest, AggregationIsWeightScaleInvariant) {
  const ConformanceWorld& world = ConformanceWorld::Get();
  const auto algo_a = GetParam().make();
  const auto algo_b = GetParam().make();
  const std::vector<ClientUpdate> updates = world.TrainUpdates(*algo_a, 3);
  std::vector<ClientUpdate> scaled = world.TrainUpdates(*algo_b, 3);
  // x4 (a power of two, so even double-precision weight products scale
  // exactly): normalized weights are correctly-rounded quotients of
  // identical real numbers, so the aggregate must be bitwise unchanged.
  for (ClientUpdate& u : scaled) u.num_samples *= 4;

  const std::vector<float> global = world.InitialParams();
  const std::vector<int> ids = {0, 1, 2};
  const std::vector<float> base =
      algo_a->Aggregate(global, updates, ids, /*round=*/1);
  const std::vector<float> rescaled =
      algo_b->Aggregate(global, scaled, ids, /*round=*/1);
  EXPECT_EQ(base, rescaled) << GetParam().name;
}

TEST_P(AlgorithmConformanceTest, BoundedDegradationUnderThirtyPctDropout) {
  const ConformanceWorld& world = ConformanceWorld::Get();
  const auto clean_algo = GetParam().make();
  const SimulationResult clean = world.Run(*clean_algo, world.fl_config);

  FlConfig faulted = world.fl_config;
  faulted.faults.dropout = 0.3;
  const auto faulted_algo = GetParam().make();
  const SimulationResult lossy = world.Run(*faulted_algo, faulted);

  // Losing 30% of updates must not collapse training: the server still
  // aggregates most rounds and accuracy stays within a bounded drop of the
  // fault-free run at the same seed.
  EXPECT_GT(lossy.costs.aggregate_rounds, 0) << GetParam().name;
  EXPECT_GE(lossy.final_accuracy[0], clean.final_accuracy[0] - 0.25)
      << GetParam().name;

  // The faulted run is reproducible from the seed.
  const auto repeat_algo = GetParam().make();
  const SimulationResult repeat = world.Run(*repeat_algo, faulted);
  EXPECT_EQ(lossy.final_model.FlatParams(), repeat.final_model.FlatParams());
  EXPECT_EQ(lossy.costs.dropped_updates, repeat.costs.dropped_updates);
}

TEST_P(AlgorithmConformanceTest, StreamingMatchesMaterializedOnEventPath) {
  const ConformanceWorld& world = ConformanceWorld::Get();

  FlConfig materialized_cfg = world.fl_config;
  materialized_cfg.aggregation = AggregationMode::kMaterialized;
  const auto materialized_algo = GetParam().make();
  const SimulationResult materialized =
      world.Run(*materialized_algo, materialized_cfg);

  FlConfig streaming_cfg = world.fl_config;
  streaming_cfg.aggregation = AggregationMode::kStreaming;
  streaming_cfg.max_inflight_updates = 2;
  const auto streaming_algo = GetParam().make();
  if (streaming_algo->SupportsStreamingAggregation()) {
    const SimulationResult streamed =
        world.Run(*streaming_algo, streaming_cfg);
    EXPECT_EQ(streamed.final_model.FlatParams(),
              materialized.final_model.FlatParams())
        << GetParam().name;
    EXPECT_EQ(streamed.final_accuracy, materialized.final_accuracy);
    // Constant-memory claim: never more than the inflight cap resident.
    EXPECT_LE(streamed.peak_resident_updates, 2) << GetParam().name;
  } else {
    EXPECT_THROW(world.Run(*streaming_algo, streaming_cfg),
                 std::invalid_argument)
        << GetParam().name;
  }

  // kAuto must resolve to a mode whose result the explicit modes reproduce.
  const auto auto_algo = GetParam().make();
  const SimulationResult via_auto = world.Run(*auto_algo, world.fl_config);
  EXPECT_EQ(via_auto.final_model.FlatParams(),
            materialized.final_model.FlatParams())
      << GetParam().name;
}

TEST_P(AlgorithmConformanceTest, ResumeFromMidRunCheckpointIsTransparent) {
  const ConformanceWorld& world = ConformanceWorld::Get();
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "pardon_conf_ckpt";
  for (const char c : GetParam().name) {
    dir += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FlConfig saving = world.fl_config;
  saving.checkpoint_every = 2;
  saving.checkpoint_dir = dir.string();
  const auto full_algo = GetParam().make();
  const SimulationResult uninterrupted = world.Run(*full_algo, saving);

  FlConfig resuming = world.fl_config;
  resuming.resume_from =
      (dir / CheckpointFileName(GetParam().name, world.fl_config.seed, 2))
          .string();
  const auto resumed_algo = GetParam().make();
  const SimulationResult resumed = world.Run(*resumed_algo, resuming);

  EXPECT_EQ(uninterrupted.final_model.FlatParams(),
            resumed.final_model.FlatParams())
      << GetParam().name;
  EXPECT_EQ(uninterrupted.final_accuracy, resumed.final_accuracy);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, AlgorithmConformanceTest,
    ::testing::ValuesIn(ConformanceMethods()),
    [](const ::testing::TestParamInfo<ConformanceMethod>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pardon::fl
