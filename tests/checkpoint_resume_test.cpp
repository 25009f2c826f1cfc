// Checkpoint/resume harness (docs/CHECKPOINTING.md): proves the contract
// that a run killed at any round boundary and resumed from its checkpoint is
// BITWISE identical to an uninterrupted run — for every algorithm, under a
// nonzero fault plan, in both aggregation modes, and across thread counts.
//
// Three layers of evidence:
//   1. In-process kill-point sweep: every method x every kill round, resumed
//      results compared bitwise against the uninterrupted run (parameters,
//      accuracies, recorder series, deterministic cost accounting).
//   2. Subprocess crash injection: a child run_experiment is SIGKILLed
//      mid-run and rerun with --resume; its results CSV must equal the
//      uninterrupted reference byte for byte.
//   3. Corruption robustness: every byte-truncation prefix and every
//      single-byte flip of a checkpoint file raises CheckpointError — never
//      a crash, never silently wrong state.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

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
#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define PARDON_HAVE_SUBPROCESS 1
#endif

namespace pardon::fl {
namespace {

using tensor::Pcg32;

// `make` comes first: gtest names each case after this struct's raw bytes,
// and a leading std::string would start every test name with a heap address
// that differs from run to run. A stateless lambda leaves the std::function's
// leading storage zeroed.
struct CheckpointMethod {
  std::function<std::unique_ptr<Algorithm>()> make;
  std::string name;
};

std::vector<CheckpointMethod> CheckpointMethods() {
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

// Mirrors the conformance world's geometry (small images keep FISC cheap)
// but runs under a nonzero fault plan — the contract must hold while
// no-shows, drops, corruption retries, and stragglers are all firing.
struct CheckpointWorld {
  CheckpointWorld() {
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
                         .faults = {.unavailability = 0.1,
                                    .dropout = 0.2,
                                    .corruption = 0.1,
                                    .straggler_fraction = 0.2},
                         .eval_every = 2,
                         .seed = 211};
  }

  static const CheckpointWorld& Get() {
    static const CheckpointWorld world;
    return world;
  }

  SimulationResult Run(Algorithm& algorithm, const FlConfig& config,
                       util::ThreadPool* pool = nullptr) const {
    const Simulator simulator(clients, config);
    nn::MlpClassifier model(model_config);
    return simulator.Run(algorithm, model, {{"eval", &eval}}, pool);
  }

  std::vector<data::Dataset> clients;
  data::Dataset eval;
  nn::MlpClassifier::Config model_config;
  FlConfig fl_config;
};

// Fresh directory per test so checkpoint files never cross-contaminate.
std::string FreshDir(const std::string& tag) {
  std::string name = tag;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("pardon_ckpt_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// The deterministic slice of CostBreakdown — counts and SIMULATED latencies,
// which the bitwise contract covers. Measured wall-clock fields
// (one_time/local_train/aggregate_seconds) accumulate real work across
// processes and are deliberately excluded (docs/CHECKPOINTING.md).
void ExpectDeterministicCostsEqual(const CostBreakdown& a,
                                   const CostBreakdown& b) {
  EXPECT_EQ(a.client_rounds, b.client_rounds);
  EXPECT_EQ(a.aggregate_rounds, b.aggregate_rounds);
  EXPECT_EQ(a.no_show_clients, b.no_show_clients);
  EXPECT_EQ(a.dropped_updates, b.dropped_updates);
  EXPECT_EQ(a.straggler_events, b.straggler_events);
  EXPECT_EQ(a.straggler_delay_seconds, b.straggler_delay_seconds);
  EXPECT_EQ(a.corrupted_messages, b.corrupted_messages);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.retry_backoff_seconds, b.retry_backoff_seconds);
  EXPECT_EQ(a.updates_lost_to_corruption, b.updates_lost_to_corruption);
  EXPECT_EQ(a.skipped_rounds, b.skipped_rounds);
  EXPECT_EQ(a.event_time_seconds, b.event_time_seconds);
}

void ExpectRecordersEqual(const metrics::Recorder& a,
                          const metrics::Recorder& b) {
  ASSERT_EQ(a.SeriesNames(), b.SeriesNames());
  for (const std::string& name : a.SeriesNames()) {
    EXPECT_EQ(a.Rounds(name), b.Rounds(name)) << name;
    EXPECT_EQ(a.Values(name), b.Values(name)) << name;
  }
}

void ExpectResultsBitwiseEqual(const SimulationResult& a,
                               const SimulationResult& b) {
  EXPECT_EQ(a.final_model.FlatParams(), b.final_model.FlatParams());
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  ExpectRecordersEqual(a.recorder, b.recorder);
  ExpectDeterministicCostsEqual(a.costs, b.costs);
}

// A small fully-populated checkpoint for format-level tests: exercises NaN
// payloads, -0.0, denormals, and infinities in the model parameters.
SimCheckpoint TinyCheckpoint() {
  SimCheckpoint ckpt;
  ckpt.config = FlConfig{};
  ckpt.config.faults = {.dropout = 0.25, .straggler_fraction = 0.1};
  ckpt.algorithm = "FedAvg";
  ckpt.round = 3;
  ckpt.global_params = {0.0f,
                        -0.0f,
                        1.5f,
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::max()};
  Pcg32 rng(99, 7);
  rng.NextU32();
  (void)rng.NextGaussian();  // leave a cached Box-Muller deviate behind
  ckpt.root_rng = rng.SaveState();
  ckpt.algorithm_state = {1, 2, 3, 4};
  ckpt.costs.client_rounds = 9;
  ckpt.costs.straggler_delay_seconds = 1.5;
  ckpt.costs.event_time_seconds = 2.25;
  ckpt.peak_resident_updates = 3;
  ckpt.recorder.Record("eval", 2, 0.5);
  ckpt.recorder.Record("eval", 3, 0.625);
  return ckpt;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Per-method properties.
// ---------------------------------------------------------------------------

class CheckpointResumeTest
    : public ::testing::TestWithParam<CheckpointMethod> {};

// The headline property: checkpoint every round, then for each kill point R
// resume from the round-R checkpoint and compare the full result bitwise
// against the uninterrupted run — under the nonzero fault plan.
TEST_P(CheckpointResumeTest, KillPointSweepMatchesUninterruptedUnderFaults) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("sweep_" + GetParam().name);

  FlConfig saving = world.fl_config;
  saving.checkpoint_every = 1;
  saving.checkpoint_dir = dir;
  const auto full_algo = GetParam().make();
  const SimulationResult uninterrupted = world.Run(*full_algo, saving);

  for (int kill_round = 1; kill_round < world.fl_config.rounds;
       ++kill_round) {
    FlConfig resuming = world.fl_config;
    resuming.resume_from =
        (std::filesystem::path(dir) /
         CheckpointFileName(GetParam().name, world.fl_config.seed,
                            kill_round))
            .string();
    ASSERT_TRUE(std::filesystem::exists(resuming.resume_from))
        << GetParam().name << " round " << kill_round;
    const auto resumed_algo = GetParam().make();
    const SimulationResult resumed = world.Run(*resumed_algo, resuming);
    SCOPED_TRACE(GetParam().name + " killed after round " +
                 std::to_string(kill_round));
    ExpectResultsBitwiseEqual(uninterrupted, resumed);
  }
  std::filesystem::remove_all(dir);
}

// Turning checkpointing on must not perturb the run at all.
TEST_P(CheckpointResumeTest, CheckpointingIsBitwiseNeutral) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("neutral_" + GetParam().name);

  const auto plain_algo = GetParam().make();
  const SimulationResult plain = world.Run(*plain_algo, world.fl_config);

  FlConfig saving = world.fl_config;
  saving.checkpoint_every = 1;
  saving.checkpoint_dir = dir;
  const auto saving_algo = GetParam().make();
  const SimulationResult saved = world.Run(*saving_algo, saving);

  ExpectResultsBitwiseEqual(plain, saved);
  std::filesystem::remove_all(dir);
}

// Algorithm round state (FPL prototypes, FedDG-GA weights; empty for the
// stateless methods) must survive a save/load cycle exactly.
TEST_P(CheckpointResumeTest, RoundStateRoundTripsThroughSaveLoad) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const auto trained = GetParam().make();
  (void)world.Run(*trained, world.fl_config);
  const std::vector<std::uint8_t> blob = trained->SaveRoundState();

  const auto restored = GetParam().make();
  const FlContext context{.client_data = &world.clients,
                          .initial_model = nullptr,
                          .config = world.fl_config,
                          .pool = nullptr};
  restored->Setup(context);
  restored->LoadRoundState(blob);
  EXPECT_EQ(restored->SaveRoundState(), blob) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CheckpointResumeTest,
    ::testing::ValuesIn(CheckpointMethods()),
    [](const ::testing::TestParamInfo<CheckpointMethod>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Aggregation modes and thread counts.
// ---------------------------------------------------------------------------

TEST(CheckpointResumeModes, ResumeMatchesUninterruptedInBothAggregationModes) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  for (const AggregationMode mode :
       {AggregationMode::kStreaming, AggregationMode::kMaterialized}) {
    const std::string dir = FreshDir(
        mode == AggregationMode::kStreaming ? "mode_stream" : "mode_mat");
    FlConfig config = world.fl_config;
    config.aggregation = mode;
    config.max_inflight_updates = 2;
    config.checkpoint_every = 1;
    config.checkpoint_dir = dir;
    baselines::FedAvg full;
    const SimulationResult uninterrupted = world.Run(full, config);

    FlConfig resuming = config;
    resuming.checkpoint_every = 0;
    resuming.checkpoint_dir.clear();
    resuming.resume_from =
        (std::filesystem::path(dir) /
         CheckpointFileName("FedAvg", config.seed, 2))
            .string();
    baselines::FedAvg half;
    const SimulationResult resumed = world.Run(half, resuming);
    SCOPED_TRACE(mode == AggregationMode::kStreaming ? "streaming"
                                                     : "materialized");
    ExpectResultsBitwiseEqual(uninterrupted, resumed);
    std::filesystem::remove_all(dir);
  }
}

// Save under a 4-thread pool, resume serially — and the reverse. The RNG
// fork schedule is thread-invariant, so all four runs agree bitwise.
TEST(CheckpointResumeModes, ResumeIsThreadCountInvariant) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  util::ThreadPool pool(4);

  const std::string dir_serial = FreshDir("threads_serial");
  const std::string dir_pool = FreshDir("threads_pool");
  FlConfig saving = world.fl_config;
  saving.checkpoint_every = 2;

  saving.checkpoint_dir = dir_serial;
  baselines::FedSr serial_full;
  const SimulationResult serial =
      world.Run(serial_full, saving, /*pool=*/nullptr);

  saving.checkpoint_dir = dir_pool;
  baselines::FedSr pool_full;
  const SimulationResult threaded = world.Run(pool_full, saving, &pool);

  ExpectResultsBitwiseEqual(serial, threaded);

  FlConfig resuming = world.fl_config;
  // Saved with 4 threads, resumed serially.
  resuming.resume_from = (std::filesystem::path(dir_pool) /
                          CheckpointFileName("FedSR", saving.seed, 2))
                             .string();
  baselines::FedSr cross_a;
  const SimulationResult resumed_serial =
      world.Run(cross_a, resuming, /*pool=*/nullptr);
  ExpectResultsBitwiseEqual(serial, resumed_serial);

  // Saved serially, resumed with 4 threads.
  resuming.resume_from = (std::filesystem::path(dir_serial) /
                          CheckpointFileName("FedSR", saving.seed, 2))
                             .string();
  baselines::FedSr cross_b;
  const SimulationResult resumed_threaded =
      world.Run(cross_b, resuming, &pool);
  ExpectResultsBitwiseEqual(serial, resumed_threaded);

  std::filesystem::remove_all(dir_serial);
  std::filesystem::remove_all(dir_pool);
}

// ---------------------------------------------------------------------------
// Cadence, latest-checkpoint discovery, and end-of-run behavior.
// ---------------------------------------------------------------------------

TEST(CheckpointCadence, EveryTwoRoundsWritesExpectedFiles) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("cadence");
  FlConfig config = world.fl_config;
  config.checkpoint_every = 2;
  config.checkpoint_dir = dir;
  baselines::FedAvg algo;
  (void)world.Run(algo, config);

  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / CheckpointFileName("FedAvg", 211, 1)));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / CheckpointFileName("FedAvg", 211, 2)));
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / CheckpointFileName("FedAvg", 211, 3)));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / CheckpointFileName("FedAvg", 211, 4)));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointCadence, ResumeLatestScansDirectoryAndResumesBitwise) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("latest");
  FlConfig saving = world.fl_config;
  saving.checkpoint_every = 1;
  saving.checkpoint_dir = dir;
  baselines::FedAvg full;
  const SimulationResult uninterrupted = world.Run(full, saving);

  // Drop the final checkpoints so "latest" lands mid-run, as after a crash.
  std::filesystem::remove(std::filesystem::path(dir) /
                          CheckpointFileName("FedAvg", 211, 3));
  std::filesystem::remove(std::filesystem::path(dir) /
                          CheckpointFileName("FedAvg", 211, 4));

  FlConfig resuming = world.fl_config;
  resuming.checkpoint_dir = dir;
  resuming.resume_latest = true;
  baselines::FedAvg crashed;
  const SimulationResult resumed = world.Run(crashed, resuming);
  ExpectResultsBitwiseEqual(uninterrupted, resumed);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointCadence, ResumeLatestWithEmptyDirStartsFresh) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("fresh");
  baselines::FedAvg plain;
  const SimulationResult reference = world.Run(plain, world.fl_config);

  FlConfig resuming = world.fl_config;
  resuming.checkpoint_dir = dir;
  resuming.resume_latest = true;  // nothing there yet -> fresh start
  baselines::FedAvg fresh;
  const SimulationResult run = world.Run(fresh, resuming);
  ExpectResultsBitwiseEqual(reference, run);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointCadence, ResumeFromFinalRoundRunsNoFurtherRounds) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("final");
  FlConfig saving = world.fl_config;
  saving.checkpoint_every = 1;
  saving.checkpoint_dir = dir;
  baselines::FedAvg full;
  const SimulationResult uninterrupted = world.Run(full, saving);

  FlConfig resuming = world.fl_config;
  resuming.resume_from = (std::filesystem::path(dir) /
                          CheckpointFileName("FedAvg", 211, 4))
                             .string();
  baselines::FedAvg done;
  const SimulationResult resumed = world.Run(done, resuming);
  ExpectResultsBitwiseEqual(uninterrupted, resumed);
  // No additional client training happened on resume.
  EXPECT_EQ(resumed.costs.client_rounds, uninterrupted.costs.client_rounds);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointCadence, ResumingAnEarlyStoppedRunStopsAgain) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("target");
  FlConfig config = world.fl_config;
  config.eval_every = 1;
  config.target_accuracy = 1e-9;  // any evaluation reaches it -> stop at r1
  config.checkpoint_every = 1;
  config.checkpoint_dir = dir;
  baselines::FedAvg full;
  const SimulationResult stopped = world.Run(full, config);
  ASSERT_LT(stopped.costs.aggregate_rounds, config.rounds);

  FlConfig resuming = config;
  resuming.checkpoint_every = 0;
  resuming.checkpoint_dir.clear();
  resuming.resume_from =
      (std::filesystem::path(dir) / CheckpointFileName("FedAvg", 211, 1))
          .string();
  baselines::FedAvg again;
  const SimulationResult resumed = world.Run(again, resuming);
  // The restored recorder already meets the target: no further rounds run.
  EXPECT_EQ(resumed.costs.client_rounds, stopped.costs.client_rounds);
  ExpectResultsBitwiseEqual(stopped, resumed);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDiscovery, FindLatestPicksHighestRoundAndFiltersNoise) {
  const std::string dir = FreshDir("discovery");
  const auto touch = [&](const std::string& name) {
    std::ofstream(std::filesystem::path(dir) / name).put('x');
  };
  touch(CheckpointFileName("FedAvg", 211, 2));
  touch(CheckpointFileName("FedAvg", 211, 10));
  touch(CheckpointFileName("FedAvg", 211, 7));
  touch(CheckpointFileName("FedAvg", 211, 12) + ".tmp");  // interrupted save
  touch(CheckpointFileName("FedAvg", 212, 30));           // other seed
  touch(CheckpointFileName("FedSR", 211, 30));            // other algorithm
  touch("garbage.ckpt");

  const auto latest = FindLatestCheckpoint(dir, "FedAvg", 211);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(std::filesystem::path(*latest).filename().string(),
            CheckpointFileName("FedAvg", 211, 10));
  EXPECT_FALSE(FindLatestCheckpoint(dir, "FedGMA", 211).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDiscovery, MissingDirectoryYieldsNoCheckpoint) {
  EXPECT_FALSE(FindLatestCheckpoint("/nonexistent/pardon/ckpts", "FedAvg", 1)
                   .has_value());
}

TEST(CheckpointDiscovery, FileNameSanitizesAlgorithmNames) {
  EXPECT_EQ(CheckpointFileName("FedDG-GA", 41, 3),
            "sim_FedDG_GA_s41_r000003.ckpt");
}

// ---------------------------------------------------------------------------
// Resume validation: a checkpoint must only resume the run that wrote it.
// ---------------------------------------------------------------------------

class CheckpointValidation : public ::testing::Test {
 protected:
  SimCheckpoint MakeSaved() {
    const CheckpointWorld& world = CheckpointWorld::Get();
    SimCheckpoint ckpt = TinyCheckpoint();
    ckpt.config = world.fl_config;
    ckpt.algorithm = "FedAvg";
    ckpt.round = 2;
    ckpt.global_params.assign(128, 0.5f);
    ckpt.algorithm_state.clear();
    return ckpt;
  }
};

TEST_F(CheckpointValidation, AcceptsTheRunThatWroteIt) {
  const SimCheckpoint ckpt = MakeSaved();
  EXPECT_NO_THROW(
      ValidateForResume(ckpt, ckpt.config, "FedAvg", /*param_count=*/128));
}

TEST_F(CheckpointValidation, RejectsAlgorithmMismatch) {
  const SimCheckpoint ckpt = MakeSaved();
  try {
    ValidateForResume(ckpt, ckpt.config, "FedSR", 128);
    FAIL() << "algorithm mismatch not detected";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("algorithm"), std::string::npos);
  }
}

TEST_F(CheckpointValidation, RejectsParamCountMismatch) {
  const SimCheckpoint ckpt = MakeSaved();
  try {
    ValidateForResume(ckpt, ckpt.config, "FedAvg", 129);
    FAIL() << "parameter count mismatch not detected";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("parameter count"),
              std::string::npos);
  }
}

TEST_F(CheckpointValidation, RejectsConfigMismatchNamingTheField) {
  const SimCheckpoint ckpt = MakeSaved();
  struct Case {
    std::string field;
    std::function<void(FlConfig&)> mutate;
  };
  const std::vector<Case> cases = {
      {"seed", [](FlConfig& c) { c.seed += 1; }},
      {"rounds", [](FlConfig& c) { c.rounds += 1; }},
      {"participants_per_round", [](FlConfig& c) { c.participants_per_round = 2; }},
      {"optimizer.lr", [](FlConfig& c) { c.optimizer.lr *= 2.0f; }},
      {"faults.dropout", [](FlConfig& c) { c.faults.dropout += 0.05; }},
      {"faults.salt", [](FlConfig& c) { c.faults.salt += 1; }},
      {"aggregation",
       [](FlConfig& c) { c.aggregation = AggregationMode::kMaterialized; }},
      {"eval_every", [](FlConfig& c) { c.eval_every += 1; }},
      {"target_accuracy", [](FlConfig& c) { c.target_accuracy = 0.9; }},
  };
  for (const Case& test_case : cases) {
    FlConfig run = ckpt.config;
    test_case.mutate(run);
    try {
      ValidateForResume(ckpt, run, "FedAvg", 128);
      FAIL() << test_case.field << " mismatch not detected";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(test_case.field),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CheckpointValidation, ChangingCheckpointCadenceIsLegal) {
  const SimCheckpoint ckpt = MakeSaved();
  FlConfig run = ckpt.config;
  run.checkpoint_every = 7;
  run.checkpoint_dir = "elsewhere";
  run.resume_latest = true;
  EXPECT_NO_THROW(ValidateForResume(ckpt, run, "FedAvg", 128));
}

TEST_F(CheckpointValidation, RejectsRoundBeyondConfiguredRounds) {
  SimCheckpoint ckpt = MakeSaved();
  ckpt.round = ckpt.config.rounds + 1;
  EXPECT_THROW(ValidateForResume(ckpt, ckpt.config, "FedAvg", 128),
               CheckpointError);
}

TEST_F(CheckpointValidation, SimulatorRejectsMismatchedResume) {
  const CheckpointWorld& world = CheckpointWorld::Get();
  const std::string dir = FreshDir("reject");
  FlConfig saving = world.fl_config;
  saving.checkpoint_every = 1;
  saving.checkpoint_dir = dir;
  baselines::FedAvg algo;
  (void)world.Run(algo, saving);

  FlConfig resuming = world.fl_config;
  resuming.resume_from = (std::filesystem::path(dir) /
                          CheckpointFileName("FedAvg", 211, 2))
                             .string();
  baselines::FedSr other;  // same file, different algorithm
  EXPECT_THROW(world.Run(other, resuming), CheckpointError);

  resuming.faults.dropout = 0.0;  // same algorithm, different fault plan
  baselines::FedAvg same;
  EXPECT_THROW(world.Run(same, resuming), CheckpointError);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Format robustness: corrupted files must fail closed.
// ---------------------------------------------------------------------------

TEST(CheckpointFormat, SerializeParseRoundTripsEveryField) {
  const SimCheckpoint ckpt = TinyCheckpoint();
  const std::vector<std::uint8_t> bytes = SerializeSimCheckpoint(ckpt);
  const SimCheckpoint back = ParseSimCheckpoint(bytes);

  EXPECT_EQ(back.algorithm, ckpt.algorithm);
  EXPECT_EQ(back.round, ckpt.round);
  EXPECT_TRUE(BitwiseEqual(back.global_params, ckpt.global_params))
      << "float payload must round-trip bitwise (incl. NaN, -0.0, denormal)";
  EXPECT_EQ(back.root_rng.state, ckpt.root_rng.state);
  EXPECT_EQ(back.root_rng.inc, ckpt.root_rng.inc);
  EXPECT_EQ(back.root_rng.has_cached_gaussian,
            ckpt.root_rng.has_cached_gaussian);
  EXPECT_EQ(back.root_rng.cached_gaussian, ckpt.root_rng.cached_gaussian);
  EXPECT_EQ(back.algorithm_state, ckpt.algorithm_state);
  EXPECT_EQ(back.costs.client_rounds, ckpt.costs.client_rounds);
  EXPECT_EQ(back.costs.straggler_delay_seconds,
            ckpt.costs.straggler_delay_seconds);
  EXPECT_EQ(back.costs.event_time_seconds, ckpt.costs.event_time_seconds);
  EXPECT_EQ(back.peak_resident_updates, ckpt.peak_resident_updates);
  ExpectRecordersEqual(back.recorder, ckpt.recorder);
  EXPECT_EQ(back.config.seed, ckpt.config.seed);
  EXPECT_EQ(back.config.faults.dropout, ckpt.config.faults.dropout);
}

TEST(CheckpointFormat, RestoredRngContinuesTheExactStream) {
  Pcg32 original(1234, 56);
  (void)original.NextGaussian();  // populate the Box-Muller cache
  Pcg32 restored = Pcg32::FromState(original.SaveState());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(original.NextU32(), restored.NextU32()) << i;
  }
  // The cached deviate itself must also survive.
  Pcg32 a(9, 9);
  (void)a.NextGaussian();
  Pcg32 c = Pcg32::FromState(a.SaveState());
  EXPECT_EQ(a.NextGaussian(), c.NextGaussian());
}

TEST(CheckpointFormat, EveryTruncationPrefixFailsCleanly) {
  const std::vector<std::uint8_t> bytes =
      SerializeSimCheckpoint(TinyCheckpoint());
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_THROW(
        (void)ParseSimCheckpoint({bytes.data(), length}), CheckpointError)
        << "prefix of " << length << " bytes parsed without error";
  }
}

TEST(CheckpointFormat, EverySingleByteFlipFailsCleanly) {
  const std::vector<std::uint8_t> bytes =
      SerializeSimCheckpoint(TinyCheckpoint());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupted = bytes;
    corrupted[i] ^= 0xFF;
    EXPECT_THROW((void)ParseSimCheckpoint(corrupted), CheckpointError)
        << "flip at byte " << i << " parsed without error";
  }
}

TEST(CheckpointFormat, ZeroLengthAndMissingFilesFailCleanly) {
  EXPECT_THROW((void)ParseSimCheckpoint({}), CheckpointError);
  EXPECT_THROW((void)LoadSimCheckpoint("/nonexistent/pardon.ckpt"),
               CheckpointError);

  const std::string dir = FreshDir("zero");
  const std::string path = (std::filesystem::path(dir) / "empty.ckpt").string();
  std::ofstream(path).flush();
  EXPECT_THROW((void)LoadSimCheckpoint(path), CheckpointError);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFormat, WrongMagicAndVersionGiveDescriptiveErrors) {
  std::vector<std::uint8_t> bytes = SerializeSimCheckpoint(TinyCheckpoint());
  {
    std::vector<std::uint8_t> wrong = bytes;
    wrong[0] = 'X';
    try {
      (void)ParseSimCheckpoint(wrong);
      FAIL() << "bad magic accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
  }
  {
    std::vector<std::uint8_t> wrong = bytes;
    wrong[4] = 99;  // version field
    try {
      (void)ParseSimCheckpoint(wrong);
      FAIL() << "future version accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
}

TEST(CheckpointFormat, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = SerializeSimCheckpoint(TinyCheckpoint());
  bytes.push_back(0);
  EXPECT_THROW((void)ParseSimCheckpoint(bytes), CheckpointError);
}

TEST(CheckpointFormat, SaveIsAtomicAndLeavesNoTempFileBehind) {
  const std::string dir = FreshDir("atomic");
  const std::string path = (std::filesystem::path(dir) / "a.ckpt").string();
  SaveSimCheckpoint(path, TinyCheckpoint());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const SimCheckpoint back = LoadSimCheckpoint(path);
  EXPECT_EQ(back.round, TinyCheckpoint().round);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFormat, CorruptedAlgorithmStateBlobsAreRejected) {
  // A stateless method must refuse a checkpoint that carries state for a
  // stateful one — silently ignoring it would resume the wrong run.
  baselines::FedAvg stateless;
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  EXPECT_THROW(stateless.LoadRoundState(junk), CheckpointError);

  // Stateful loaders bounds-check their blobs.
  baselines::Fpl fpl;
  EXPECT_THROW(fpl.LoadRoundState(junk), CheckpointError);
  baselines::FedDgGa ga;
  EXPECT_THROW(ga.LoadRoundState(junk), CheckpointError);

  // And round-trip their own output.
  baselines::FedDgGa source;
  const CheckpointWorld& world = CheckpointWorld::Get();
  (void)world.Run(source, world.fl_config);
  const std::vector<std::uint8_t> blob = source.SaveRoundState();
  baselines::FedDgGa sink;
  sink.LoadRoundState(blob);
  EXPECT_EQ(sink.SaveRoundState(), blob);
}

// FNV-1a over the size and the bytes: a digest that pins the byte layout.
std::uint64_t LayoutDigest(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint8_t b) {
    hash = (hash ^ b) * 0x100000001b3ULL;
  };
  for (int i = 0; i < 8; ++i) {
    mix(static_cast<std::uint8_t>(bytes.size() >> (8 * i)));
  }
  for (const std::uint8_t b : bytes) mix(b);
  return hash;
}

// Restores the process-wide GEMM backend when the test ends.
class GemmBackendGuard {
 public:
  GemmBackendGuard() : backend_(tensor::ActiveGemmBackend()) {}
  ~GemmBackendGuard() { tensor::SetGemmBackend(backend_); }

 private:
  tensor::GemmBackend backend_;
};

// Golden bytes: the on-disk layout of a checkpoint and of the stateful
// methods' round-state blobs is a compatibility contract (a checkpoint
// written by one build must load in the next), so the digests are pinned,
// not just round-tripped. The trained blobs are produced under the naive
// GEMM backend, whose results do not depend on the CPU's vector units.
TEST(CheckpointFormat, GoldenBytesArePinned) {
  SimCheckpoint ckpt = TinyCheckpoint();
  ckpt.config.seed = 0x0123456789abcdefULL;
  ckpt.config.optimizer.momentum = 0.875f;
  ckpt.config.faults.salt = 0xfeedfacecafebeefULL;
  ckpt.config.aggregation = AggregationMode::kMaterialized;
  ckpt.costs.one_time_seconds = 0.5;
  ckpt.costs.retransmissions = -7;
  ckpt.costs.skipped_rounds = 1LL << 40;
  ckpt.recorder.Record("val/acc", 1, -0.0);
  const std::vector<std::uint8_t> bytes = SerializeSimCheckpoint(ckpt);
  EXPECT_EQ(bytes.size(), 425u);
  EXPECT_EQ(LayoutDigest(bytes), 0x3b1e5fcdf819ddf5ULL)
      << std::hex << LayoutDigest(bytes);

  GemmBackendGuard guard;
  tensor::SetGemmBackend(tensor::GemmBackend::kNaive);
  const CheckpointWorld& world = CheckpointWorld::Get();

  baselines::Fpl fpl;
  (void)world.Run(fpl, world.fl_config);
  const std::vector<std::uint8_t> fpl_state = fpl.SaveRoundState();
  EXPECT_EQ(fpl_state.size(), 136u);
  EXPECT_EQ(LayoutDigest(fpl_state), 0x07b023c1b5774efdULL)
      << std::hex << LayoutDigest(fpl_state);

  baselines::FedDgGa ga;
  (void)world.Run(ga, world.fl_config);
  const std::vector<std::uint8_t> ga_state = ga.SaveRoundState();
  EXPECT_EQ(ga_state.size(), 76u);
  EXPECT_EQ(LayoutDigest(ga_state), 0x0e5f868c9782519eULL)
      << std::hex << LayoutDigest(ga_state);
}

// ---------------------------------------------------------------------------
// Subprocess crash injection: SIGKILL a real run_experiment mid-run, rerun
// with --resume, and demand the byte-identical results CSV.
// ---------------------------------------------------------------------------

#if defined(PARDON_HAVE_SUBPROCESS) && defined(PARDON_RUN_EXPERIMENT_BIN)

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Spawns run_experiment with the given extra flags; returns its pid.
pid_t SpawnRunExperiment(const std::string& config_path,
                         const std::vector<std::string>& extra) {
  std::vector<std::string> args = {PARDON_RUN_EXPERIMENT_BIN,
                                   "--config=" + config_path};
  args.insert(args.end(), extra.begin(), extra.end());
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: silence stdout so test output stays readable.
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

TEST(CheckpointCrashRecovery, KilledRunResumesToIdenticalResults) {
  const std::string work = FreshDir("crash");
  const std::filesystem::path base(work);
  const std::string config_path = (base / "experiment.ini").string();
  {
    std::ofstream config(config_path);
    // ~35 ms per round: slow enough that the parent reliably sees the
    // round-2 checkpoint and lands the SIGKILL with most rounds unrun.
    config << "[dataset]\n"
              "preset = pacs\n"
              "samples_per_train_domain = 2000\n"
              "samples_per_eval_domain = 60\n"
              "[fl]\n"
              "clients = 6\n"
              "participants = 3\n"
              "rounds = 30\n"
              "lr = 0.003\n"
              "seed = 7\n"
              "[methods]\n"
              "run = FedSR\n";
  }

  // Uninterrupted reference run.
  const std::string ref_csv = (base / "reference.csv").string();
  {
    const pid_t pid = SpawnRunExperiment(config_path, {"--out=" + ref_csv});
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "reference run failed";
  }

  // Checkpointed run, SIGKILLed once at least two rounds are on disk.
  const std::string ckpt_dir = (base / "ckpts").string();
  const pid_t victim = SpawnRunExperiment(
      config_path, {"--checkpoint-dir=" + ckpt_dir, "--checkpoint-every=1"});
  ASSERT_GT(victim, 0);
  bool killed_midway = false;
  for (int i = 0; i < 4000; ++i) {  // up to ~20 s
    int status = 0;
    if (waitpid(victim, &status, WNOHANG) == victim) break;  // finished early
    const auto latest = FindLatestCheckpoint(ckpt_dir, "FedSR", 7);
    if (latest.has_value() &&
        std::filesystem::path(*latest).filename().string() >=
            CheckpointFileName("FedSR", 7, 2)) {
      kill(victim, SIGKILL);
      int ignored = 0;
      waitpid(victim, &ignored, 0);
      killed_midway = true;
      break;
    }
    usleep(5000);
  }
  EXPECT_TRUE(killed_midway)
      << "child finished all rounds before the kill landed — the scenario "
         "needs to be slower for this host";
  // Either way at least one complete checkpoint must exist, and discovery
  // must point at a real ".ckpt" — atomic saves mean a kill can leave at
  // worst a stale "*.tmp", which discovery never matches.
  const auto survivor = FindLatestCheckpoint(ckpt_dir, "FedSR", 7);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(std::filesystem::path(*survivor).extension(), ".ckpt");
  EXPECT_NO_THROW((void)LoadSimCheckpoint(*survivor))
      << "the checkpoint the kill left behind must be complete";

  // Resume and demand the byte-identical CSV.
  const std::string resumed_csv = (base / "resumed.csv").string();
  {
    const pid_t pid = SpawnRunExperiment(
        config_path, {"--checkpoint-dir=" + ckpt_dir, "--checkpoint-every=1",
                      "--resume", "--out=" + resumed_csv});
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "resumed run failed";
  }
  const std::string reference = ReadWholeFile(ref_csv);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, ReadWholeFile(resumed_csv))
      << "resumed run diverged from the uninterrupted reference";
  std::filesystem::remove_all(work);
}

#else

TEST(CheckpointCrashRecovery, KilledRunResumesToIdenticalResults) {
  GTEST_SKIP() << "subprocess crash test needs POSIX and the run_experiment "
                  "binary (PARDON_BUILD_BENCH=ON)";
}

#endif

}  // namespace
}  // namespace pardon::fl
