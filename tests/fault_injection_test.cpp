// Fault-injection layer tests: FaultPlan parsing/validation, FaultInjector
// determinism, CRC framing, availability-aware sampling, and — the contract
// everything else rests on — a zero-fault plan leaving the simulation
// bitwise identical to a run without the injector.
#include <gtest/gtest.h>

#include <set>
#include <span>

#include "baselines/fedavg.hpp"
#include "data/domain_generator.hpp"
#include "data/partition.hpp"
#include "fl/comm.hpp"
#include "fl/fault.hpp"
#include "fl/sampler.hpp"
#include "fl/simulator.hpp"
#include "util/config.hpp"

namespace pardon::fl {
namespace {

using tensor::Pcg32;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ZeroPlanIsDisabled) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.Enabled());
  EXPECT_NO_THROW(plan.Validate());
}

TEST(FaultPlan, AnyPositiveProbabilityEnables) {
  FaultPlan plan;
  plan.dropout = 0.1;
  EXPECT_TRUE(plan.Enabled());
  plan = {};
  plan.unavailability = 0.1;
  EXPECT_TRUE(plan.Enabled());
  plan = {};
  plan.corruption = 0.1;
  EXPECT_TRUE(plan.Enabled());
  plan = {};
  plan.straggler_fraction = 0.1;
  EXPECT_TRUE(plan.Enabled());
}

TEST(FaultPlan, ValidateRejectsBadValues) {
  FaultPlan plan;
  plan.dropout = 1.5;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
  plan = {};
  plan.unavailability = -0.1;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
  plan = {};
  plan.max_retries = -1;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
  plan = {};
  plan.retry_backoff_seconds = -1.0;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
  plan = {};
  plan.straggler_delay_seconds = -0.5;
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
}

TEST(FaultPlan, ParsesFromConfigSection) {
  const util::Config config = util::Config::Parse(
      "[faults]\n"
      "unavailability = 0.05\n"
      "dropout = 0.3\n"
      "corruption = 0.1\n"
      "max_retries = 4\n"
      "retry_backoff_seconds = 0.25\n"
      "straggler_fraction = 0.2\n"
      "straggler_delay_seconds = 1.5\n"
      "salt = 18446744073709551615\n");  // UINT64_MAX: needs GetUint64
  const FaultPlan plan = FaultPlanFromConfig(config);
  EXPECT_DOUBLE_EQ(plan.unavailability, 0.05);
  EXPECT_DOUBLE_EQ(plan.dropout, 0.3);
  EXPECT_DOUBLE_EQ(plan.corruption, 0.1);
  EXPECT_EQ(plan.max_retries, 4);
  EXPECT_DOUBLE_EQ(plan.retry_backoff_seconds, 0.25);
  EXPECT_DOUBLE_EQ(plan.straggler_fraction, 0.2);
  EXPECT_DOUBLE_EQ(plan.straggler_delay_seconds, 1.5);
  EXPECT_EQ(plan.salt, ~std::uint64_t{0});
}

TEST(FaultPlan, MissingSectionKeepsDefaults) {
  const util::Config config = util::Config::Parse("[other]\nkey = 1\n");
  const FaultPlan plan = FaultPlanFromConfig(config);
  EXPECT_FALSE(plan.Enabled());
  EXPECT_EQ(plan.max_retries, FaultPlan{}.max_retries);
}

TEST(FaultPlan, ParseValidatesValues) {
  const util::Config config =
      util::Config::Parse("[faults]\ndropout = 2.0\n");
  EXPECT_THROW(FaultPlanFromConfig(config), std::invalid_argument);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, DecisionsAreDeterministicAcrossInstances) {
  FaultPlan plan;
  plan.unavailability = 0.2;
  plan.dropout = 0.3;
  plan.corruption = 0.25;
  plan.straggler_fraction = 0.15;
  const FaultInjector a(plan, 99);
  const FaultInjector b(plan, 99);
  for (int round = 1; round <= 20; ++round) {
    for (int client = 0; client < 10; ++client) {
      EXPECT_EQ(a.Unavailable(round, client), b.Unavailable(round, client));
      EXPECT_EQ(a.DropsUpdate(round, client), b.DropsUpdate(round, client));
      EXPECT_EQ(a.IsStraggler(round, client), b.IsStraggler(round, client));
      EXPECT_EQ(a.CorruptsTransmission(round, client, 1),
                b.CorruptsTransmission(round, client, 1));
    }
  }
}

TEST(FaultInjector, FrequenciesMatchPlanProbabilities) {
  FaultPlan plan;
  plan.dropout = 0.3;
  const FaultInjector injector(plan, 7);
  int drops = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (injector.DropsUpdate(i / 100 + 1, i % 100)) ++drops;
  }
  const double rate = static_cast<double>(drops) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultInjector, SaltAndSeedChangeTheSchedule) {
  FaultPlan plan;
  plan.dropout = 0.5;
  FaultPlan salted = plan;
  salted.salt = 1234;
  const FaultInjector base(plan, 7);
  const FaultInjector reseeded(plan, 8);
  const FaultInjector resalted(salted, 7);
  int differs_seed = 0, differs_salt = 0;
  for (int i = 0; i < 200; ++i) {
    const int round = i / 10 + 1, client = i % 10;
    if (base.DropsUpdate(round, client) != reseeded.DropsUpdate(round, client))
      ++differs_seed;
    if (base.DropsUpdate(round, client) != resalted.DropsUpdate(round, client))
      ++differs_salt;
  }
  EXPECT_GT(differs_seed, 0);
  EXPECT_GT(differs_salt, 0);
}

TEST(FaultInjector, ExtremeProbabilitiesNeedNoRng) {
  FaultPlan plan;
  plan.dropout = 1.0;
  const FaultInjector always(plan, 1);
  EXPECT_TRUE(always.DropsUpdate(1, 0));
  EXPECT_FALSE(always.Unavailable(1, 0));  // probability 0
}

TEST(FaultInjector, CorruptBytesAlwaysChangesNonEmptyInput) {
  const FaultInjector injector(FaultPlan{}, 3);
  for (int attempt = 0; attempt < 10; ++attempt) {
    std::vector<std::uint8_t> bytes(32, 0xab);
    const std::vector<std::uint8_t> original = bytes;
    injector.CorruptBytes(bytes, 1, 2, attempt);
    EXPECT_NE(bytes, original);
    EXPECT_EQ(bytes.size(), original.size());
  }
  std::vector<std::uint8_t> empty;
  injector.CorruptBytes(empty, 1, 2, 0);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultInjector, BackoffDoublesPerAttempt) {
  FaultPlan plan;
  plan.retry_backoff_seconds = 0.05;
  const FaultInjector injector(plan, 1);
  EXPECT_DOUBLE_EQ(injector.RetryBackoffSeconds(0), 0.05);
  EXPECT_DOUBLE_EQ(injector.RetryBackoffSeconds(1), 0.10);
  EXPECT_DOUBLE_EQ(injector.RetryBackoffSeconds(3), 0.40);
}

// ---------------------------------------------------------- integrity frame

TEST(CommFraming, Crc32MatchesKnownVector) {
  const std::string check = "123456789";
  const std::vector<std::uint8_t> bytes(check.begin(), check.end());
  EXPECT_EQ(Crc32(bytes), 0xcbf43926u);
  EXPECT_EQ(Crc32(std::vector<std::uint8_t>{}), 0u);
}

// Bit-at-a-time CRC-32 state update: the definition, independent of both
// the table and the carryless-multiply fold.
std::uint32_t BitwiseCrcUpdate(std::uint32_t crc, std::uint8_t byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
  }
  return crc;
}

std::uint32_t BitwiseCrc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t byte : bytes) crc = BitwiseCrcUpdate(crc, byte);
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.NextU32());
  return bytes;
}

// Crc32 folds inputs of 64 bytes or more with carryless multiplies where the
// CPU allows; both it and the table loop must equal the bitwise definition
// at every length around the 16-byte block and 64-byte fold boundaries, at
// every alignment.
TEST(CommFraming, Crc32MatchesBitwiseReference) {
  constexpr std::size_t kMaxLen = 4096;
  constexpr std::size_t kOffsets = 16;
  const std::vector<std::uint8_t> buffer = RandomBytes(kMaxLen + kOffsets, 11);
  const std::span<const std::uint8_t> all(buffer);
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    std::uint32_t state = 0xffffffffu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) state = BitwiseCrcUpdate(state, buffer[offset + len - 1]);
      const std::uint32_t expected = state ^ 0xffffffffu;
      const auto input = all.subspan(offset, len);
      ASSERT_EQ(Crc32(input), expected)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(internal::Crc32Portable(input), expected)
          << "offset " << offset << " length " << len;
    }
  }

  const std::vector<std::uint8_t> large = RandomBytes(65553, 12);
  for (std::size_t len = 65519; len <= 65553; ++len) {
    const auto input = std::span<const std::uint8_t>(large).first(len);
    const std::uint32_t expected = BitwiseCrc32(input);
    EXPECT_EQ(Crc32(input), expected) << "length " << len;
    EXPECT_EQ(internal::Crc32Portable(input), expected) << "length " << len;
  }

  const std::vector<std::uint8_t> mib = RandomBytes(std::size_t{1} << 20, 13);
  const std::uint32_t expected = BitwiseCrc32(mib);
  EXPECT_EQ(Crc32(mib), expected);
  EXPECT_EQ(internal::Crc32Portable(mib), expected);
}

TEST(CommFraming, RoundTripsPayload) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 77};
  const std::vector<std::uint8_t> framed = FrameMessage(payload);
  EXPECT_EQ(framed.size(), payload.size() + 8);
  const auto unframed = UnframeMessage(framed);
  ASSERT_TRUE(unframed.has_value());
  EXPECT_EQ(*unframed, payload);
}

TEST(CommFraming, DetectsEverySingleByteFlip) {
  const std::vector<std::uint8_t> payload = {10, 20, 30, 40};
  const std::vector<std::uint8_t> framed = FrameMessage(payload);
  for (std::size_t i = 0; i < framed.size(); ++i) {
    std::vector<std::uint8_t> corrupted = framed;
    corrupted[i] ^= 0x5a;
    EXPECT_FALSE(UnframeMessage(corrupted).has_value())
        << "flip at byte " << i << " went undetected";
  }
}

TEST(CommFraming, RejectsTruncationAndGarbageLengths) {
  const std::vector<std::uint8_t> framed =
      FrameMessage(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_FALSE(UnframeMessage(std::vector<std::uint8_t>{}).has_value());
  std::vector<std::uint8_t> truncated(framed.begin(), framed.end() - 1);
  EXPECT_FALSE(UnframeMessage(truncated).has_value());
  // A corrupted length field must not cause an out-of-bounds read.
  std::vector<std::uint8_t> huge_length = framed;
  huge_length[3] = 0xff;
  EXPECT_FALSE(UnframeMessage(huge_length).has_value());
}

TEST(CommFraming, FramedClientUpdateRoundTripsBitwise) {
  ClientUpdate update;
  update.params = {1.5f, -2.25f, 3.0e-7f, 0.0f};
  update.num_samples = 42;
  update.loss_before = 1.25;
  update.loss_after = 0.75;
  update.prototypes = tensor::Tensor({2, 3}, {1, 2, 3, 4, 5, 6});
  update.prototype_class = {0, 2};
  const auto unframed = UnframeMessage(FrameMessage(EncodeClientUpdate(update)));
  ASSERT_TRUE(unframed.has_value());
  const ClientUpdate decoded = DecodeClientUpdate(*unframed);
  EXPECT_EQ(decoded.params, update.params);
  EXPECT_EQ(decoded.num_samples, update.num_samples);
  EXPECT_EQ(decoded.loss_before, update.loss_before);
  EXPECT_EQ(decoded.loss_after, update.loss_after);
  EXPECT_EQ(decoded.prototype_class, update.prototype_class);
  ASSERT_EQ(decoded.prototypes.size(), update.prototypes.size());
  for (std::int64_t i = 0; i < update.prototypes.size(); ++i) {
    EXPECT_EQ(decoded.prototypes.data()[i], update.prototypes.data()[i]);
  }
}

// ------------------------------------------------- availability-aware draws

TEST(ClientSampler, AllAvailableMatchesPlainSampleBitwise) {
  const std::vector<std::int64_t> sizes = {5, 1, 9, 4, 2, 8, 3, 6};
  for (const SamplingStrategy strategy :
       {SamplingStrategy::kUniform, SamplingStrategy::kRoundRobin,
        SamplingStrategy::kWeightedBySize}) {
    const ClientSampler sampler(8, 3, 17, strategy, sizes);
    const std::vector<bool> all(8, true);
    for (int round = 1; round <= 50; ++round) {
      EXPECT_EQ(sampler.Sample(round, all), sampler.Sample(round))
          << "strategy " << static_cast<int>(strategy) << " round " << round;
    }
  }
}

TEST(ClientSampler, RedrawsAroundNoShows) {
  const std::vector<std::int64_t> sizes = {5, 1, 9, 4, 2, 8, 3, 6};
  for (const SamplingStrategy strategy :
       {SamplingStrategy::kUniform, SamplingStrategy::kRoundRobin,
        SamplingStrategy::kWeightedBySize}) {
    const ClientSampler sampler(8, 3, 17, strategy, sizes);
    std::vector<bool> available(8, true);
    available[0] = available[2] = available[5] = false;
    for (int round = 1; round <= 30; ++round) {
      const std::vector<int> selected = sampler.Sample(round, available);
      EXPECT_EQ(selected.size(), 3u);  // enough available clients to re-draw
      for (const int id : selected) {
        EXPECT_TRUE(available[static_cast<std::size_t>(id)]);
      }
      const std::set<int> unique(selected.begin(), selected.end());
      EXPECT_EQ(unique.size(), selected.size());
    }
  }
}

TEST(ClientSampler, ReturnsFewerWhenPoolTooSmall) {
  const ClientSampler sampler(6, 4, 3);
  std::vector<bool> available(6, false);
  available[1] = available[4] = true;
  EXPECT_EQ(sampler.Sample(1, available), (std::vector<int>{1, 4}));
  EXPECT_TRUE(sampler.Sample(1, std::vector<bool>(6, false)).empty());
  EXPECT_THROW(sampler.Sample(1, std::vector<bool>(5, true)),
               std::invalid_argument);
}

// ------------------------------------------------------- simulator behavior

struct SimFixture {
  SimFixture() {
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
    base_config = FlConfig{.total_clients = 4,
                           .participants_per_round = 3,
                           .rounds = 5,
                           .batch_size = 16,
                           .optimizer = {.lr = 3e-3f},
                           .eval_every = 2,
                           .seed = 123};
  }

  SimulationResult Run(const FlConfig& config) const {
    const Simulator simulator(clients, config);
    baselines::FedAvg algorithm;
    nn::MlpClassifier model(model_config);
    return simulator.Run(algorithm, model, {{"eval", &eval}});
  }

  std::vector<data::Dataset> clients;
  data::Dataset eval;
  nn::MlpClassifier::Config model_config;
  FlConfig base_config;
};

// The acceptance contract: an explicit zero-probability FaultPlan (even with
// a salt) must leave model weights, recorder series, and the deterministic
// cost counters bitwise identical to a run without the injector. Wall-clock
// *_seconds cost fields are measured times and excluded by nature.
TEST(SimulatorFaults, ZeroFaultPlanIsBitwiseIdenticalToNoInjector) {
  const SimFixture fixture;
  const SimulationResult plain = fixture.Run(fixture.base_config);

  FlConfig with_plan = fixture.base_config;
  with_plan.faults = FaultPlan{};  // all probabilities zero
  with_plan.faults.salt = 0xdeadbeefULL;  // salt alone must not matter
  const SimulationResult injected = fixture.Run(with_plan);

  EXPECT_EQ(plain.final_model.FlatParams(), injected.final_model.FlatParams());
  EXPECT_EQ(plain.final_accuracy, injected.final_accuracy);
  ASSERT_EQ(plain.recorder.SeriesNames(), injected.recorder.SeriesNames());
  for (const std::string& series : plain.recorder.SeriesNames()) {
    EXPECT_EQ(plain.recorder.Rounds(series), injected.recorder.Rounds(series));
    EXPECT_EQ(plain.recorder.Values(series), injected.recorder.Values(series));
  }
  EXPECT_EQ(plain.costs.client_rounds, injected.costs.client_rounds);
  EXPECT_EQ(plain.costs.aggregate_rounds, injected.costs.aggregate_rounds);
  for (const CostBreakdown& costs : {plain.costs, injected.costs}) {
    EXPECT_EQ(costs.no_show_clients, 0);
    EXPECT_EQ(costs.dropped_updates, 0);
    EXPECT_EQ(costs.straggler_events, 0);
    EXPECT_EQ(costs.corrupted_messages, 0);
    EXPECT_EQ(costs.retransmissions, 0);
    EXPECT_EQ(costs.updates_lost_to_corruption, 0);
    EXPECT_EQ(costs.skipped_rounds, 0);
    EXPECT_DOUBLE_EQ(costs.SimulatedFaultSeconds(), 0.0);
  }
}

TEST(SimulatorFaults, LegacyClientDropoutFoldsIntoPlan) {
  const SimFixture fixture;
  FlConfig legacy = fixture.base_config;
  legacy.client_dropout = 1.0;  // every update lost
  const SimulationResult result = fixture.Run(legacy);
  EXPECT_EQ(result.costs.aggregate_rounds, 0);
  EXPECT_EQ(result.costs.dropped_updates, result.costs.client_rounds);
  EXPECT_EQ(result.costs.skipped_rounds, 5);
  // Clients still trained; only delivery failed.
  EXPECT_EQ(result.costs.client_rounds, 15);
}

TEST(SimulatorFaults, DropoutRunsAreDeterministic) {
  const SimFixture fixture;
  FlConfig config = fixture.base_config;
  config.faults.dropout = 0.5;
  const SimulationResult a = fixture.Run(config);
  const SimulationResult b = fixture.Run(config);
  EXPECT_EQ(a.final_model.FlatParams(), b.final_model.FlatParams());
  EXPECT_EQ(a.costs.dropped_updates, b.costs.dropped_updates);
  EXPECT_GT(a.costs.dropped_updates, 0);
}

TEST(SimulatorFaults, UnavailabilityRedrawsAndAccounts) {
  const SimFixture fixture;
  FlConfig config = fixture.base_config;
  config.participants_per_round = 2;
  config.faults.unavailability = 0.4;
  const SimulationResult result = fixture.Run(config);
  // With N=4, K=2, p=0.4 over 5 rounds some base draw contains a no-show.
  EXPECT_GT(result.costs.no_show_clients, 0);
  // Re-draws keep training going unless a whole round had nobody available.
  EXPECT_GT(result.costs.client_rounds, 0);
  EXPECT_GT(result.costs.aggregate_rounds, 0);
  const SimulationResult again = fixture.Run(config);
  EXPECT_EQ(result.final_model.FlatParams(), again.final_model.FlatParams());
  EXPECT_EQ(result.costs.no_show_clients, again.costs.no_show_clients);
}

TEST(SimulatorFaults, FullUnavailabilitySkipsEveryRound) {
  const SimFixture fixture;
  FlConfig config = fixture.base_config;
  config.faults.unavailability = 1.0;
  const SimulationResult result = fixture.Run(config);
  EXPECT_EQ(result.costs.client_rounds, 0);
  EXPECT_EQ(result.costs.aggregate_rounds, 0);
  EXPECT_EQ(result.costs.skipped_rounds, 5);
  // The model never moved.
  nn::MlpClassifier initial(fixture.model_config);
  EXPECT_EQ(result.final_model.FlatParams(), initial.FlatParams());
}

TEST(SimulatorFaults, StragglerDelayIsAccountedDeterministically) {
  const SimFixture fixture;
  FlConfig config = fixture.base_config;
  config.faults.straggler_fraction = 1.0;
  config.faults.straggler_delay_seconds = 0.25;
  const SimulationResult result = fixture.Run(config);
  EXPECT_EQ(result.costs.straggler_events, result.costs.client_rounds);
  EXPECT_DOUBLE_EQ(
      result.costs.straggler_delay_seconds,
      0.25 * static_cast<double>(result.costs.straggler_events));
  // Stragglers deliver late but still deliver: aggregation unaffected.
  EXPECT_EQ(result.costs.aggregate_rounds, 5);
}

TEST(SimulatorFaults, CorruptionRetriesRecoverTheRunBitwise) {
  const SimFixture fixture;
  const SimulationResult clean = fixture.Run(fixture.base_config);

  FlConfig config = fixture.base_config;
  config.faults.corruption = 0.3;
  config.faults.max_retries = 8;  // enough retries that nothing is lost
  config.faults.retry_backoff_seconds = 0.05;
  const SimulationResult lossy = fixture.Run(config);

  EXPECT_GT(lossy.costs.corrupted_messages, 0);
  EXPECT_GT(lossy.costs.retransmissions, 0);
  EXPECT_GT(lossy.costs.retry_backoff_seconds, 0.0);
  EXPECT_EQ(lossy.costs.updates_lost_to_corruption, 0);
  // The wire codec is lossless and every update eventually arrived, so the
  // trained model is bitwise identical to the clean run.
  EXPECT_EQ(clean.final_model.FlatParams(), lossy.final_model.FlatParams());
}

TEST(SimulatorFaults, ExhaustedRetriesLoseTheUpdate) {
  const SimFixture fixture;
  FlConfig config = fixture.base_config;
  config.faults.corruption = 1.0;  // every attempt corrupted
  config.faults.max_retries = 1;
  const SimulationResult result = fixture.Run(config);
  EXPECT_EQ(result.costs.aggregate_rounds, 0);
  EXPECT_EQ(result.costs.skipped_rounds, 5);
  EXPECT_EQ(result.costs.updates_lost_to_corruption,
            result.costs.client_rounds);
  // Each lost update burned 1 + max_retries attempts.
  EXPECT_EQ(result.costs.corrupted_messages, 2 * result.costs.client_rounds);
  EXPECT_EQ(result.costs.retransmissions, result.costs.client_rounds);
}

TEST(SimulatorFaults, CombinedFaultsStayDeterministic) {
  const SimFixture fixture;
  FlConfig config = fixture.base_config;
  config.faults.unavailability = 0.2;
  config.faults.dropout = 0.2;
  config.faults.corruption = 0.2;
  config.faults.straggler_fraction = 0.3;
  const SimulationResult a = fixture.Run(config);
  const SimulationResult b = fixture.Run(config);
  EXPECT_EQ(a.final_model.FlatParams(), b.final_model.FlatParams());
  EXPECT_EQ(a.costs.dropped_updates, b.costs.dropped_updates);
  EXPECT_EQ(a.costs.no_show_clients, b.costs.no_show_clients);
  EXPECT_EQ(a.costs.corrupted_messages, b.costs.corrupted_messages);
  EXPECT_EQ(a.costs.straggler_events, b.costs.straggler_events);
  EXPECT_DOUBLE_EQ(a.costs.SimulatedFaultSeconds(),
                   b.costs.SimulatedFaultSeconds());
}

}  // namespace
}  // namespace pardon::fl
