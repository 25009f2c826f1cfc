// The timing wrapper must be invisible to the program: a wrapped run ends in
// bitwise the same parameters as an unwrapped one, on the streaming path
// (FISC) and the materialised path (FedGMA), and every virtual the wrapper
// does not time is forwarded unchanged.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "baselines/fedavg.hpp"
#include "experiment.hpp"
#include "timing_algorithm.hpp"

namespace pardon::perfbench {
namespace {

constexpr int kRounds = 3;
constexpr int kParticipants = 4;

bench::Scenario SmallScenario() {
  bench::Scenario scenario;
  scenario.preset = data::MakePacsLike();
  scenario.train_domains = {1, 2};
  scenario.val_domains = {0};
  scenario.test_domains = {3};
  scenario.samples_per_train_domain = 120;
  scenario.samples_per_eval_domain = 40;
  scenario.total_clients = 8;
  scenario.participants = kParticipants;
  scenario.rounds = kRounds;
  scenario.eval_every = 0;
  scenario.seed = 5;
  return scenario;
}

bench::MethodSpec Method(const std::string& name) {
  for (const bench::MethodSpec& spec : bench::PaperMethods()) {
    if (spec.name == name) return spec;
  }
  ADD_FAILURE() << "no method " << name;
  return {};
}

class WrappedRunTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WrappedRunTest, FinalParamsAreBitwiseIdentical) {
  const bench::MethodSpec spec = Method(GetParam());
  const bench::ScenarioData data(SmallScenario());
  util::ThreadPool pool(2);

  const std::unique_ptr<fl::Algorithm> plain = spec.make();
  const std::vector<float> expected =
      data.Run(*plain, &pool).result.final_model.FlatParams();

  CallLog log;
  std::unique_ptr<fl::Algorithm> inner = spec.make();
  const bool streaming = inner->SupportsStreamingAggregation();
  const int run = log.AddRun(inner->Name());
  TimingAlgorithm wrapped(std::move(inner), log, run);
  EXPECT_EQ(wrapped.Name(), plain->Name());
  EXPECT_EQ(wrapped.SupportsStreamingAggregation(), streaming);
  const std::vector<float> actual =
      data.Run(wrapped, &pool).result.final_model.FlatParams();

  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(float)),
            0);

  // Every hook call was timed: one Setup, K trainings per round, and one
  // Aggregate per round only on the materialised path.
  int setups = 0;
  int trainings = 0;
  int aggregates = 0;
  for (const Call& call : log.calls()) {
    EXPECT_LE(call.start_s, call.end_s);
    setups += call.hook == Hook::kSetup;
    trainings += call.hook == Hook::kTrainClient;
    aggregates += call.hook == Hook::kAggregate;
  }
  EXPECT_EQ(setups, 1);
  EXPECT_EQ(trainings, kRounds * kParticipants);
  EXPECT_EQ(aggregates, streaming ? 0 : kRounds);
}

// "Ours" is FISC, which streams; FedGMA overrides Aggregate.
INSTANTIATE_TEST_SUITE_P(StreamingAndMaterialised, WrappedRunTest,
                         ::testing::Values("Ours", "FedGMA"));

TEST(WrappedRunTest, MethodsCoverBothAggregationPaths) {
  EXPECT_TRUE(Method("Ours").make()->SupportsStreamingAggregation());
  EXPECT_FALSE(Method("FedGMA").make()->SupportsStreamingAggregation());
}

// Records what the wrapper forwards to it.
class ProbeAlgorithm final : public baselines::FedAvg {
 public:
  std::string Name() const override { return "Probe"; }
  std::vector<std::uint8_t> SaveRoundState() const override {
    return {1, 2, 3};
  }
  void LoadRoundState(std::span<const std::uint8_t> state) override {
    loaded.assign(state.begin(), state.end());
  }
  bool SupportsStreamingAggregation() const override { return streaming; }

  bool streaming = false;
  std::vector<std::uint8_t> loaded;
};

TEST(TimingAlgorithmTest, ForwardsRoundStateAndStreamingCapability) {
  auto probe = std::make_unique<ProbeAlgorithm>();
  ProbeAlgorithm& inner = *probe;
  CallLog log;
  TimingAlgorithm wrapped(std::move(probe), log, log.AddRun("Probe"));

  EXPECT_EQ(wrapped.Name(), "Probe");
  EXPECT_EQ(wrapped.SaveRoundState(), (std::vector<std::uint8_t>{1, 2, 3}));
  const std::vector<std::uint8_t> state = {9, 8, 7, 6};
  wrapped.LoadRoundState(state);
  EXPECT_EQ(inner.loaded, state);
  EXPECT_FALSE(wrapped.SupportsStreamingAggregation());
  inner.streaming = true;
  EXPECT_TRUE(wrapped.SupportsStreamingAggregation());
  EXPECT_TRUE(log.calls().empty());
}

}  // namespace
}  // namespace pardon::perfbench
