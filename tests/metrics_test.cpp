// Metrics tests: accuracy/per-domain/confusion/macro-F1/loss evaluation and
// the convergence recorder.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "data/dataset.hpp"
#include "metrics/evaluation.hpp"
#include "nn/losses.hpp"
#include "metrics/recorder.hpp"
#include "tensor/ops.hpp"

namespace pardon::metrics {
namespace {

using tensor::Pcg32;
using tensor::Tensor;

// A dataset whose label equals the argmax input coordinate — an MLP-free
// sanity world where we can reason about expected outcomes.
data::Dataset MakeSeparable(int n, int classes, Pcg32& rng, int domain_mod = 2) {
  data::Dataset dataset(
      {.channels = 1, .height = 1, .width = static_cast<std::int64_t>(classes)},
      classes, domain_mod);
  for (int i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.NextBounded(static_cast<std::uint32_t>(classes)));
    Tensor image({static_cast<std::int64_t>(classes)});
    for (int c = 0; c < classes; ++c) image[c] = 0.1f * rng.NextGaussian();
    image[label] += 5.0f;
    dataset.Add(image, label, i % domain_mod);
  }
  return dataset;
}

nn::MlpClassifier TrainedModel(const data::Dataset& data, Pcg32& rng) {
  nn::MlpClassifier model(nn::MlpClassifier::Config{
      .input_dim = data.shape().FlatDim(),
      .hidden = {16},
      .embed_dim = 8,
      .num_classes = data.num_classes(),
      .seed = 17,
  });
  nn::Adam optimizer(model.Params(), model.Grads(), {.lr = 1e-2f});
  for (int epoch = 0; epoch < 30; ++epoch) {
    model.ZeroGrad();
    nn::Sequential::Trace ft, ht;
    const Tensor z = model.Embed(data.images(), &ft, true, &rng);
    const Tensor logits = model.Logits(z, &ht, true, &rng);
    std::vector<int> labels(data.labels().begin(), data.labels().end());
    const nn::CrossEntropyResult ce = nn::SoftmaxCrossEntropy(logits, labels);
    model.BackwardFeatures(model.BackwardHead(ce.grad_logits, ht), ft);
    optimizer.Step();
  }
  return model;
}

TEST(Accuracy, HighOnSeparableDataZeroOnEmpty) {
  Pcg32 rng(1);
  const data::Dataset data = MakeSeparable(200, 4, rng);
  const nn::MlpClassifier model = TrainedModel(data, rng);
  EXPECT_GT(Accuracy(model, data), 0.9);
  const data::Dataset empty(data.shape(), 4, 2);
  EXPECT_EQ(Accuracy(model, empty), 0.0);
}

TEST(Accuracy, ChunkingMatchesSinglePass) {
  Pcg32 rng(2);
  const data::Dataset data = MakeSeparable(150, 3, rng);
  const nn::MlpClassifier model = TrainedModel(data, rng);
  EXPECT_DOUBLE_EQ(Accuracy(model, data, 512), Accuracy(model, data, 7));
}

TEST(PerDomainAccuracy, SplitsByDomain) {
  Pcg32 rng(3);
  const data::Dataset data = MakeSeparable(200, 3, rng, /*domain_mod=*/2);
  const nn::MlpClassifier model = TrainedModel(data, rng);
  const std::map<int, double> per_domain = PerDomainAccuracy(model, data);
  ASSERT_EQ(per_domain.size(), 2u);
  for (const auto& [domain, acc] : per_domain) EXPECT_GT(acc, 0.8);
}

TEST(ConfusionMatrix, RowsAreNormalizedAndDiagonalDominant) {
  Pcg32 rng(4);
  const data::Dataset data = MakeSeparable(300, 4, rng);
  const nn::MlpClassifier model = TrainedModel(data, rng);
  const Tensor confusion = ConfusionMatrix(model, data);
  for (std::int64_t r = 0; r < 4; ++r) {
    float row_sum = 0.0f;
    for (std::int64_t c = 0; c < 4; ++c) row_sum += confusion.At(r, c);
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
    EXPECT_GT(confusion.At(r, r), 0.6f);
  }
}

TEST(MeanLoss, LowerAfterTraining) {
  Pcg32 rng(5);
  const data::Dataset data = MakeSeparable(150, 3, rng);
  nn::MlpClassifier untrained(nn::MlpClassifier::Config{
      .input_dim = data.shape().FlatDim(),
      .hidden = {16},
      .embed_dim = 8,
      .num_classes = 3,
      .seed = 18,
  });
  const nn::MlpClassifier trained = TrainedModel(data, rng);
  EXPECT_LT(MeanLoss(trained, data), MeanLoss(untrained, data));
}

TEST(MacroF1, PerfectAndDegenerate) {
  data::Dataset dataset({.channels = 1, .height = 1, .width = 3}, 3, 1);
  Pcg32 rng(10);
  for (int i = 0; i < 90; ++i) {
    const int label = i % 3;
    Tensor image({3});
    image[label] = 5.0f;
    dataset.Add(image, label, 0);
  }
  // A classifier that reads the argmax directly: identity-ish linear model.
  nn::MlpClassifier model(nn::MlpClassifier::Config{
      .input_dim = 3,
      .hidden = {8},
      .embed_dim = 4,
      .num_classes = 3,
      .seed = 11,
  });
  nn::Adam optimizer(model.Params(), model.Grads(), {.lr = 1e-2f});
  std::vector<int> labels(dataset.labels().begin(), dataset.labels().end());
  for (int step = 0; step < 50; ++step) {
    model.ZeroGrad();
    nn::Sequential::Trace ft, ht;
    const Tensor z = model.Embed(dataset.images(), &ft, true, &rng);
    const nn::CrossEntropyResult ce =
        nn::SoftmaxCrossEntropy(model.Logits(z, &ht, true, &rng), labels);
    model.BackwardFeatures(model.BackwardHead(ce.grad_logits, ht), ft);
    optimizer.Step();
  }
  EXPECT_GT(MacroF1(model, dataset), 0.95);
  // Macro-F1 tracks accuracy on balanced data.
  EXPECT_NEAR(MacroF1(model, dataset), Accuracy(model, dataset), 0.05);
}

TEST(Recorder, SeriesRoundsValuesAndCsv) {
  Recorder recorder;
  recorder.Record("acc", 10, 0.5);
  recorder.Record("acc", 5, 0.3);
  recorder.Record("loss", 5, 2.0);
  EXPECT_EQ(recorder.Rounds("acc"), (std::vector<int>{5, 10}));
  EXPECT_EQ(recorder.Values("acc"), (std::vector<double>{0.3, 0.5}));
  EXPECT_DOUBLE_EQ(recorder.Last("acc"), 0.5);
  EXPECT_TRUE(recorder.Has("loss"));
  EXPECT_FALSE(recorder.Has("unknown"));
  EXPECT_THROW(recorder.Last("unknown"), std::out_of_range);
  EXPECT_EQ(recorder.SeriesNames(), (std::vector<std::string>{"acc", "loss"}));

  const std::string csv = recorder.ToCsv();
  // Values print at max_digits10 so they round-trip; 0.3 is not exactly
  // representable and prints its nearest-double form.
  EXPECT_NE(csv.find("acc,5,0.2999999999999999"), std::string::npos);
  EXPECT_NE(csv.find("loss,5,2"), std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pardon_recorder_test.csv")
          .string();
  recorder.SaveCsv(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::remove(path.c_str());
}

TEST(Recorder, CsvRoundTripsFullDoublePrecision) {
  // Regression: the stream default of 6 significant digits used to truncate
  // values like 2/3 to "0.666667", losing information across save/reload.
  Recorder recorder;
  const double two_thirds = 2.0 / 3.0;
  const double tiny_gap = 0.1234567890123456789;
  recorder.Record("acc", 1, two_thirds);
  recorder.Record("acc", 2, tiny_gap);

  const std::string csv = recorder.ToCsv();
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  std::vector<double> parsed;
  while (std::getline(in, line)) {
    const std::size_t comma = line.rfind(',');
    ASSERT_NE(comma, std::string::npos);
    parsed.push_back(std::stod(line.substr(comma + 1)));
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], two_thirds);  // bitwise round trip, not approximate
  EXPECT_EQ(parsed[1], tiny_gap);
  EXPECT_NE(csv.find("0.66666666666666663"), std::string::npos);
}

TEST(Recorder, OverwritesSameRound) {
  Recorder recorder;
  recorder.Record("x", 1, 1.0);
  recorder.Record("x", 1, 2.0);
  EXPECT_DOUBLE_EQ(recorder.Last("x"), 2.0);
  EXPECT_EQ(recorder.Rounds("x").size(), 1u);
}

}  // namespace
}  // namespace pardon::metrics
