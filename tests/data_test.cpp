// Data module tests: Dataset container, domain generator semantics, the
// lambda-heterogeneity partitioner (with property sweeps), splits,
// normalization, and batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "data/batcher.hpp"
#include "data/domain_generator.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/presets.hpp"
#include "data/splits.hpp"
#include "tensor/linalg.hpp"
#include "tensor/ops.hpp"

namespace pardon::data {
namespace {

using tensor::Pcg32;
using tensor::Tensor;

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.num_domains = 3;
  config.num_classes = 4;
  config.shape = {.channels = 2, .height = 4, .width = 4};
  config.seed = 21;
  return config;
}

TEST(Dataset, AddSelectFilterAppend) {
  Dataset dataset({.channels = 1, .height = 2, .width = 2}, 3, 2);
  Pcg32 rng(1);
  for (int i = 0; i < 6; ++i) {
    dataset.Add(Tensor::Gaussian({4}, 0, 1, rng), i % 3, i % 2);
  }
  EXPECT_EQ(dataset.size(), 6);
  const std::vector<int> indices = {0, 2, 4};
  const Dataset subset = dataset.Select(indices);
  EXPECT_EQ(subset.size(), 3);
  EXPECT_EQ(subset.Domain(0), 0);

  const Dataset domain1 = dataset.FilterDomain(1);
  EXPECT_EQ(domain1.size(), 3);
  for (std::int64_t i = 0; i < domain1.size(); ++i) {
    EXPECT_EQ(domain1.Domain(i), 1);
  }

  Dataset copy = subset;
  copy.Append(domain1);
  EXPECT_EQ(copy.size(), 6);
}

TEST(Dataset, HistogramsCount) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 2, 2);
  dataset.Add(Tensor({1}), 0, 0);
  dataset.Add(Tensor({1}), 1, 0);
  dataset.Add(Tensor({1}), 1, 1);
  const auto domains = dataset.DomainHistogram();
  EXPECT_EQ(domains[0], 2);
  EXPECT_EQ(domains[1], 1);
  const auto classes = dataset.ClassHistogram();
  EXPECT_EQ(classes[0], 1);
  EXPECT_EQ(classes[1], 2);
}

TEST(Dataset, RejectsOutOfRangeLabels) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 2, 2);
  EXPECT_THROW(dataset.Add(Tensor({1}), 2, 0), std::out_of_range);
  EXPECT_THROW(dataset.Add(Tensor({1}), 0, -1), std::out_of_range);
  EXPECT_THROW(dataset.Add(Tensor({2}), 0, 0), std::invalid_argument);
}

TEST(DomainGenerator, DeterministicGivenSeed) {
  const DomainGenerator a(SmallConfig()), b(SmallConfig());
  Pcg32 rng_a(5), rng_b(5);
  const Tensor x1 = a.GenerateImage(1, 2, rng_a);
  const Tensor x2 = b.GenerateImage(1, 2, rng_b);
  EXPECT_EQ(tensor::MaxAbsDiff(x1, x2), 0.0f);
}

TEST(DomainGenerator, DomainsDifferInChannelStatistics) {
  const DomainGenerator generator(SmallConfig());
  Pcg32 rng(6);
  // Average channel means over many samples of the same class in two domains.
  const std::int64_t n = 200;
  Tensor mean0({2}), mean1({2});
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor x0 = generator.GenerateImage(0, 0, rng).Reshape({2, 4, 4});
    const Tensor x1 = generator.GenerateImage(0, 1, rng).Reshape({2, 4, 4});
    mean0 += tensor::ChannelMean(x0);
    mean1 += tensor::ChannelMean(x1);
  }
  mean0 *= 1.0f / n;
  mean1 *= 1.0f / n;
  EXPECT_GT(tensor::MaxAbsDiff(mean0, mean1), 0.2f);
}

TEST(DomainGenerator, ClassesDifferWithinDomain) {
  const DomainGenerator generator(SmallConfig());
  Pcg32 rng(7);
  const std::int64_t n = 100;
  Tensor sum_a({32}), sum_b({32});
  for (std::int64_t i = 0; i < n; ++i) {
    sum_a += generator.GenerateImage(0, 0, rng);
    sum_b += generator.GenerateImage(1, 0, rng);
  }
  EXPECT_GT(tensor::MaxAbsDiff(sum_a, sum_b) / n, 0.1f);
}

TEST(DomainGenerator, ZipfImbalanceSkewsClasses) {
  GeneratorConfig config = SmallConfig();
  config.class_imbalance = 1.5f;
  const DomainGenerator generator(config);
  Pcg32 rng(8);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 2000; ++i) ++counts[static_cast<std::size_t>(generator.SampleClass(rng))];
  EXPECT_GT(counts[0], counts[3] * 2);
}

TEST(DomainGenerator, StyleLatentDimProducesCorrelatedStyles) {
  GeneratorConfig config = SmallConfig();
  config.shape.channels = 8;
  config.num_domains = 40;
  config.style_latent_dim = 2;
  const DomainGenerator generator(config);
  // With a rank-2 latent, the 40 domain bias vectors lie in a 2-D subspace:
  // the covariance of biases has (numerical) rank <= 2.
  Tensor biases({40, 8});
  for (int d = 0; d < 40; ++d) biases.SetRow(d, generator.domain(d).bias);
  const Tensor cov = tensor::Covariance(biases);
  const tensor::EigenResult eig = tensor::JacobiEigenSymmetric(cov);
  EXPECT_GT(eig.eigenvalues[1], 1e-4f);
  EXPECT_LT(eig.eigenvalues[2], 1e-4f * eig.eigenvalues[0]);
}

TEST(DomainGenerator, RejectsBadIds) {
  const DomainGenerator generator(SmallConfig());
  Pcg32 rng(9);
  EXPECT_THROW(generator.GenerateImage(4, 0, rng), std::out_of_range);
  EXPECT_THROW(generator.GenerateImage(0, 3, rng), std::out_of_range);
}

// ---- Partitioner property tests --------------------------------------------------

class PartitionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionPropertyTest, PlanIsTruePartition) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  const int num_domains = 1 + static_cast<int>(rng.NextBounded(6));
  const int num_clients = 1 + static_cast<int>(rng.NextBounded(30));
  const double lambda = rng.NextDouble();
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_domains));
  for (auto& c : counts) c = rng.NextBounded(300);
  if (std::accumulate(counts.begin(), counts.end(), std::int64_t{0}) == 0) {
    counts[0] = 10;
  }
  const std::vector<std::int64_t> plan = PartitionPlan(
      counts, {.num_clients = num_clients, .lambda = lambda});
  // Every domain's samples are fully assigned, never duplicated.
  for (int d = 0; d < num_domains; ++d) {
    std::int64_t assigned = 0;
    for (int i = 0; i < num_clients; ++i) {
      const std::int64_t v =
          plan[static_cast<std::size_t>(i) * num_domains + d];
      ASSERT_GE(v, 0);
      assigned += v;
    }
    EXPECT_EQ(assigned, counts[static_cast<std::size_t>(d)]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, PartitionPropertyTest,
                         ::testing::Range(1, 15));

TEST(Partition, LambdaZeroIsDomainSeparated) {
  const std::vector<std::int64_t> counts = {100, 100, 100};
  const std::vector<std::int64_t> plan =
      PartitionPlan(counts, {.num_clients = 6, .lambda = 0.0});
  // Client i only holds domain (i mod 3).
  for (int i = 0; i < 6; ++i) {
    for (int d = 0; d < 3; ++d) {
      const std::int64_t v = plan[static_cast<std::size_t>(i) * 3 + d];
      if (d == i % 3) {
        EXPECT_GT(v, 0);
      } else {
        EXPECT_EQ(v, 0);
      }
    }
  }
}

TEST(Partition, LambdaOneMatchesGlobalMixture) {
  const std::vector<std::int64_t> counts = {400, 200};
  const std::vector<std::int64_t> plan =
      PartitionPlan(counts, {.num_clients = 10, .lambda = 1.0});
  for (int i = 0; i < 10; ++i) {
    const double d0 = static_cast<double>(plan[static_cast<std::size_t>(i) * 2]);
    const double d1 = static_cast<double>(plan[static_cast<std::size_t>(i) * 2 + 1]);
    EXPECT_NEAR(d0 / (d0 + d1), 2.0 / 3.0, 0.05);
  }
}

TEST(Partition, MaterializedDatasetsMatchPlan) {
  const DomainGenerator generator(SmallConfig());
  Pcg32 rng(10);
  Dataset train(SmallConfig().shape, 4, 3);
  for (int d = 0; d < 3; ++d) {
    train.Append(generator.GenerateDomain(d, 50, rng));
  }
  const PartitionOptions options{.num_clients = 5, .lambda = 0.3, .seed = 4};
  const std::vector<Dataset> clients = PartitionHeterogeneous(train, options);
  ASSERT_EQ(clients.size(), 5u);
  const std::vector<std::int64_t> plan =
      PartitionPlan(train.DomainHistogram(), options);
  std::int64_t total = 0;
  for (int i = 0; i < 5; ++i) {
    const auto histogram = clients[static_cast<std::size_t>(i)].DomainHistogram();
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(histogram[static_cast<std::size_t>(d)],
                plan[static_cast<std::size_t>(i) * 3 + d]);
    }
    total += clients[static_cast<std::size_t>(i)].size();
  }
  EXPECT_EQ(total, train.size());
}

TEST(Partition, RejectsBadLambda) {
  EXPECT_THROW(PartitionPlan({10}, {.num_clients = 2, .lambda = 1.5}),
               std::invalid_argument);
}

// ---- Splits -------------------------------------------------------------------

TEST(BuildSplit, SizesAndDomainsAreRight) {
  const DomainGenerator generator(SmallConfig());
  const FederatedSplit split = BuildSplit(
      generator, {.train_domains = {0, 1},
                  .val_domains = {2},
                  .test_domains = {2},
                  .samples_per_train_domain = 100,
                  .samples_per_eval_domain = 40,
                  .in_domain_holdout = 0.1});
  EXPECT_EQ(split.train.size(), 2 * 80);
  EXPECT_EQ(split.in_domain_val.size(), 2 * 10);
  EXPECT_EQ(split.in_domain_test.size(), 2 * 10);
  EXPECT_EQ(split.val.size(), 40);
  EXPECT_EQ(split.test.size(), 40);
  for (std::int64_t i = 0; i < split.train.size(); ++i) {
    EXPECT_NE(split.train.Domain(i), 2);
  }
  for (std::int64_t i = 0; i < split.val.size(); ++i) {
    EXPECT_EQ(split.val.Domain(i), 2);
  }
}

TEST(BuildSplit, NormalizationStandardizesTrainPool) {
  const DomainGenerator generator(SmallConfig());
  const FederatedSplit split = BuildSplit(
      generator, {.train_domains = {0, 1},
                  .val_domains = {2},
                  .test_domains = {2},
                  .samples_per_train_domain = 200,
                  .samples_per_eval_domain = 50});
  const ChannelStats stats = ComputeChannelStats(split.train);
  for (std::int64_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(stats.mean[c], 0.0f, 1e-3f);
    EXPECT_NEAR(stats.std[c], 1.0f, 1e-2f);
  }
}

TEST(Normalize, RoundTripStatistics) {
  Dataset dataset({.channels = 2, .height = 2, .width = 2}, 2, 1);
  Pcg32 rng(11);
  for (int i = 0; i < 50; ++i) {
    Tensor image = Tensor::Gaussian({8}, 5.0f, 2.0f, rng);
    dataset.Add(image, i % 2, 0);
  }
  const ChannelStats stats = ComputeChannelStats(dataset);
  EXPECT_NEAR(stats.mean[0], 5.0f, 0.5f);
  const Dataset normalized = ApplyChannelNormalization(dataset, stats);
  const ChannelStats post = ComputeChannelStats(normalized);
  EXPECT_NEAR(post.mean[0], 0.0f, 1e-3f);
  EXPECT_NEAR(post.std[0], 1.0f, 1e-3f);
}

// ---- Batcher -------------------------------------------------------------------

TEST(Batcher, CoversEverySampleExactlyOnce) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 10, 1);
  for (int i = 0; i < 23; ++i) {
    Tensor image({1});
    image[0] = static_cast<float>(i);
    dataset.Add(image, i % 10, 0);
  }
  Pcg32 rng(12);
  const std::vector<Batch> batches = MakeEpochBatches(dataset, 8, rng);
  std::set<float> seen;
  std::int64_t total = 0;
  for (const Batch& batch : batches) {
    EXPECT_LE(batch.images.dim(0), 8);
    EXPECT_GE(batch.images.dim(0), 2);
    total += batch.images.dim(0);
    for (std::int64_t i = 0; i < batch.images.dim(0); ++i) {
      seen.insert(batch.images.At(i, 0));
    }
  }
  EXPECT_EQ(total, 23);
  EXPECT_EQ(seen.size(), 23u);
}

TEST(Batcher, DeterministicGivenSeed) {
  Dataset dataset({.channels = 1, .height = 1, .width = 2}, 2, 1);
  Pcg32 gen_rng(14);
  for (int i = 0; i < 30; ++i) {
    dataset.Add(Tensor::Gaussian({2}, 0, 1, gen_rng), i % 2, 0);
  }
  Pcg32 rng_a(15), rng_b(15);
  const std::vector<Batch> a = MakeEpochBatches(dataset, 8, rng_a);
  const std::vector<Batch> b = MakeEpochBatches(dataset, 8, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].labels, b[i].labels);
    EXPECT_EQ(tensor::MaxAbsDiff(a[i].images, b[i].images), 0.0f);
  }
}

TEST(Batcher, FoldsSingletonTailIntoPreviousBatch) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 2, 1);
  for (int i = 0; i < 9; ++i) dataset.Add(Tensor({1}), i % 2, 0);
  Pcg32 rng(13);
  const std::vector<Batch> batches = MakeEpochBatches(dataset, 4, rng);
  // 9 = 4 + 5: the would-be singleton tail is folded into the last batch
  // rather than dropped, so the ninth sample still trains this epoch.
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].indices.size(), 4u);
  EXPECT_EQ(batches[1].indices.size(), 5u);
}

TEST(Batcher, EveryEpochCoversEverySampleExactlyOnce) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 2, 1);
  for (int i = 0; i < 9; ++i) dataset.Add(Tensor({1}), i % 2, 0);
  Pcg32 rng(7);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<Batch> batches = MakeEpochBatches(dataset, 4, rng);
    std::vector<int> seen;
    for (const Batch& batch : batches) {
      EXPECT_GE(batch.indices.size(), 2u);
      EXPECT_EQ(batch.indices.size(), batch.labels.size());
      EXPECT_EQ(static_cast<std::size_t>(batch.images.dim(0)),
                batch.indices.size());
      seen.insert(seen.end(), batch.indices.begin(), batch.indices.end());
    }
    std::sort(seen.begin(), seen.end());
    const std::vector<int> want = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(seen, want);
  }
}

TEST(Batcher, TailFoldOnlyTriggersOnSingletons) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 2, 1);
  for (int i = 0; i < 10; ++i) dataset.Add(Tensor({1}), i % 2, 0);
  Pcg32 rng(5);
  // 10 = 4 + 4 + 2: a two-sample tail is a valid batch and stays separate.
  const std::vector<Batch> batches = MakeEpochBatches(dataset, 4, rng);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].indices.size(), 4u);
  EXPECT_EQ(batches[1].indices.size(), 4u);
  EXPECT_EQ(batches[2].indices.size(), 2u);
}

TEST(Batcher, SingleSampleDatasetStillYieldsABatch) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 2, 1);
  dataset.Add(Tensor({1}), 0, 0);
  Pcg32 rng(3);
  const std::vector<Batch> batches = MakeEpochBatches(dataset, 4, rng);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].indices.size(), 1u);
}

TEST(Batcher, SameSeedSameBatches) {
  Dataset dataset({.channels = 1, .height = 1, .width = 1}, 2, 1);
  for (int i = 0; i < 9; ++i) dataset.Add(Tensor({1}), i % 2, 0);
  Pcg32 rng_a(21), rng_b(21);
  const std::vector<Batch> a = MakeEpochBatches(dataset, 4, rng_a);
  const std::vector<Batch> b = MakeEpochBatches(dataset, 4, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].indices, b[i].indices);
    EXPECT_EQ(a[i].labels, b[i].labels);
  }
}

// ---- Presets -------------------------------------------------------------------

TEST(Presets, MatchPaperShapes) {
  const ScenarioPreset pacs = MakePacsLike();
  EXPECT_EQ(pacs.generator.num_domains, 4);
  EXPECT_EQ(pacs.generator.num_classes, 7);
  EXPECT_EQ(pacs.default_total_clients, 100);
  EXPECT_EQ(pacs.default_participants, 20);

  const ScenarioPreset office = MakeOfficeHomeLike();
  EXPECT_EQ(office.generator.num_classes, 65);

  const ScenarioPreset wild = MakeIWildCamLike();
  EXPECT_EQ(wild.generator.num_domains, 323);
  EXPECT_EQ(wild.generator.num_classes, 182);
  EXPECT_EQ(wild.default_total_clients, 243);
  const IWildCamDomainSplit split = IWildCamDomains(wild);
  EXPECT_EQ(split.train.size(), 243u);
  EXPECT_EQ(split.val.size(), 32u);
  EXPECT_EQ(split.test.size(), 48u);
}

TEST(Presets, IWildCamScalingKeepsProportions) {
  const ScenarioPreset wild = MakeIWildCamLike({.scale = 0.2});
  const IWildCamDomainSplit split = IWildCamDomains(wild);
  EXPECT_EQ(static_cast<int>(split.train.size() + split.val.size() +
                             split.test.size()),
            wild.generator.num_domains);
  EXPECT_GT(split.train.size(), split.test.size());
  EXPECT_GT(split.test.size(), split.val.size() / 2);
}

}  // namespace
}  // namespace pardon::data
