// FINCH / quality-metric tests, including property-style sweeps
// over random inputs verifying the FINCH partition-chain invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "clustering/finch.hpp"
#include "clustering/quality.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace pardon::clustering {
namespace {

using tensor::Pcg32;
using tensor::Tensor;

// Two tight, well-separated blobs.
Tensor TwoBlobs(int per_blob, Pcg32& rng) {
  Tensor points({2 * per_blob, 3});
  for (int i = 0; i < per_blob; ++i) {
    for (int d = 0; d < 3; ++d) {
      points.At(i, d) = 5.0f + 0.1f * rng.NextGaussian();
      points.At(per_blob + i, d) =
          (d == 0 ? -5.0f : 5.0f) + 0.1f * rng.NextGaussian();
    }
  }
  return points;
}

TEST(Finch, SeparatedBlobsNeverMixWithinAClusterChain) {
  Pcg32 rng(1);
  const Tensor points = TwoBlobs(20, rng);
  const FinchResult result = Finch(points, Metric::kEuclidean);
  ASSERT_FALSE(result.partitions.empty());
  // FINCH's chain may legitimately stop above 2 clusters (a 3-center level
  // whose next merge would be the trivial 1-cluster partition is kept), but
  // no cluster at ANY level may span both blobs, and the coarsest level must
  // be small.
  const Partition& coarsest = result.CoarsestNonTrivial();
  EXPECT_LE(coarsest.num_clusters, 4);
  EXPECT_GE(coarsest.num_clusters, 2);
  std::vector<int> truth(40, 0);
  for (int i = 20; i < 40; ++i) truth[static_cast<std::size_t>(i)] = 1;
  for (const Partition& partition : result.partitions) {
    if (partition.num_clusters < 2) continue;  // trivial tail level
    EXPECT_DOUBLE_EQ(Purity(partition.labels, truth), 1.0);
  }
}

TEST(Finch, SinglePointIsSingleton) {
  const Tensor point({1, 4}, {1, 2, 3, 4});
  const FinchResult result = Finch(point);
  ASSERT_EQ(result.partitions.size(), 1u);
  EXPECT_EQ(result.Coarsest().num_clusters, 1);
}

TEST(Finch, EmptyInputIsEmptyResult) {
  const FinchResult result = Finch(Tensor({0, 4}));
  EXPECT_TRUE(result.partitions.empty());
}

TEST(Finch, TwoPointsMergeToOneCluster) {
  const Tensor points({2, 2}, {0, 1, 1, 0});
  const FinchResult result = Finch(points, Metric::kEuclidean);
  EXPECT_EQ(result.Coarsest().num_clusters, 1);
}

TEST(Finch, TwoIdenticalPointsMergeToOneCluster) {
  // Zero-distance ties between the only two points must still terminate in
  // a single cluster under both metrics.
  const Tensor points({2, 3}, {2, -1, 4, 2, -1, 4});
  for (const Metric metric : {Metric::kCosine, Metric::kEuclidean}) {
    const FinchResult result = Finch(points, metric);
    ASSERT_FALSE(result.partitions.empty());
    EXPECT_EQ(result.Coarsest().num_clusters, 1);
  }
}

TEST(Finch, AllIdenticalPointsCollapseToOneCluster) {
  // Tiny server-side cohorts can hand FINCH a stack of identical style
  // vectors (all clients share one domain). Every pairwise distance ties at
  // zero; the recursion must terminate and return exactly one cluster whose
  // center is the shared point — this guards the style-interpolation path.
  const std::vector<float> row = {0.5f, -2.0f, 1.25f, 3.0f};
  std::vector<float> values;
  for (int i = 0; i < 6; ++i) values.insert(values.end(), row.begin(), row.end());
  const Tensor points({6, 4}, values);
  for (const Metric metric : {Metric::kCosine, Metric::kEuclidean}) {
    const FinchResult result = Finch(points, metric);
    ASSERT_FALSE(result.partitions.empty());
    const Partition& coarsest = result.Coarsest();
    EXPECT_EQ(coarsest.num_clusters, 1);
    for (const int label : coarsest.labels) EXPECT_EQ(label, 0);
    ASSERT_EQ(coarsest.centers.dim(0), 1);
    for (std::int64_t d = 0; d < 4; ++d) {
      EXPECT_FLOAT_EQ(coarsest.centers.Row(0).data()[static_cast<std::size_t>(d)],
                      row[static_cast<std::size_t>(d)]);
    }
  }
}

TEST(FirstNeighbors, MatchesBruteForceEuclidean) {
  Pcg32 rng(2);
  const Tensor points = Tensor::Gaussian({12, 3}, 0, 1, rng);
  const std::vector<int> kappa = FirstNeighbors(points, Metric::kEuclidean);
  for (std::int64_t i = 0; i < 12; ++i) {
    float best = 1e30f;
    int expected = -1;
    for (std::int64_t j = 0; j < 12; ++j) {
      if (j == i) continue;
      const float d = tensor::SquaredL2Distance(points.Row(i), points.Row(j));
      if (d < best) {
        best = d;
        expected = static_cast<int>(j);
      }
    }
    EXPECT_EQ(kappa[static_cast<std::size_t>(i)], expected);
  }
}

// Property sweep: FINCH invariants hold for arbitrary random inputs.
class FinchPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FinchPropertyTest, PartitionChainInvariants) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 3 + static_cast<int>(rng.NextBounded(60));
  const int d = 2 + static_cast<int>(rng.NextBounded(8));
  const Tensor points = Tensor::Gaussian({n, d}, 0, 1, rng);
  for (const Metric metric : {Metric::kCosine, Metric::kEuclidean}) {
    const FinchResult result = Finch(points, metric);
    ASSERT_FALSE(result.partitions.empty());
    int prev_clusters = n + 1;
    for (const Partition& partition : result.partitions) {
      // Valid partition: every label in range, every cluster non-empty.
      ASSERT_EQ(partition.labels.size(), static_cast<std::size_t>(n));
      std::set<int> used;
      for (const int label : partition.labels) {
        ASSERT_GE(label, 0);
        ASSERT_LT(label, partition.num_clusters);
        used.insert(label);
      }
      EXPECT_EQ(static_cast<int>(used.size()), partition.num_clusters);
      // Cluster counts strictly decrease down the chain.
      EXPECT_LT(partition.num_clusters, prev_clusters);
      prev_clusters = partition.num_clusters;
      // Centers shape.
      EXPECT_EQ(partition.centers.dim(0), partition.num_clusters);
      EXPECT_EQ(partition.centers.dim(1), d);
    }
    // Hierarchy: each coarser partition merges (never splits) finer clusters.
    for (std::size_t level = 1; level < result.partitions.size(); ++level) {
      const Partition& fine = result.partitions[level - 1];
      const Partition& coarse = result.partitions[level];
      std::map<int, int> fine_to_coarse;
      for (int i = 0; i < n; ++i) {
        const int f = fine.labels[static_cast<std::size_t>(i)];
        const int c = coarse.labels[static_cast<std::size_t>(i)];
        const auto it = fine_to_coarse.find(f);
        if (it == fine_to_coarse.end()) {
          fine_to_coarse[f] = c;
        } else {
          EXPECT_EQ(it->second, c) << "fine cluster split across coarse";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, FinchPropertyTest,
                         ::testing::Range(1, 13));

TEST(FinchWithK, HitsRequestedClusterCount) {
  Pcg32 rng(6);
  const Tensor points = TwoBlobs(15, rng);
  for (const int k : {1, 2, 3, 5}) {
    const Partition partition = FinchWithK(points, k, Metric::kEuclidean);
    EXPECT_EQ(partition.num_clusters, k);
    std::set<int> used(partition.labels.begin(), partition.labels.end());
    EXPECT_EQ(static_cast<int>(used.size()), k);
  }
  // k = 2 recovers the blob structure exactly.
  const Partition two = FinchWithK(points, 2, Metric::kEuclidean);
  std::vector<int> truth(30, 0);
  for (int i = 15; i < 30; ++i) truth[static_cast<std::size_t>(i)] = 1;
  EXPECT_DOUBLE_EQ(Purity(two.labels, truth), 1.0);
}

TEST(FinchWithK, RejectsBadK) {
  Pcg32 rng(7);
  const Tensor points = Tensor::Gaussian({6, 2}, 0, 1, rng);
  EXPECT_THROW(FinchWithK(points, 0), std::invalid_argument);
  EXPECT_THROW(FinchWithK(points, 7), std::invalid_argument);
}

TEST(Purity, PerfectAndWorstCase) {
  const std::vector<int> clusters = {0, 0, 1, 1};
  const std::vector<int> truth_match = {5, 5, 7, 7};
  EXPECT_DOUBLE_EQ(Purity(clusters, truth_match), 1.0);
  const std::vector<int> truth_mixed = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(Purity(clusters, truth_mixed), 0.5);
}

TEST(Silhouette, HighForSeparatedLowForMixed) {
  Pcg32 rng(5);
  const Tensor points = TwoBlobs(10, rng);
  std::vector<int> good(20, 0);
  for (int i = 10; i < 20; ++i) good[static_cast<std::size_t>(i)] = 1;
  std::vector<int> bad(20);
  for (int i = 0; i < 20; ++i) bad[static_cast<std::size_t>(i)] = i % 2;
  EXPECT_GT(Silhouette(points, good), 0.8);
  EXPECT_LT(Silhouette(points, bad), Silhouette(points, good));
}

}  // namespace
}  // namespace pardon::clustering
