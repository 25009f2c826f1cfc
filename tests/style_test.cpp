// Style module tests: style statistics, the frozen encoder/decoder pair,
// AdaIN (with its exact postcondition), interpolation extraction, the
// Gaussian perturbation mechanism, and the round-invariant transfer cache.
// Includes parameterized AdaIN sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/dataset.hpp"
#include "style/adain.hpp"
#include "style/encoder.hpp"
#include "style/interpolate.hpp"
#include "style/perturb.hpp"
#include "style/style_stats.hpp"
#include "style/transfer_cache.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace pardon::style {
namespace {

using tensor::Pcg32;
using tensor::Tensor;

TEST(StyleVector, FlatRoundTrip) {
  StyleVector style;
  style.mu = Tensor({3}, {1, 2, 3});
  style.sigma = Tensor({3}, {4, 5, 6});
  const StyleVector back = StyleVector::FromFlat(style.Flat());
  EXPECT_EQ(tensor::MaxAbsDiff(style.mu, back.mu), 0.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(style.sigma, back.sigma), 0.0f);
}

TEST(StyleVector, FromFlatRejectsOddLength) {
  EXPECT_THROW(StyleVector::FromFlat(Tensor({3})), std::invalid_argument);
}

TEST(ComputeStyle, MatchesChannelStatistics) {
  const Tensor fm({2, 1, 4}, {1, 1, 1, 1, 0, 2, 0, 2});
  const StyleVector style = ComputeStyle(fm, 0.0f);
  EXPECT_NEAR(style.mu[0], 1.0f, 1e-6f);
  EXPECT_NEAR(style.mu[1], 1.0f, 1e-6f);
  EXPECT_NEAR(style.sigma[0], 0.0f, 1e-3f);
  EXPECT_NEAR(style.sigma[1], 1.0f, 1e-5f);
}

TEST(PooledStyle, PoolsAcrossMaps) {
  // Map A: constant 0; map B: constant 2. Pooled mean = 1, pooled std = 1.
  const Tensor a = Tensor::Zeros({1, 2, 2});
  const Tensor b = Tensor::Full({1, 2, 2}, 2.0f);
  const std::vector<Tensor> maps = {a, b};
  const StyleVector pooled = PooledStyle(maps, 0.0f);
  EXPECT_NEAR(pooled.mu[0], 1.0f, 1e-6f);
  EXPECT_NEAR(pooled.sigma[0], 1.0f, 1e-5f);
  // NOT the average of per-map stds (which would be 0).
}

TEST(AverageStyles, ElementWiseMean) {
  StyleVector a{.mu = Tensor({1}, {0.0f}), .sigma = Tensor({1}, {1.0f})};
  StyleVector b{.mu = Tensor({1}, {4.0f}), .sigma = Tensor({1}, {3.0f})};
  const std::vector<StyleVector> styles = {a, b};
  const StyleVector avg = AverageStyles(styles);
  EXPECT_FLOAT_EQ(avg.mu[0], 2.0f);
  EXPECT_FLOAT_EQ(avg.sigma[0], 2.0f);
}

// ---- AdaIN ------------------------------------------------------------------

class AdaInPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaInPropertyTest, OutputWearsExactlyTheTargetStyle) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  const std::int64_t c = 1 + rng.NextBounded(6);
  const std::int64_t h = 2 + rng.NextBounded(6);
  const std::int64_t w = 2 + rng.NextBounded(6);
  const Tensor features = Tensor::Gaussian({c, h, w}, 1.0f, 2.0f, rng);
  StyleVector target;
  target.mu = Tensor::Gaussian({c}, 0.0f, 3.0f, rng);
  target.sigma = tensor::AddScalar(
      tensor::Abs(Tensor::Gaussian({c}, 0.0f, 1.0f, rng)), 0.2f);

  const Tensor out = AdaIn(features, target);
  const StyleVector result = ComputeStyle(out, 0.0f);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    EXPECT_NEAR(result.mu[ch], target.mu[ch], 5e-3f);
    EXPECT_NEAR(result.sigma[ch], target.sigma[ch], 5e-2f);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, AdaInPropertyTest,
                         ::testing::Range(1, 11));

TEST(AdaIn, IdentityWhenTargetIsOwnStyle) {
  Pcg32 rng(1);
  const Tensor features = Tensor::Gaussian({3, 4, 4}, 0.0f, 1.0f, rng);
  const Tensor out = AdaIn(features, ComputeStyle(features));
  EXPECT_LT(tensor::MaxAbsDiff(out, features), 1e-3f);
}

TEST(AdaIn, RejectsChannelMismatch) {
  const Tensor features({2, 2, 2});
  StyleVector wrong{.mu = Tensor({3}), .sigma = Tensor::Ones({3})};
  EXPECT_THROW(AdaIn(features, wrong), std::invalid_argument);
}

// ---- FrozenEncoder -----------------------------------------------------------

TEST(FrozenEncoder, DeterministicAcrossInstances) {
  const FrozenEncoder::Config config{
      .in_channels = 4, .feature_channels = 8, .pool = 2, .seed = 42};
  const FrozenEncoder a(config), b(config);
  Pcg32 rng(2);
  const Tensor image = Tensor::Gaussian({4, 8, 8}, 0, 1, rng);
  EXPECT_EQ(tensor::MaxAbsDiff(a.Encode(image), b.Encode(image)), 0.0f);
}

TEST(FrozenEncoder, ShapesFollowConfig) {
  const FrozenEncoder encoder(
      {.in_channels = 6, .feature_channels = 12, .pool = 2, .seed = 7});
  Pcg32 rng(3);
  const Tensor image = Tensor::Gaussian({6, 8, 8}, 0, 1, rng);
  const Tensor features = encoder.Encode(image);
  EXPECT_EQ(features.dim(0), 12);
  EXPECT_EQ(features.dim(1), 4);
  EXPECT_EQ(features.dim(2), 4);
  const Tensor decoded = encoder.Decode(features);
  EXPECT_EQ(decoded.shape(), image.shape());
}

TEST(FrozenEncoder, DecodeInvertsEncodeWithoutPooling) {
  // pool = 1 and feature_channels >= in_channels: the channel mixing is
  // exactly invertible via the pseudo-inverse.
  const FrozenEncoder encoder(
      {.in_channels = 4, .feature_channels = 8, .pool = 1, .seed = 9});
  Pcg32 rng(4);
  const Tensor image = Tensor::Gaussian({4, 4, 4}, 0, 1, rng);
  const Tensor round_trip = encoder.Decode(encoder.Encode(image));
  EXPECT_LT(tensor::MaxAbsDiff(round_trip, image), 1e-3f);
}

TEST(FrozenEncoder, StyleReflectsInputAffineShift) {
  const FrozenEncoder encoder(
      {.in_channels = 3, .feature_channels = 6, .pool = 1, .seed = 11});
  Pcg32 rng(5);
  const Tensor image = Tensor::Gaussian({3, 6, 6}, 0, 1, rng);
  Tensor shifted = image;
  for (std::int64_t i = 0; i < shifted.size(); ++i) shifted[i] = shifted[i] * 2 + 1;
  const StyleVector s1 = encoder.EncodeStyle(image);
  const StyleVector s2 = encoder.EncodeStyle(shifted);
  // A global affine change of the input must move the feature style.
  EXPECT_GT(tensor::MaxAbsDiff(s1.mu, s2.mu), 0.1f);
}

TEST(FrozenEncoder, RejectsBadShapes) {
  const FrozenEncoder encoder(
      {.in_channels = 3, .feature_channels = 6, .pool = 2, .seed = 1});
  EXPECT_THROW(encoder.Encode(Tensor({4, 8, 8})), std::invalid_argument);
  EXPECT_THROW(encoder.Encode(Tensor({3, 7, 8})), std::invalid_argument);
  EXPECT_THROW(encoder.Decode(Tensor({5, 4, 4})), std::invalid_argument);
}

TEST(StyleTransferImage, MovesFeatureStyleToTarget) {
  const FrozenEncoder encoder(
      {.in_channels = 3, .feature_channels = 6, .pool = 1, .seed = 13});
  Pcg32 rng(6);
  const Tensor image = Tensor::Gaussian({3, 6, 6}, 0, 1, rng);
  StyleVector target;
  target.mu = Tensor::Gaussian({6}, 0, 2, rng);
  target.sigma = tensor::AddScalar(
      tensor::Abs(Tensor::Gaussian({6}, 0, 1, rng)), 0.2f);
  const Tensor transferred = StyleTransferImage(image, target, encoder);
  const StyleVector result = encoder.EncodeStyle(transferred);
  // The decoder can only realize styles representable in image space (the
  // 6-channel feature style lives partly outside the 3-channel image's
  // span — exactly as a real AdaIN decoder cannot hit arbitrary styles), so
  // the postcondition is "much closer to the target than the original was",
  // not exact equality.
  const StyleVector original = encoder.EncodeStyle(image);
  const float before =
      tensor::SquaredL2Distance(original.Flat(), target.Flat());
  const float after = tensor::SquaredL2Distance(result.Flat(), target.Flat());
  EXPECT_LT(after, 0.6f * before);
}

TEST(StyleTransferBatch, PreservesBatchLayout) {
  const FrozenEncoder encoder(
      {.in_channels = 3, .feature_channels = 6, .pool = 2, .seed = 15});
  Pcg32 rng(7);
  const Tensor images = Tensor::Gaussian({5, 3 * 4 * 4}, 0, 1, rng);
  StyleVector target;
  target.mu = Tensor({6});
  target.sigma = Tensor::Ones({6});
  const Tensor out = StyleTransferBatch(images, target, encoder, 3, 4, 4);
  EXPECT_EQ(out.shape(), images.shape());
  EXPECT_TRUE(tensor::AllFinite(out));
}

// ---- Interpolation -------------------------------------------------------------

TEST(ExtractInterpolationStyle, MedianResistsOutlier) {
  std::vector<StyleVector> styles;
  for (int i = 0; i < 5; ++i) {
    StyleVector s;
    s.mu = Tensor({2}, {static_cast<float>(i % 2), 0.0f});
    s.sigma = Tensor::Ones({2});
    styles.push_back(s);
  }
  // Outlier client.
  styles.push_back({.mu = Tensor({2}, {1000.0f, 1000.0f}),
                    .sigma = Tensor({2}, {500.0f, 500.0f})});
  const InterpolationResult median = ExtractInterpolationStyle(
      styles, {.cluster = false, .center = CenterMethod::kMedian});
  const InterpolationResult mean = ExtractInterpolationStyle(
      styles, {.cluster = false, .center = CenterMethod::kMean});
  EXPECT_LT(median.global_style.mu[0], 2.0f);
  EXPECT_GT(mean.global_style.mu[0], 100.0f);
}

TEST(ExtractInterpolationStyle, ClusteringDeduplicatesSharedDomains) {
  // Three domains with unequal client counts: 8 clients of domain A
  // (mu ~ 0), 2 of domain B (mu ~ 5), 2 of domain C (mu ~ 10), each domain's
  // styles tight and directionally distinct. The flat client-level median is
  // A's style (the 50th percentile of 12 clients); the clustered median
  // treats each DOMAIN cluster equally and lands near B — low-cardinality
  // domains engage in the interpolation style, the paper's stated goal.
  std::vector<StyleVector> styles;
  Pcg32 rng(8);
  const auto add_clients = [&](int count, float level, float sigma_level) {
    for (int i = 0; i < count; ++i) {
      StyleVector s;
      s.mu = Tensor({4});
      for (std::int64_t c = 0; c < 4; ++c) {
        s.mu[c] = level + 0.05f * rng.NextGaussian();
      }
      s.sigma = Tensor::Full({4}, sigma_level);
      styles.push_back(s);
    }
  };
  add_clients(8, 0.0f, 1.0f);
  add_clients(2, 5.0f, 2.0f);
  add_clients(2, 10.0f, 3.0f);

  const InterpolationResult clustered = ExtractInterpolationStyle(styles, {});
  const InterpolationResult flat =
      ExtractInterpolationStyle(styles, {.cluster = false});
  EXPECT_GE(clustered.num_style_clusters, 2);
  EXPECT_GT(clustered.global_style.mu[0], 2.0f);
  EXPECT_LT(flat.global_style.mu[0], 1.0f);
}

class InterpolationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(InterpolationPropertyTest, MedianWithinClusterStyleEnvelope) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  const int clients = 2 + static_cast<int>(rng.NextBounded(20));
  const std::int64_t channels = 2 + rng.NextBounded(8);
  std::vector<StyleVector> styles;
  for (int i = 0; i < clients; ++i) {
    StyleVector s;
    s.mu = Tensor::Gaussian({channels}, 0.0f, 2.0f, rng);
    s.sigma = tensor::AddScalar(
        tensor::Abs(Tensor::Gaussian({channels}, 0.0f, 1.0f, rng)), 0.1f);
    styles.push_back(s);
  }
  const InterpolationResult result = ExtractInterpolationStyle(styles, {});
  // Element-wise: the median of cluster styles is bounded by the cluster
  // styles' envelope, which in turn lies within the client styles' envelope
  // (cluster centers are means of client styles).
  const Tensor global = result.global_style.Flat();
  for (std::int64_t c = 0; c < global.size(); ++c) {
    float lo = styles[0].Flat()[c], hi = lo;
    for (const StyleVector& s : styles) {
      lo = std::min(lo, s.Flat()[c]);
      hi = std::max(hi, s.Flat()[c]);
    }
    EXPECT_GE(global[c], lo - 1e-4f);
    EXPECT_LE(global[c], hi + 1e-4f);
  }
  EXPECT_GE(result.num_style_clusters, 1);
  EXPECT_LE(result.num_style_clusters, clients);
}

INSTANTIATE_TEST_SUITE_P(RandomClientSets, InterpolationPropertyTest,
                         ::testing::Range(1, 9));

TEST(ExtractInterpolationStyle, SigmaStaysPositive) {
  std::vector<StyleVector> styles(3);
  for (auto& s : styles) {
    s.mu = Tensor({2});
    s.sigma = Tensor::Full({2}, 1e-9f);
  }
  const InterpolationResult result = ExtractInterpolationStyle(styles, {});
  for (std::int64_t c = 0; c < 2; ++c) {
    EXPECT_GT(result.global_style.sigma[c], 0.0f);
  }
}

TEST(ExtractInterpolationStyle, RejectsEmpty) {
  EXPECT_THROW(ExtractInterpolationStyle({}), std::invalid_argument);
}

// ---- Perturbation ---------------------------------------------------------------

TEST(PerturbStyle, ZeroCoefficientIsIdentity) {
  Pcg32 rng(9);
  StyleVector style{.mu = Tensor({3}, {1, 2, 3}), .sigma = Tensor::Ones({3})};
  const StyleVector out = PerturbStyle(style, {}, rng);
  EXPECT_EQ(tensor::MaxAbsDiff(style.mu, out.mu), 0.0f);
}

TEST(PerturbStyle, NoiseScalesWithParameters) {
  Pcg32 rng_small(10), rng_large(10);
  StyleVector style{.mu = Tensor({64}), .sigma = Tensor::Ones({64})};
  const StyleVector small = PerturbStyle(
      style, {.coefficient = 0.1f, .scale = 0.02f}, rng_small);
  const StyleVector large = PerturbStyle(
      style, {.coefficient = 0.1f, .scale = 0.5f}, rng_large);
  EXPECT_LT(tensor::L2Norm(small.mu), tensor::L2Norm(large.mu));
}

TEST(PerturbStyle, SigmaNeverGoesNonPositive) {
  Pcg32 rng(11);
  StyleVector style{.mu = Tensor({128}),
                    .sigma = Tensor::Full({128}, 0.01f)};
  const StyleVector out =
      PerturbStyle(style, {.coefficient = 1.0f, .scale = 5.0f}, rng);
  for (std::int64_t c = 0; c < 128; ++c) EXPECT_GT(out.sigma[c], 0.0f);
}

// -- TransferCache ----------------------------------------------------------

struct TransferCacheFixture {
  TransferCacheFixture()
      : shape{.channels = 4, .height = 8, .width = 8},
        dataset(shape, /*num_classes=*/3, /*num_domains=*/2),
        encoder({.in_channels = 4, .feature_channels = 8, .pool = 2,
                 .seed = 7}) {
    Pcg32 rng(42);
    for (int i = 0; i < 10; ++i) {
      dataset.Add(Tensor::Gaussian({shape.FlatDim()}, 0, 1, rng), i % 3,
                  i % 2);
    }
    target.mu = Tensor::Gaussian({8}, 0, 1, rng);
    target.sigma =
        tensor::AddScalar(tensor::Abs(Tensor::Gaussian({8}, 0, 1, rng)), 0.1f);
  }
  data::ImageShape shape;
  data::Dataset dataset;
  FrozenEncoder encoder;
  StyleVector target;
};

TEST(TransferCache, MatchesStyleTransferBatchBitwise) {
  const TransferCacheFixture f;
  const TransferCache cache(f.dataset, f.target, f.encoder);
  EXPECT_TRUE(cache.fully_cached());
  EXPECT_EQ(cache.cached_count(), 10);

  const std::vector<int> indices = {3, 0, 7, 7, 9};
  const Tensor cached = cache.GatherTransferred(indices);
  const Tensor reference = StyleTransferBatch(
      f.dataset.images().Gather(indices), f.target, f.encoder,
      f.shape.channels, f.shape.height, f.shape.width);
  EXPECT_EQ(cached.shape(), reference.shape());
  EXPECT_EQ(tensor::MaxAbsDiff(cached, reference), 0.0f);
}

TEST(TransferCache, BudgetLimitsMaterializationButNotResults) {
  const TransferCacheFixture f;
  const std::size_t bytes_per_sample =
      static_cast<std::size_t>(f.shape.FlatDim()) * sizeof(float);
  const TransferCache partial(
      f.dataset, f.target, f.encoder,
      {.memory_budget_bytes = 4 * bytes_per_sample + 1});
  EXPECT_EQ(partial.cached_count(), 4);
  EXPECT_FALSE(partial.fully_cached());
  EXPECT_EQ(partial.cached_bytes(), 4 * bytes_per_sample);

  // Lazy samples (indices >= 4) are bitwise identical to cached ones.
  const TransferCache full(f.dataset, f.target, f.encoder);
  std::vector<int> all(10);
  for (int i = 0; i < 10; ++i) all[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(tensor::MaxAbsDiff(partial.GatherTransferred(all),
                               full.GatherTransferred(all)),
            0.0f);
}

TEST(TransferCache, ParallelBuildMatchesSerial) {
  const TransferCacheFixture f;
  util::ThreadPool pool(4);
  const TransferCache parallel_cache(f.dataset, f.target, f.encoder,
                                     {.pool = &pool});
  const TransferCache serial_cache(f.dataset, f.target, f.encoder);
  std::vector<int> all(10);
  for (int i = 0; i < 10; ++i) all[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(tensor::MaxAbsDiff(parallel_cache.GatherTransferred(all),
                               serial_cache.GatherTransferred(all)),
            0.0f);
}

TEST(TransferCache, GatherRejectsOutOfRangeIndices) {
  const TransferCacheFixture f;
  const TransferCache cache(f.dataset, f.target, f.encoder);
  const std::vector<int> bad = {0, 10};
  EXPECT_THROW(cache.GatherTransferred(bad), std::out_of_range);
}

}  // namespace
}  // namespace pardon::style
