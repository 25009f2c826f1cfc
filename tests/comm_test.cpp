// Communication layer tests: wire-codec round trips and profile arithmetic.
#include <gtest/gtest.h>

#include "fl/comm.hpp"
#include "fl/compress.hpp"
#include "fl/wire.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace pardon::fl {
namespace {

TEST(WireCodec, ClientUpdateRoundTrip) {
  ClientUpdate update;
  update.params = {1.5f, -2.0f, 3.25f};
  update.num_samples = 42;
  update.loss_before = 1.25;
  update.loss_after = 0.75;
  update.prototypes = tensor::Tensor({2, 3}, {1, 2, 3, 4, 5, 6});
  update.prototype_class = {0, 4};

  const std::vector<std::uint8_t> bytes = EncodeClientUpdate(update);
  const ClientUpdate decoded = DecodeClientUpdate(bytes);
  EXPECT_EQ(decoded.params, update.params);
  EXPECT_EQ(decoded.num_samples, 42);
  EXPECT_DOUBLE_EQ(decoded.loss_before, 1.25);
  EXPECT_DOUBLE_EQ(decoded.loss_after, 0.75);
  EXPECT_EQ(decoded.prototype_class, update.prototype_class);
  EXPECT_EQ(tensor::MaxAbsDiff(decoded.prototypes, update.prototypes), 0.0f);
}

// Also the socket path's payload: a prototype-free update (with and without
// params) through the compressed codec's raw layout.
TEST(WireCodec, EmptyPrototypesRoundTrip) {
  ClientUpdate update;
  update.params = {0.0f};
  update.num_samples = 1;
  const ClientUpdate decoded = DecodeClientUpdate(EncodeClientUpdate(update));
  EXPECT_EQ(decoded.prototypes.size(), 0);
  EXPECT_TRUE(decoded.prototype_class.empty());

  for (const std::vector<float>& params :
       {std::vector<float>{}, std::vector<float>{1.5f, -2.0f}}) {
    update.params = params;
    const ClientUpdate compressed = DecodeClientUpdateCompressed(
        EncodeClientUpdateCompressed(update, {.codec = Codec::kNone}));
    EXPECT_EQ(compressed.params, params);
    EXPECT_EQ(compressed.prototypes.size(), 0);
    EXPECT_TRUE(compressed.prototype_class.empty());
  }
}

// Regression: a zero count used to hand memcpy a null pointer on both the
// encode and the decode side (undefined even for zero bytes; UBSan's
// nonnull-attribute check aborts on it).
TEST(WireCodec, EmptyFloatSectionsRoundTrip) {
  std::vector<std::uint8_t> bytes;
  wire::PutFloats(bytes, nullptr, 0);
  wire::PutFloatsU64(bytes, nullptr, 0);
  ASSERT_EQ(bytes.size(), 4u + 8u);
  std::size_t cursor = 0;
  EXPECT_TRUE(wire::GetFloats(bytes, cursor).empty());
  EXPECT_TRUE(wire::GetFloatsU64(bytes, cursor).empty());
  EXPECT_EQ(cursor, bytes.size());
}

TEST(WireCodec, StyleRoundTrip) {
  style::StyleVector style;
  style.mu = tensor::Tensor({3}, {1, 2, 3});
  style.sigma = tensor::Tensor({3}, {4, 5, 6});
  const style::StyleVector decoded = DecodeStyle(EncodeStyle(style));
  EXPECT_EQ(tensor::MaxAbsDiff(decoded.Flat(), style.Flat()), 0.0f);
}

// Regression (found by fuzz_net_protocol): the prototype-class count is the
// final u32 of the layout, so a ~30-byte blob could announce 2^32-1 entries
// and the decoder would reserve() ~16 GiB before the per-element bounds
// checks ran. The count must be validated against the remaining bytes first.
TEST(WireCodec, OversizedPrototypeCountRejectedBeforeAllocation) {
  ClientUpdate update;
  update.params = {1.0f};
  update.num_samples = 1;
  std::vector<std::uint8_t> bytes = EncodeClientUpdate(update);
  ASSERT_GE(bytes.size(), 4u);
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) bytes[i] = 0xff;
  EXPECT_THROW(DecodeClientUpdate(bytes), wire::WireError);
}

// Regression (found by fuzz_net_protocol): a prototype section whose float
// count is not a multiple of the announced dimension escaped as the tensor
// constructor's std::invalid_argument instead of the codec's typed error.
// Adversarial bytes must always surface as WireError.
TEST(WireCodec, NonMatrixPrototypeSectionThrowsTypedError) {
  ClientUpdate update;
  update.params = {1.0f};
  update.num_samples = 1;
  update.prototypes = tensor::Tensor({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<std::uint8_t> bytes = EncodeClientUpdate(update);
  // Layout ends ... | u32 proto_dim | u32 proto_count(=0); rewrite proto_dim
  // from 3 to 4, which does not divide the 6 floats shipped.
  ASSERT_GE(bytes.size(), 8u);
  bytes[bytes.size() - 8] = 4;
  EXPECT_THROW(DecodeClientUpdate(bytes), wire::WireError);
}

TEST(WireCodec, DecodeRejectsTruncated) {
  ClientUpdate update;
  update.params = {1.0f, 2.0f};
  std::vector<std::uint8_t> bytes = EncodeClientUpdate(update);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(DecodeClientUpdate(bytes), std::runtime_error);
}

TEST(CommProfiles, StructuralClaimsHold) {
  const CommModel model{
      .model_params = 50000,
      .total_clients = 100,
      .participants_per_round = 20,
      .style_channels = 12,
      .num_classes = 7,
      .embed_dim = 48,
      .avg_prototypes_per_client = 5.0,
  };
  const std::vector<CommProfile> profiles = BuildCommProfiles(model);
  ASSERT_EQ(profiles.size(), 6u);

  std::map<std::string, const CommProfile*> by_name;
  for (const CommProfile& p : profiles) by_name[p.method] = &p;

  // Per-round cost: FedSR == FedGMA == base model exchange; FPL and
  // FedDG-GA add per-round payloads.
  EXPECT_EQ(by_name["FedSR"]->PerRoundBytes(), by_name["FedGMA"]->PerRoundBytes());
  EXPECT_GT(by_name["FPL"]->PerRoundBytes(), by_name["FedSR"]->PerRoundBytes());
  EXPECT_GT(by_name["FedDG-GA"]->PerRoundBytes(),
            by_name["FedSR"]->PerRoundBytes());
  // One-time: only the style methods pay; CCST's O(N^2) bank dwarfs FISC's
  // O(N) broadcast.
  EXPECT_EQ(by_name["FedSR"]->OneTimeBytes(), 0);
  EXPECT_GT(by_name["FISC"]->OneTimeBytes(), 0);
  EXPECT_GT(by_name["CCST"]->OneTimeBytes(),
            10 * by_name["FISC"]->OneTimeBytes());
  // FISC adds no per-round overhead over the base exchange.
  EXPECT_EQ(by_name["FISC"]->PerRoundBytes(), by_name["FedSR"]->PerRoundBytes());
  // Total accounting is consistent.
  EXPECT_EQ(by_name["FISC"]->TotalBytes(10),
            by_name["FISC"]->OneTimeBytes() +
                10 * by_name["FISC"]->PerRoundBytes());
}

TEST(CommProfiles, RecordCommProfileMirrorsTotalsIntoRegistry) {
  CommProfile profile{.method = "FISC", .entries = {}};
  profile.entries.push_back({.description = "exchange",
                             .upstream_bytes = 1000,
                             .downstream_bytes = 2000});
  profile.entries.push_back({.description = "styles",
                             .upstream_bytes = 300,
                             .downstream_bytes = 400,
                             .one_time = true});

  // Metrics off: must be a silent no-op.
  ASSERT_EQ(obs::ActiveMetrics(), nullptr);
  RecordCommProfile(profile, 10);

  obs::MetricsRegistry registry;
  obs::SetActiveMetrics(&registry);
  RecordCommProfile(profile, 10);
  obs::SetActiveMetrics(nullptr);

  const std::string labels = "method=\"FISC\"";
  EXPECT_EQ(registry.CounterValue("pardon_comm_one_time_bytes", labels),
            static_cast<double>(profile.OneTimeBytes()));
  EXPECT_EQ(registry.CounterValue("pardon_comm_per_round_bytes", labels),
            static_cast<double>(profile.PerRoundBytes()));
  EXPECT_EQ(registry.CounterValue("pardon_comm_total_bytes",
                                  labels + ",rounds=\"10\""),
            static_cast<double>(profile.TotalBytes(10)));
}

TEST(CommProfiles, CompressedColumnsFallBackToRawWhenUnset) {
  CommEntry entry{.description = "params",
                  .upstream_bytes = 1000,
                  .downstream_bytes = 2000};
  EXPECT_EQ(entry.CompressedUpstream(), 1000);
  EXPECT_EQ(entry.CompressedDownstream(), 2000);

  entry.compressed_upstream_bytes = 40;
  entry.compressed_downstream_bytes = 0;  // 0 is a real value, not "unset"
  EXPECT_EQ(entry.CompressedUpstream(), 40);
  EXPECT_EQ(entry.CompressedDownstream(), 0);
}

TEST(CommProfiles, CompressedSumsMixSetAndUnsetEntries) {
  CommProfile profile{.method = "mixed", .entries = {}};
  profile.entries.push_back({.description = "params",
                             .upstream_bytes = 1000,
                             .downstream_bytes = 1000,
                             .compressed_upstream_bytes = 10,
                             .compressed_downstream_bytes = 1000});
  profile.entries.push_back({.description = "losses",
                             .upstream_bytes = 16,
                             .downstream_bytes = 0});  // ships raw
  profile.entries.push_back({.description = "styles",
                             .upstream_bytes = 500,
                             .downstream_bytes = 600,
                             .compressed_upstream_bytes = 50,
                             .compressed_downstream_bytes = 60,
                             .one_time = true});

  EXPECT_EQ(profile.PerRoundBytes(), 2016);
  EXPECT_EQ(profile.CompressedPerRoundBytes(), 10 + 1000 + 16);
  EXPECT_EQ(profile.OneTimeBytes(), 1100);
  EXPECT_EQ(profile.CompressedOneTimeBytes(), 110);
  EXPECT_EQ(profile.CompressedTotalBytes(5),
            110 + 5 * profile.CompressedPerRoundBytes());
}

TEST(CommProfiles, RecordCommProfileMirrorsCompressedColumns) {
  CommProfile profile{.method = "FedAvg+topk", .entries = {}};
  profile.entries.push_back({.description = "params",
                             .upstream_bytes = 10000,
                             .downstream_bytes = 10000,
                             .compressed_upstream_bytes = 100,
                             .compressed_downstream_bytes = 10000});

  obs::MetricsRegistry registry;
  obs::SetActiveMetrics(&registry);
  RecordCommProfile(profile, 7);
  obs::SetActiveMetrics(nullptr);

  const std::string labels = "method=\"FedAvg+topk\"";
  EXPECT_EQ(
      registry.CounterValue("pardon_comm_per_round_compressed_bytes", labels),
      static_cast<double>(profile.CompressedPerRoundBytes()));
  EXPECT_EQ(
      registry.CounterValue("pardon_comm_one_time_compressed_bytes", labels),
      static_cast<double>(profile.CompressedOneTimeBytes()));
  EXPECT_EQ(registry.CounterValue("pardon_comm_total_compressed_bytes",
                                  labels + ",rounds=\"7\""),
            static_cast<double>(profile.CompressedTotalBytes(7)));
}

}  // namespace
}  // namespace pardon::fl
