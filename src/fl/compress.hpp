// Update-payload compression codecs: int8 / fp16 quantization and top-k
// sparsification for the bytes-on-the-wire axis of the communication bench
// and the socket transport (src/net).
//
// Contract (enforced by tests/compress_test.cpp):
//   - Deterministic: the same input always produces the same bytes — no
//     wall-clock, no randomness, explicit rounding rules — so compressed
//     runs stay reproducible bit-for-bit.
//   - Exact decode: DecompressFloats returns exactly the values the codec
//     committed to (q * scale for int8, the widened half for fp16, the kept
//     coordinates for top-k; zeros elsewhere). Compression is lossy;
//     decoding is not.
//   - NaN/Inf-safe: kFp16 preserves non-finite values (as fp16 ±Inf / NaN);
//     kInt8 and kTopK reject non-finite input with CompressError, since no
//     scale or magnitude order is defined for them. Decoding adversarial
//     bytes (truncated, flipped, oversized length) throws CompressError and
//     never reads out of bounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fl/algorithm.hpp"
#include "fl/wire.hpp"

namespace pardon::fl {

// Typed compression failure: non-finite input to a codec that cannot
// represent it, or a malformed/truncated/corrupt blob on decode. It is the
// wire codec's decode error, so truncation caught by fl::wire needs no
// re-wrapping.
using CompressError = wire::WireError;

enum class Codec : std::uint8_t {
  kNone = 0,  // raw f32 passthrough (5-byte header of overhead)
  kInt8 = 1,  // symmetric per-tensor int8: f32 scale + one byte per value
  kFp16 = 2,  // IEEE 754 half, round-to-nearest-even
  kTopK = 3,  // k largest-|x| coordinates as (u32 index, f32 value) pairs
};

const char* CodecName(Codec codec);
// Parses "none" / "int8" / "fp16" / "topk"; nullopt for anything else.
std::optional<Codec> CodecFromName(std::string_view name);

struct CompressionConfig {
  Codec codec = Codec::kNone;
  // Fraction of coordinates kTopK keeps, in (0, 1]; at least one coordinate
  // is always kept. Ignored by the other codecs.
  double top_k_fraction = 0.01;
};

// Coordinates kTopK keeps for `count` values under `config`.
std::size_t TopKCount(std::size_t count, const CompressionConfig& config);

// Self-describing blob: u8 codec tag, u32 element count, codec payload.
std::vector<std::uint8_t> CompressFloats(std::span<const float> values,
                                         const CompressionConfig& config);
std::vector<float> DecompressFloats(std::span<const std::uint8_t> bytes);

// Exact blob size for `count` values without materializing it.
std::size_t CompressedSizeBytes(std::size_t count,
                                const CompressionConfig& config);

// ClientUpdate wire codec with the params section (the dominant payload)
// routed through `config`; everything else (sample count, losses,
// prototypes) ships raw exactly as EncodeClientUpdate does. With
// Codec::kNone the round trip is lossless and bitwise.
std::vector<std::uint8_t> EncodeClientUpdateCompressed(
    const ClientUpdate& update, const CompressionConfig& config);
ClientUpdate DecodeClientUpdateCompressed(std::span<const std::uint8_t> bytes);

// IEEE 754 binary16 conversion primitives (round-to-nearest-even, overflow
// to ±Inf, NaN to a canonical quiet NaN preserving the sign). Exposed for
// tests; every fp16 value widens back to f32 exactly.
std::uint16_t Fp16FromFloat(float value);
float Fp16ToFloat(std::uint16_t half);

// Algorithm decorator that simulates the wire inside the in-process
// simulator: each trained update is encoded under the codec and decoded
// again before the server sees it, so aggregation consumes exactly what a
// real receiver would reconstruct — the accuracy-vs-bytes rows in
// bench_comm_overhead come from runs wrapped in this. Byte accounting
// (raw vs wire) accumulates across concurrent TrainClient calls.
class CompressingAlgorithm : public Algorithm {
 public:
  CompressingAlgorithm(std::unique_ptr<Algorithm> inner,
                       CompressionConfig config);

  std::string Name() const override;
  void Setup(const FlContext& context) override;
  ClientUpdate TrainClient(int client_id, const data::Dataset& data,
                           const nn::MlpClassifier& global_model, int round,
                           tensor::Pcg32& rng) override;
  std::vector<float> Aggregate(std::span<const float> global_params,
                               std::span<const ClientUpdate> updates,
                               std::span<const int> client_ids,
                               int round) override;
  std::vector<std::uint8_t> SaveRoundState() const override;
  void LoadRoundState(std::span<const std::uint8_t> state) override;
  bool SupportsStreamingAggregation() const override;

  // Cumulative upstream payload bytes across all TrainClient calls: what the
  // updates would cost raw (EncodeClientUpdate) vs under the codec.
  std::int64_t raw_bytes() const {
    return raw_bytes_.load(std::memory_order_relaxed);
  }
  std::int64_t wire_bytes() const {
    return wire_bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<Algorithm> inner_;
  CompressionConfig config_;
  std::atomic<std::int64_t> raw_bytes_{0};
  std::atomic<std::int64_t> wire_bytes_{0};
};

}  // namespace pardon::fl
