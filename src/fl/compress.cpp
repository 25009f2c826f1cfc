#include "fl/compress.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "fl/comm.hpp"
#include "fl/wire.hpp"

namespace pardon::fl {

namespace {

// Decode-side allocation cap for codecs whose payload size is not tied to
// the announced element count (top-k): an adversarial 20-byte blob must not
// be able to demand a multi-gigabyte zero tensor. 2^28 f32 = 1 GiB.
constexpr std::size_t kMaxDecompressElements = 1u << 28;

// Round-half-away-from-zero, explicitly spelled out so quantization does not
// depend on the process floating-point rounding mode.
int QuantizeToInt(float r) {
  const float rounded = r >= 0.0f ? std::floor(r + 0.5f) : std::ceil(r - 0.5f);
  return static_cast<int>(rounded);
}

// Shift right with IEEE round-to-nearest-even on the dropped bits.
std::uint32_t ShiftRightRne(std::uint32_t value, int shift) {
  const std::uint32_t kept = value >> shift;
  const std::uint32_t rem = value & ((1u << shift) - 1u);
  const std::uint32_t half = 1u << (shift - 1);
  if (rem > half || (rem == half && (kept & 1u))) return kept + 1u;
  return kept;
}

void RequireFinite(std::span<const float> values, Codec codec) {
  for (const float v : values) {
    if (!std::isfinite(v)) {
      throw CompressError(std::string("compress: non-finite value under ") +
                          CodecName(codec) +
                          " (no scale/order is defined for NaN or Inf)");
    }
  }
}

}  // namespace

const char* CodecName(Codec codec) {
  switch (codec) {
    case Codec::kNone: return "none";
    case Codec::kInt8: return "int8";
    case Codec::kFp16: return "fp16";
    case Codec::kTopK: return "topk";
  }
  return "unknown";
}

std::optional<Codec> CodecFromName(std::string_view name) {
  if (name == "none") return Codec::kNone;
  if (name == "int8") return Codec::kInt8;
  if (name == "fp16") return Codec::kFp16;
  if (name == "topk") return Codec::kTopK;
  return std::nullopt;
}

std::size_t TopKCount(std::size_t count, const CompressionConfig& config) {
  if (count == 0) return 0;
  const double fraction = std::clamp(config.top_k_fraction, 0.0, 1.0);
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(count)));
  return std::clamp<std::size_t>(k, 1, count);
}

std::uint16_t Fp16FromFloat(float value) {
  const auto f = std::bit_cast<std::uint32_t>(value);
  const auto sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  const std::uint32_t exp = (f >> 23) & 0xffu;
  const std::uint32_t mant = f & 0x007fffffu;
  if (exp == 0xffu) {  // Inf / NaN -> canonical fp16 Inf / quiet NaN
    return static_cast<std::uint16_t>(sign | (mant ? 0x7e00u : 0x7c00u));
  }
  const int he = static_cast<int>(exp) - 127 + 15;
  if (he >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);  // -> Inf
  if (he <= 0) {
    if (he < -10) return sign;  // below half the smallest subnormal -> +-0
    // Subnormal half: the implicit bit joins the mantissa before the shift;
    // a round-up out of the top bit lands exactly on the smallest normal.
    const std::uint32_t full = mant | 0x00800000u;
    return static_cast<std::uint16_t>(sign + ShiftRightRne(full, 14 - he));
  }
  // Normal: drop 13 mantissa bits with RNE; a mantissa carry propagates into
  // the exponent arithmetically (and on to Inf at he == 30).
  return static_cast<std::uint16_t>(
      sign + (static_cast<std::uint32_t>(he) << 10) + ShiftRightRne(mant, 13));
}

float Fp16ToFloat(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  const std::uint32_t exp = (half >> 10) & 0x1fu;
  const std::uint32_t mant = half & 0x3ffu;
  std::uint32_t f = 0;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal: renormalize. value = mant * 2^-24 = 1.m * 2^(-14 - s).
      int shift = 0;
      std::uint32_t m = mant;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++shift;
      }
      f = sign | (static_cast<std::uint32_t>(113 - shift) << 23) |
          ((m & 0x3ffu) << 13);
    }
  } else if (exp == 0x1fu) {
    f = sign | 0x7f800000u | (mant << 13);
  } else {
    f = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(f);
}

std::size_t CompressedSizeBytes(std::size_t count,
                                const CompressionConfig& config) {
  constexpr std::size_t kHeader = 1 + 4;  // codec tag + element count
  switch (config.codec) {
    case Codec::kNone: return kHeader + 4 * count;
    case Codec::kInt8: return kHeader + 4 + count;  // f32 scale + int8 values
    case Codec::kFp16: return kHeader + 2 * count;
    case Codec::kTopK: return kHeader + 4 + 8 * TopKCount(count, config);
  }
  throw CompressError("compress: unknown codec");
}

std::vector<std::uint8_t> CompressFloats(std::span<const float> values,
                                         const CompressionConfig& config) {
  std::vector<std::uint8_t> out;
  out.reserve(CompressedSizeBytes(values.size(), config));
  wire::PutU8(out, static_cast<std::uint8_t>(config.codec));
  if (config.codec == Codec::kNone) {
    // The raw layout is a wire float section: u32 count + f32 values.
    wire::PutFloats(out, values.data(), values.size());
    return out;
  }
  wire::PutU32(out, static_cast<std::uint32_t>(values.size()));
  switch (config.codec) {
    case Codec::kInt8: {
      RequireFinite(values, Codec::kInt8);
      float max_abs = 0.0f;
      for (const float v : values) max_abs = std::max(max_abs, std::fabs(v));
      const float scale = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
      wire::PutF32(out, scale);
      for (const float v : values) {
        const int q =
            scale > 0.0f ? std::clamp(QuantizeToInt(v / scale), -127, 127) : 0;
        out.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(q)));
      }
      break;
    }
    case Codec::kFp16: {
      for (const float v : values) wire::PutU16(out, Fp16FromFloat(v));
      break;
    }
    case Codec::kTopK: {
      RequireFinite(values, Codec::kTopK);
      const std::size_t k = TopKCount(values.size(), config);
      wire::PutU32(out, static_cast<std::uint32_t>(k));
      // Deterministic selection: magnitude descending, index ascending on
      // ties; shipped in index order so decode can validate monotonicity.
      std::vector<std::uint32_t> order(values.size());
      std::iota(order.begin(), order.end(), 0u);
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(k),
                        order.end(),
                        [&](std::uint32_t a, std::uint32_t b) {
                          const float fa = std::fabs(values[a]);
                          const float fb = std::fabs(values[b]);
                          if (fa != fb) return fa > fb;
                          return a < b;
                        });
      order.resize(k);
      std::sort(order.begin(), order.end());
      for (const std::uint32_t index : order) {
        wire::PutU32(out, index);
        wire::PutF32(out, values[index]);
      }
      break;
    }
    default:
      throw CompressError("compress: unknown codec");
  }
  return out;
}

std::vector<float> DecompressFloats(std::span<const std::uint8_t> bytes) {
  std::size_t cursor = 0;
  const std::uint8_t tag = wire::GetU8(bytes, cursor);
  // Every codec's section opens with the u32 element count.
  const std::size_t section = cursor;
  const std::uint32_t count = wire::GetU32(bytes, cursor);
  std::vector<float> values;
  switch (static_cast<Codec>(tag)) {
    case Codec::kNone:
      // The raw layout is a wire float section: u32 count + f32 values.
      cursor = section;
      values = wire::GetFloats(bytes, cursor);
      break;
    case Codec::kInt8: {
      const float scale = wire::GetF32(bytes, cursor);
      if (!std::isfinite(scale) || scale < 0.0f) {
        throw CompressError("compress: corrupt int8 scale");
      }
      wire::CheckAvail(bytes, cursor, count, "int8 payload");
      values.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto q = static_cast<std::int8_t>(bytes[cursor + i]);
        values[i] = static_cast<float>(q) * scale;
      }
      cursor += count;
      break;
    }
    case Codec::kFp16: {
      wire::CheckAvail(bytes, cursor, static_cast<std::size_t>(count) * 2,
                       "fp16 payload");
      values.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::size_t c = cursor + static_cast<std::size_t>(i) * 2;
        values[i] = Fp16ToFloat(wire::GetU16(bytes, c));
      }
      cursor += static_cast<std::size_t>(count) * 2;
      break;
    }
    case Codec::kTopK: {
      if (count > kMaxDecompressElements) {
        throw CompressError("compress: top-k element count " +
                            std::to_string(count) + " exceeds decode limit");
      }
      const std::uint32_t k = wire::GetU32(bytes, cursor);
      if (k > count) {
        throw CompressError("compress: top-k k exceeds element count");
      }
      wire::CheckAvail(bytes, cursor, static_cast<std::size_t>(k) * 8,
                       "top-k payload");
      values.assign(count, 0.0f);
      std::int64_t previous = -1;
      for (std::uint32_t i = 0; i < k; ++i) {
        const std::uint32_t index = wire::GetU32(bytes, cursor);
        const float value = wire::GetF32(bytes, cursor);
        if (index >= count || static_cast<std::int64_t>(index) <= previous) {
          throw CompressError(
              "compress: top-k indices not strictly increasing in range");
        }
        previous = index;
        values[index] = value;
      }
      break;
    }
    default:
      throw CompressError("compress: unknown codec tag " +
                          std::to_string(tag));
  }
  if (cursor != bytes.size()) {
    throw CompressError("compress: trailing bytes after payload");
  }
  return values;
}

std::vector<std::uint8_t> EncodeClientUpdateCompressed(
    const ClientUpdate& update, const CompressionConfig& config) {
  std::vector<std::uint8_t> out;
  out.reserve(CompressedSizeBytes(update.params.size(), config) + 64);
  wire::PutBytes(out, CompressFloats(update.params, config));
  wire::PutU32(out, static_cast<std::uint32_t>(update.num_samples));
  wire::PutF64(out, update.loss_before);
  wire::PutF64(out, update.loss_after);
  wire::PutFloats(out, update.prototypes.data(),
                  static_cast<std::size_t>(update.prototypes.size()));
  wire::PutU32(out, static_cast<std::uint32_t>(
                        update.prototypes.rank() == 2 ? update.prototypes.dim(1)
                                                      : 0));
  wire::PutU32(out, static_cast<std::uint32_t>(update.prototype_class.size()));
  for (const int c : update.prototype_class) {
    wire::PutU32(out, static_cast<std::uint32_t>(c));
  }
  return out;
}

ClientUpdate DecodeClientUpdateCompressed(
    std::span<const std::uint8_t> bytes) {
  ClientUpdate update;
  std::size_t cursor = 0;
  update.params = DecompressFloats(wire::GetBytes(bytes, cursor));
  update.num_samples = wire::GetU32(bytes, cursor);
  update.loss_before = wire::GetF64(bytes, cursor);
  update.loss_after = wire::GetF64(bytes, cursor);
  const std::vector<float> proto_values = wire::GetFloats(bytes, cursor);
  const std::uint32_t proto_dim = wire::GetU32(bytes, cursor);
  const std::uint32_t proto_count = wire::GetU32(bytes, cursor);
  // Validate the announced count against the bytes actually present before
  // allocating: a corrupted header must not be able to demand gigabytes.
  wire::CheckAvail(bytes, cursor, static_cast<std::size_t>(proto_count) * 4,
                   "prototype class section");
  update.prototype_class.reserve(proto_count);
  for (std::uint32_t i = 0; i < proto_count; ++i) {
    update.prototype_class.push_back(
        static_cast<int>(wire::GetU32(bytes, cursor)));
  }
  if (proto_dim > 0 && !proto_values.empty()) {
    if (proto_values.size() % proto_dim != 0) {
      throw CompressError("compress: prototype section not a [P, D] matrix");
    }
    update.prototypes = tensor::Tensor(
        {static_cast<std::int64_t>(proto_values.size() / proto_dim),
         static_cast<std::int64_t>(proto_dim)},
        proto_values);
  }
  if (cursor != bytes.size()) {
    throw CompressError("compress: trailing bytes after client update");
  }
  return update;
}

CompressingAlgorithm::CompressingAlgorithm(std::unique_ptr<Algorithm> inner,
                                           CompressionConfig config)
    : inner_(std::move(inner)), config_(config) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("CompressingAlgorithm: null inner algorithm");
  }
}

std::string CompressingAlgorithm::Name() const {
  return inner_->Name() + "+" + CodecName(config_.codec);
}

void CompressingAlgorithm::Setup(const FlContext& context) {
  inner_->Setup(context);
}

ClientUpdate CompressingAlgorithm::TrainClient(
    int client_id, const data::Dataset& data,
    const nn::MlpClassifier& global_model, int round, tensor::Pcg32& rng) {
  ClientUpdate update =
      inner_->TrainClient(client_id, data, global_model, round, rng);
  const std::vector<std::uint8_t> blob =
      EncodeClientUpdateCompressed(update, config_);
  raw_bytes_.fetch_add(
      static_cast<std::int64_t>(EncodeClientUpdate(update).size()),
      std::memory_order_relaxed);
  wire_bytes_.fetch_add(static_cast<std::int64_t>(blob.size()),
                        std::memory_order_relaxed);
  ClientUpdate decoded = DecodeClientUpdateCompressed(blob);
  decoded.train_seconds = update.train_seconds;  // measured, not on the wire
  return decoded;
}

std::vector<float> CompressingAlgorithm::Aggregate(
    std::span<const float> global_params, std::span<const ClientUpdate> updates,
    std::span<const int> client_ids, int round) {
  return inner_->Aggregate(global_params, updates, client_ids, round);
}

std::vector<std::uint8_t> CompressingAlgorithm::SaveRoundState() const {
  return inner_->SaveRoundState();
}

void CompressingAlgorithm::LoadRoundState(
    std::span<const std::uint8_t> state) {
  inner_->LoadRoundState(state);
}

bool CompressingAlgorithm::SupportsStreamingAggregation() const {
  return inner_->SupportsStreamingAggregation();
}

}  // namespace pardon::fl
