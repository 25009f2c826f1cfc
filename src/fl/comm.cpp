#include "fl/comm.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "fl/wire.hpp"
#include "obs/metrics.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pardon::fl {

namespace {
constexpr std::int64_t kFloat = 4;

using wire::GetF64;
using wire::GetFloats;
using wire::GetU32;
using wire::PutF64;
using wire::PutFloats;
using wire::PutU32;
}  // namespace

std::vector<std::uint8_t> EncodeClientUpdate(const ClientUpdate& update) {
  std::vector<std::uint8_t> out;
  out.reserve(update.params.size() * 4 + 64);
  PutFloats(out, update.params.data(), update.params.size());
  PutU32(out, static_cast<std::uint32_t>(update.num_samples));
  PutF64(out, update.loss_before);
  PutF64(out, update.loss_after);
  PutFloats(out, update.prototypes.data(),
            static_cast<std::size_t>(update.prototypes.size()));
  PutU32(out, static_cast<std::uint32_t>(update.prototypes.rank() == 2
                                             ? update.prototypes.dim(1)
                                             : 0));
  PutU32(out, static_cast<std::uint32_t>(update.prototype_class.size()));
  for (const int c : update.prototype_class) {
    PutU32(out, static_cast<std::uint32_t>(c));
  }
  return out;
}

ClientUpdate DecodeClientUpdate(const std::vector<std::uint8_t>& bytes) {
  ClientUpdate update;
  std::size_t cursor = 0;
  update.params = GetFloats(bytes, cursor);
  update.num_samples = GetU32(bytes, cursor);
  update.loss_before = GetF64(bytes, cursor);
  update.loss_after = GetF64(bytes, cursor);
  const std::vector<float> proto_values = GetFloats(bytes, cursor);
  const std::uint32_t proto_dim = GetU32(bytes, cursor);
  const std::uint32_t proto_count = GetU32(bytes, cursor);
  // Validate the announced count against the bytes actually present before
  // allocating: a corrupted header must not be able to demand gigabytes.
  wire::CheckAvail(bytes, cursor, static_cast<std::size_t>(proto_count) * 4,
                   "prototype class section");
  update.prototype_class.reserve(proto_count);
  for (std::uint32_t i = 0; i < proto_count; ++i) {
    update.prototype_class.push_back(static_cast<int>(GetU32(bytes, cursor)));
  }
  if (proto_dim > 0 && !proto_values.empty()) {
    if (proto_values.size() % proto_dim != 0) {
      throw wire::WireError("wire: prototype section not a [P, D] matrix");
    }
    update.prototypes = tensor::Tensor(
        {static_cast<std::int64_t>(proto_values.size() / proto_dim),
         static_cast<std::int64_t>(proto_dim)},
        proto_values);
  }
  return update;
}

std::vector<std::uint8_t> EncodeStyle(const style::StyleVector& style) {
  std::vector<std::uint8_t> out;
  const tensor::Tensor flat = style.Flat();
  PutFloats(out, flat.data(), static_cast<std::size_t>(flat.size()));
  return out;
}

style::StyleVector DecodeStyle(const std::vector<std::uint8_t>& bytes) {
  std::size_t cursor = 0;
  const std::vector<float> values = GetFloats(bytes, cursor);
  return style::StyleVector::FromFlat(
      tensor::Tensor({static_cast<std::int64_t>(values.size())}, values));
}

namespace {

// Running CRC state (pre-/post-inversion is the caller's job) advanced over
// `bytes` one table lookup per byte.
std::uint32_t Crc32TableUpdate(std::uint32_t crc,
                               std::span<const std::uint8_t> bytes) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c >> 1) ^ ((c & 1u) ? 0xedb88320u : 0u);
      }
      t[i] = c;
    }
    return t;
  }();
  for (const std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xffu];
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PARDON_CRC32_CLMUL 1

// Below this the fold's setup and final reduction cost more than the table.
constexpr std::size_t kClmulMinBytes = 64;

#define PARDON_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

inline __m128i LoadBlock(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Moves `acc` forward by the distance the constant pair `k` encodes (high
// and low halves multiplied separately) and xors it into `next`.
PARDON_CRC32_TARGET inline __m128i Fold(__m128i acc, __m128i k,
                                        __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carryless-multiply folding (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", Intel 2009), bit-reflected for 0xEDB88320.
// Advances the running CRC state over `bytes`, whose size must be a multiple
// of 16 and at least 64. Four 128-bit accumulators fold 64 bytes per step,
// are folded into one, which then takes the remaining 16-byte blocks; the
// 128-bit remainder is reduced to 64 bits and Barrett-reduced to the CRC.
// Constants are x^k mod P(x), bit-reflected, from the paper's appendix.
PARDON_CRC32_TARGET std::uint32_t Crc32ClmulUpdate(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t len = bytes.size();
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(LoadBlock(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = LoadBlock(p + 16);
  __m128i x2 = LoadBlock(p + 32);
  __m128i x3 = LoadBlock(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x0 = Fold(x0, k1k2, LoadBlock(p));
    x1 = Fold(x1, k1k2, LoadBlock(p + 16));
    x2 = Fold(x2, k1k2, LoadBlock(p + 32));
    x3 = Fold(x3, k1k2, LoadBlock(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = Fold(x0, k3k4, LoadBlock(p));

  // 128 -> 64 bits, then 64 -> 32 via Barrett reduction.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}
#undef PARDON_CRC32_TARGET
#else
#define PARDON_CRC32_CLMUL 0
#endif

}  // namespace

namespace internal {

std::uint32_t Crc32Portable(std::span<const std::uint8_t> bytes) {
  return Crc32TableUpdate(0xffffffffu, bytes) ^ 0xffffffffu;
}

}  // namespace internal

std::uint32_t Crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xffffffffu;
#if PARDON_CRC32_CLMUL
  static const bool clmul =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  if (clmul && bytes.size() >= kClmulMinBytes) {
    const std::size_t folded = bytes.size() & ~std::size_t{15};
    crc = Crc32ClmulUpdate(crc, bytes.first(folded));
    bytes = bytes.subspan(folded);
  }
#endif
  return Crc32TableUpdate(crc, bytes) ^ 0xffffffffu;
}

std::vector<std::uint8_t> FrameMessage(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 8);
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, Crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<std::vector<std::uint8_t>> UnframeMessage(
    std::span<const std::uint8_t> framed) {
  if (framed.size() < 8) return std::nullopt;
  std::uint32_t length = 0, crc = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(framed[static_cast<std::size_t>(i)])
              << (8 * i);
    crc |= static_cast<std::uint32_t>(framed[static_cast<std::size_t>(4 + i)])
           << (8 * i);
  }
  if (framed.size() != static_cast<std::size_t>(length) + 8) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> payload(framed.begin() + 8, framed.end());
  if (Crc32(payload) != crc) return std::nullopt;
  return payload;
}

void FrameReader::Feed(std::span<const std::uint8_t> bytes) {
  // Compact before growing: drop the already-consumed prefix once it
  // dominates the buffer, so a long-lived connection doesn't accumulate
  // every frame it ever saw.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<std::uint8_t>> FrameReader::Next() {
  if (poisoned_) {
    throw FramingError("FrameReader: poisoned by an earlier framing error");
  }
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 8) return std::nullopt;
  std::uint32_t length = 0, crc = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(
                  buffer_[consumed_ + static_cast<std::size_t>(i)])
              << (8 * i);
    crc |= static_cast<std::uint32_t>(
               buffer_[consumed_ + static_cast<std::size_t>(4 + i)])
           << (8 * i);
  }
  if (static_cast<std::size_t>(length) > max_payload_) {
    poisoned_ = true;
    throw FramingError("FrameReader: frame length " + std::to_string(length) +
                       " exceeds limit " + std::to_string(max_payload_));
  }
  if (avail < static_cast<std::size_t>(length) + 8) return std::nullopt;
  const auto begin =
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 8);
  std::vector<std::uint8_t> payload(begin,
                                    begin + static_cast<std::ptrdiff_t>(length));
  if (Crc32(payload) != crc) {
    poisoned_ = true;
    throw FramingError("FrameReader: CRC mismatch on assembled frame");
  }
  consumed_ += static_cast<std::size_t>(length) + 8;
  return payload;
}

std::int64_t CommProfile::OneTimeBytes() const {
  std::int64_t total = 0;
  for (const CommEntry& entry : entries) {
    if (entry.one_time) total += entry.upstream_bytes + entry.downstream_bytes;
  }
  return total;
}

std::int64_t CommProfile::PerRoundBytes() const {
  std::int64_t total = 0;
  for (const CommEntry& entry : entries) {
    if (!entry.one_time) total += entry.upstream_bytes + entry.downstream_bytes;
  }
  return total;
}

std::int64_t CommProfile::TotalBytes(int rounds) const {
  return OneTimeBytes() + PerRoundBytes() * rounds;
}

std::int64_t CommProfile::CompressedOneTimeBytes() const {
  std::int64_t total = 0;
  for (const CommEntry& entry : entries) {
    if (entry.one_time) {
      total += entry.CompressedUpstream() + entry.CompressedDownstream();
    }
  }
  return total;
}

std::int64_t CommProfile::CompressedPerRoundBytes() const {
  std::int64_t total = 0;
  for (const CommEntry& entry : entries) {
    if (!entry.one_time) {
      total += entry.CompressedUpstream() + entry.CompressedDownstream();
    }
  }
  return total;
}

std::int64_t CommProfile::CompressedTotalBytes(int rounds) const {
  return CompressedOneTimeBytes() + CompressedPerRoundBytes() * rounds;
}

std::vector<CommProfile> BuildCommProfiles(const CommModel& model) {
  const std::int64_t params_bytes = model.model_params * kFloat;
  const std::int64_t k = model.participants_per_round;
  const std::int64_t n = model.total_clients;
  const std::int64_t style_bytes = 2 * model.style_channels * kFloat;

  // Shared by every method: the server broadcasts the global model to the K
  // participants and receives K trained models back.
  const CommEntry model_exchange{
      .description = "model download + upload (K participants)",
      .upstream_bytes = k * params_bytes,
      .downstream_bytes = k * params_bytes,
  };

  std::vector<CommProfile> profiles;

  profiles.push_back({.method = "FedSR", .entries = {model_exchange}});
  profiles.push_back({.method = "FedGMA", .entries = {model_exchange}});

  {
    CommProfile fpl{.method = "FPL", .entries = {model_exchange}};
    const std::int64_t proto_bytes = static_cast<std::int64_t>(
        model.avg_prototypes_per_client * static_cast<double>(model.embed_dim) *
        kFloat);
    fpl.entries.push_back({
        .description = "class prototypes up + cluster prototypes down",
        .upstream_bytes = k * proto_bytes,
        // Cluster prototypes: bounded by classes x embed per participant.
        .downstream_bytes =
            k * model.num_classes * model.embed_dim * kFloat,
    });
    profiles.push_back(std::move(fpl));
  }

  {
    CommProfile ga{.method = "FedDG-GA", .entries = {model_exchange}};
    ga.entries.push_back({
        .description = "per-client generalization-gap losses",
        .upstream_bytes = k * 2 * 8,  // two f64 per participant
        .downstream_bytes = 0,
    });
    profiles.push_back(std::move(ga));
  }

  {
    CommProfile ccst{.method = "CCST", .entries = {model_exchange}};
    ccst.entries.push_back({
        .description = "style bank: N styles up, N-entry bank to N clients",
        .upstream_bytes = n * style_bytes,
        .downstream_bytes = n * n * style_bytes,
        .one_time = true,
    });
    profiles.push_back(std::move(ccst));
  }

  {
    CommProfile fisc{.method = "FISC", .entries = {model_exchange}};
    fisc.entries.push_back({
        .description = "N styles up, ONE interpolation style to N clients",
        .upstream_bytes = n * style_bytes,
        .downstream_bytes = n * style_bytes,
        .one_time = true,
    });
    profiles.push_back(std::move(fisc));
  }
  return profiles;
}

void RecordCommProfile(const CommProfile& profile, int rounds) {
  obs::MetricsRegistry* registry = obs::ActiveMetrics();
  if (registry == nullptr) return;
  const std::string labels = "method=\"" + profile.method + "\"";
  registry->GetCounter("pardon_comm_one_time_bytes", labels)
      .Add(static_cast<double>(profile.OneTimeBytes()));
  registry->GetCounter("pardon_comm_per_round_bytes", labels)
      .Add(static_cast<double>(profile.PerRoundBytes()));
  registry
      ->GetCounter("pardon_comm_total_bytes",
                   labels + ",rounds=\"" + std::to_string(rounds) + "\"")
      .Add(static_cast<double>(profile.TotalBytes(rounds)));
  registry->GetCounter("pardon_comm_one_time_compressed_bytes", labels)
      .Add(static_cast<double>(profile.CompressedOneTimeBytes()));
  registry->GetCounter("pardon_comm_per_round_compressed_bytes", labels)
      .Add(static_cast<double>(profile.CompressedPerRoundBytes()));
  registry
      ->GetCounter("pardon_comm_total_compressed_bytes",
                   labels + ",rounds=\"" + std::to_string(rounds) + "\"")
      .Add(static_cast<double>(profile.CompressedTotalBytes(rounds)));
}

}  // namespace pardon::fl
