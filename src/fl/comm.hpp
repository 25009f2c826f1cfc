// Communication accounting and wire serialization.
//
// FedDG methods differ not just in compute but in what crosses the network:
// every method ships model parameters both ways each round, but FISC adds a
// one-time style upload (2D floats per client) and broadcast, CCST broadcasts
// the full N-entry style bank to every client, FPL ships per-class prototype
// matrices every round, and FedDG-GA adds per-client loss scalars. This
// module measures those costs exactly (bytes), and provides the binary wire
// codec used to size them — the numbers behind the communication-overhead
// extension bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fl/types.hpp"
#include "fl/wire.hpp"
#include "style/style_stats.hpp"

namespace pardon::fl {

// -- wire codec -----------------------------------------------------------------
// Compact little-endian framing: u32 section count, then per section a u32
// length + payload. Matches what a real transport would ship; used to derive
// exact byte counts and round-trippable in tests.
std::vector<std::uint8_t> EncodeClientUpdate(const ClientUpdate& update);
ClientUpdate DecodeClientUpdate(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> EncodeStyle(const style::StyleVector& style);
style::StyleVector DecodeStyle(const std::vector<std::uint8_t>& bytes);

// -- integrity framing ------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` — the
// corruption detector the fault-injection layer relies on. On x86-64 CPUs
// with PCLMULQDQ, inputs of 64 bytes or more are folded 16 bytes at a time
// with carryless multiplies; the result is identical to the table loop.
std::uint32_t Crc32(std::span<const std::uint8_t> bytes);

namespace internal {
// The byte-at-a-time table loop Crc32 falls back to; exposed so tests and
// the frame fuzzer can check the folded path against it.
std::uint32_t Crc32Portable(std::span<const std::uint8_t> bytes);
}  // namespace internal

// Frame = u32 payload length + u32 CRC-32(payload) + payload, little-endian.
std::vector<std::uint8_t> FrameMessage(std::span<const std::uint8_t> payload);

// Returns the payload when the frame is intact; std::nullopt when the frame
// is truncated, has a bad length, or fails the checksum (the server then
// requests a retransmission). Never reads out of bounds on corrupted input.
std::optional<std::vector<std::uint8_t>> UnframeMessage(
    std::span<const std::uint8_t> framed);

// Upper bound a FrameReader accepts for a single frame's payload unless the
// caller picks its own: large enough for any model this repo ships (256 MiB),
// small enough that a corrupted length header cannot trigger a multi-gigabyte
// allocation before the CRC check has a chance to run.
inline constexpr std::size_t kDefaultMaxFramePayload = 256u << 20;

// Typed framing failure: a corrupted length header or a CRC mismatch on an
// assembled frame. Unlike UnframeMessage's nullopt (datagram semantics, the
// caller retries), a stream cannot resynchronize after a bad header — the
// reader poisons itself and the connection must be torn down. It is the
// wire codec's decode error, like every other fl-side decode failure.
using FramingError = wire::WireError;

// Incremental frame assembly for stream transports. Sockets deliver
// fragments: a frame may arrive one byte at a time, or several frames may
// arrive in one read. Feed() appends whatever arrived; Next() yields each
// complete payload exactly once, in order, returning nullopt while a frame is
// still partial. Wire format is exactly FrameMessage's (u32 length + u32 CRC
// + payload, little-endian), so FrameMessage -> arbitrary splits -> FrameReader
// is an identity.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(std::span<const std::uint8_t> bytes);

  // The next complete frame's payload, or nullopt when more bytes are needed.
  // Throws FramingError when the header announces a payload larger than the
  // reader's limit or the completed frame fails its CRC; after a throw the
  // reader is poisoned and every later call throws (streams cannot resync).
  std::optional<std::vector<std::uint8_t>> Next();

  // Bytes held but not yet returned as frames.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool poisoned_ = false;
};

// -- accounting -------------------------------------------------------------------
struct CommEntry {
  std::string description;
  // Raw bytes sent client->server per occurrence, and server->client —
  // what the payload costs uncompressed (f32 parameters on the wire).
  std::int64_t upstream_bytes = 0;
  std::int64_t downstream_bytes = 0;
  // Bytes after the update codec (fl/compress.hpp) for the same payload;
  // -1 (unset) means the entry ships raw and the compressed columns fall
  // back to the raw values.
  std::int64_t compressed_upstream_bytes = -1;
  std::int64_t compressed_downstream_bytes = -1;
  bool one_time = false;  // otherwise per-round

  std::int64_t CompressedUpstream() const {
    return compressed_upstream_bytes < 0 ? upstream_bytes
                                         : compressed_upstream_bytes;
  }
  std::int64_t CompressedDownstream() const {
    return compressed_downstream_bytes < 0 ? downstream_bytes
                                           : compressed_downstream_bytes;
  }
};

struct CommProfile {
  std::string method;
  std::vector<CommEntry> entries;

  std::int64_t OneTimeBytes() const;
  std::int64_t PerRoundBytes() const;
  // Total over a full run of `rounds` rounds.
  std::int64_t TotalBytes(int rounds) const;
  // Same sums over the compressed columns (equal to the raw sums when no
  // entry sets compressed bytes).
  std::int64_t CompressedOneTimeBytes() const;
  std::int64_t CompressedPerRoundBytes() const;
  std::int64_t CompressedTotalBytes(int rounds) const;
};

struct CommModel {
  std::int64_t model_params = 0;       // per model copy
  int total_clients = 0;               // N
  int participants_per_round = 0;      // K
  std::int64_t style_channels = 0;     // D (style vector = 2D floats)
  int num_classes = 0;
  std::int64_t embed_dim = 0;
  double avg_prototypes_per_client = 0;  // classes actually present
};

// Byte profiles for the paper's six methods under the given sizes.
std::vector<CommProfile> BuildCommProfiles(const CommModel& model);

// Publishes a profile's byte totals to the active obs::MetricsRegistry as
// counters labeled by method — pardon_comm_one_time_bytes,
// pardon_comm_per_round_bytes, and pardon_comm_total_bytes{rounds}, plus
// pardon_comm_*_compressed_bytes mirrors of the compressed columns — so
// communication-overhead runs export alongside the timing metrics. No-op
// when metrics are off.
void RecordCommProfile(const CommProfile& profile, int rounds);

}  // namespace pardon::fl
