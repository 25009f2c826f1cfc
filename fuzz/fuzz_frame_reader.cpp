// Fuzz target: fl::FrameReader stream assembly and fl::UnframeMessage.
//
// Properties checked beyond "no crash / no OOB read":
//   - Fragmentation independence: feeding the same bytes whole, one byte at
//     a time, or in 7-byte chunks must yield the identical payload sequence
//     and the identical poison/no-poison outcome. Sockets deliver arbitrary
//     splits, so any divergence is a real protocol bug.
//   - Typed failure only: adversarial input may throw FramingError and
//     nothing else.
//   - Checksum differential: Crc32 (carryless-multiply fold on inputs of 64
//     bytes or more) equals the table loop on every suffix starting at
//     offsets 0..15, so both paths are compared at every alignment.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "fl/comm.hpp"

namespace {

// Far below kDefaultMaxFramePayload so a fuzzed length header cannot demand
// a legitimate-but-huge allocation and drown the run in memory traffic.
constexpr std::size_t kMaxPayload = 1u << 20;

struct StreamResult {
  std::vector<std::vector<std::uint8_t>> payloads;
  bool poisoned = false;

  bool operator==(const StreamResult& other) const {
    return poisoned == other.poisoned && payloads == other.payloads;
  }
};

StreamResult RunChunked(std::span<const std::uint8_t> input,
                        std::size_t chunk) {
  StreamResult result;
  pardon::fl::FrameReader reader(kMaxPayload);
  try {
    for (std::size_t offset = 0; offset < input.size(); offset += chunk) {
      const std::size_t len = std::min(chunk, input.size() - offset);
      reader.Feed(input.subspan(offset, len));
      while (auto payload = reader.Next()) {
        result.payloads.push_back(std::move(*payload));
      }
    }
    while (auto payload = reader.Next()) {
      result.payloads.push_back(std::move(*payload));
    }
  } catch (const pardon::fl::FramingError&) {
    result.poisoned = true;
  }
  return result;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  for (std::size_t k = 0; k <= std::min<std::size_t>(15, size); ++k) {
    const auto suffix = input.subspan(k);
    if (pardon::fl::Crc32(suffix) !=
        pardon::fl::internal::Crc32Portable(suffix)) {
      std::abort();
    }
  }
  const StreamResult whole = RunChunked(input, size > 0 ? size : 1);
  const StreamResult bytewise = RunChunked(input, 1);
  const StreamResult chunked = RunChunked(input, 7);
  if (!(whole == bytewise) || !(whole == chunked)) std::abort();

  // Datagram path: corrupt frames are nullopt, never a throw, never OOB.
  (void)pardon::fl::UnframeMessage(input);
  return 0;
}
