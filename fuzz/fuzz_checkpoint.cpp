// Fuzz target: the simulator checkpoint container (magic | version |
// payload_size | payload | crc32) and the bounds-checked fl::wire
// primitives its payload parser is built from.
//
// Contract: any malformed input raises CheckpointError — never an OOB read,
// never an allocation sized by an unvalidated count, never silently wrong
// state (the CRC makes byte flips detectable; this harness makes sure
// detection is a typed throw).
#include <cstdint>
#include <span>

#include "fl/sim_checkpoint.hpp"
#include "fl/wire.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace wire = pardon::fl::wire;
  const std::span<const std::uint8_t> input(data, size);

  try {
    (void)pardon::fl::ParseSimCheckpoint(input);
  } catch (const pardon::fl::CheckpointError&) {
  }

  // Drive the wire primitives directly with the input as both the
  // instruction stream and the data: each leading byte selects the next
  // Get* call, so truncation is hit at every primitive, not just the ones
  // the checkpoint layout reaches first.
  try {
    std::size_t cursor = 0;
    while (cursor < input.size()) {
      switch (wire::GetU8(input, cursor) % 10) {
        case 0: (void)wire::GetU8(input, cursor); break;
        case 1: (void)wire::GetU16(input, cursor); break;
        case 2: (void)wire::GetU32(input, cursor); break;
        case 3: (void)wire::GetU64(input, cursor); break;
        case 4: (void)wire::GetF32(input, cursor); break;
        case 5: (void)wire::GetF64(input, cursor); break;
        case 6: (void)wire::GetString(input, cursor); break;
        case 7: (void)wire::GetBytes(input, cursor); break;
        case 8: (void)wire::GetFloats(input, cursor); break;
        case 9: (void)wire::GetFloatsU64(input, cursor); break;
      }
    }
  } catch (const pardon::fl::CheckpointError&) {
  }
  return 0;
}
