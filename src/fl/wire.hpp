// Little-endian wire primitives: the one bounds-checked byte codec, shared by
// every serialization layer (fl/comm, fl/compress, net/protocol, the
// simulator checkpoint, and the Algorithm round-state blobs).
//
// Everything on the wire is explicit little-endian regardless of host order,
// so payloads produced on one machine decode bitwise on another. Readers
// bound-check before every access and throw WireError — never read out of
// bounds on adversarial input (the contract the codec fuzz tests exercise).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pardon::fl::wire {

// Typed decode error: truncated, oversized, or structurally invalid input.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline void PutU8(std::vector<std::uint8_t>& out, std::uint8_t value) {
  out.push_back(value);
}

inline void PutU16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value & 0xff));
  out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xff));
}

inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xff));
  }
}

inline void PutF32(std::vector<std::uint8_t>& out, float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, 4);
  PutU32(out, bits);
}

inline void PutF64(std::vector<std::uint8_t>& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, 8);
  PutU64(out, bits);
}

// Reads `count` bytes' worth of header room or throws. Shared guard so every
// Get* reports the same way.
inline void CheckAvail(std::span<const std::uint8_t> in, std::size_t cursor,
                       std::size_t count, const char* what) {
  if (count > in.size() || cursor > in.size() - count) {
    throw WireError(std::string("wire: truncated ") + what);
  }
}

inline std::uint8_t GetU8(std::span<const std::uint8_t> in,
                          std::size_t& cursor) {
  CheckAvail(in, cursor, 1, "u8");
  return in[cursor++];
}

inline std::uint16_t GetU16(std::span<const std::uint8_t> in,
                            std::size_t& cursor) {
  CheckAvail(in, cursor, 2, "u16");
  std::uint16_t value = 0;
  for (int i = 0; i < 2; ++i) {
    value = static_cast<std::uint16_t>(
        value | static_cast<std::uint16_t>(in[cursor + static_cast<std::size_t>(
                                                           i)])
                    << (8 * i));
  }
  cursor += 2;
  return value;
}

inline std::uint32_t GetU32(std::span<const std::uint8_t> in,
                            std::size_t& cursor) {
  CheckAvail(in, cursor, 4, "u32");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(in[cursor + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  cursor += 4;
  return value;
}

inline std::uint64_t GetU64(std::span<const std::uint8_t> in,
                            std::size_t& cursor) {
  CheckAvail(in, cursor, 8, "u64");
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[cursor + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  cursor += 8;
  return value;
}

inline float GetF32(std::span<const std::uint8_t> in, std::size_t& cursor) {
  const std::uint32_t bits = GetU32(in, cursor);
  float value = 0;
  std::memcpy(&value, &bits, 4);
  return value;
}

inline double GetF64(std::span<const std::uint8_t> in, std::size_t& cursor) {
  const std::uint64_t bits = GetU64(in, cursor);
  double value = 0;
  std::memcpy(&value, &bits, 8);
  return value;
}

namespace detail {

// Raw float payload: IEEE-754 values shipped as their little-endian bit
// patterns, so the round trip is bitwise even for NaN. An empty payload
// copies nothing: `data` may then be null, and memcpy's pointer arguments
// must never be, not even for a zero-byte copy.
inline void PutFloatBits(std::vector<std::uint8_t>& out, const float* data,
                         std::size_t count) {
  if (count == 0) return;
  const std::size_t offset = out.size();
  out.resize(offset + count * 4);
  std::memcpy(out.data() + offset, data, count * 4);
}

// Callers have checked that `count` floats remain.
inline std::vector<float> TakeFloatBits(std::span<const std::uint8_t> in,
                                        std::size_t& cursor,
                                        std::size_t count) {
  std::vector<float> values(count);
  if (count == 0) return values;
  std::memcpy(values.data(), in.data() + cursor, count * 4);
  cursor += count * 4;
  return values;
}

}  // namespace detail

// u32 count + raw float payload.
inline void PutFloats(std::vector<std::uint8_t>& out, const float* data,
                      std::size_t count) {
  PutU32(out, static_cast<std::uint32_t>(count));
  detail::PutFloatBits(out, data, count);
}

inline std::vector<float> GetFloats(std::span<const std::uint8_t> in,
                                    std::size_t& cursor) {
  const std::uint32_t count = GetU32(in, cursor);
  CheckAvail(in, cursor, static_cast<std::size_t>(count) * 4, "float section");
  return detail::TakeFloatBits(in, cursor, count);
}

// u64 count + raw float payload (the simulator checkpoint's parameter
// vector and the FPL round-state prototypes).
inline void PutFloatsU64(std::vector<std::uint8_t>& out, const float* data,
                         std::size_t count) {
  PutU64(out, count);
  detail::PutFloatBits(out, data, count);
}

inline std::vector<float> GetFloatsU64(std::span<const std::uint8_t> in,
                                       std::size_t& cursor) {
  const std::uint64_t count = GetU64(in, cursor);
  // Divide, never multiply: a corrupt count cannot overflow the check.
  if (count > (in.size() - cursor) / 4) {
    throw WireError("wire: implausible float section length");
  }
  return detail::TakeFloatBits(in, cursor, static_cast<std::size_t>(count));
}

inline void PutBytes(std::vector<std::uint8_t>& out,
                     std::span<const std::uint8_t> bytes) {
  PutU32(out, static_cast<std::uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

inline std::vector<std::uint8_t> GetBytes(std::span<const std::uint8_t> in,
                                          std::size_t& cursor) {
  const std::uint32_t count = GetU32(in, cursor);
  CheckAvail(in, cursor, count, "byte section");
  std::vector<std::uint8_t> bytes(in.begin() + static_cast<std::ptrdiff_t>(cursor),
                                  in.begin() +
                                      static_cast<std::ptrdiff_t>(cursor + count));
  cursor += count;
  return bytes;
}

inline void PutString(std::vector<std::uint8_t>& out, const std::string& s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline std::string GetString(std::span<const std::uint8_t> in,
                             std::size_t& cursor) {
  const std::uint32_t count = GetU32(in, cursor);
  CheckAvail(in, cursor, count, "string section");
  std::string s(reinterpret_cast<const char*>(in.data() + cursor), count);
  cursor += count;
  return s;
}

}  // namespace pardon::fl::wire
