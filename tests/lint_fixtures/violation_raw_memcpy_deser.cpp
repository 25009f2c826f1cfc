// Fixture for tools/lint_determinism.py --self-test: rule raw-memcpy-deser.
// Classic unchecked decode: trusts a length field from the wire and memcpys
// through it. Real decode paths must use fl::wire::Get*.
#include <cstdint>
#include <cstring>
#include <vector>

float FirstFloatUnchecked(const std::vector<std::uint8_t>& wire_bytes) {
  float value = 0.0f;
  std::memcpy(&value, wire_bytes.data(), sizeof(value));
  return value;
}
