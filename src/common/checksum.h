// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for archive block,
// manifest and wire frame integrity checks. Slicing-by-8: eight 256-entry
// tables consume 8 input bytes per step, a byte at a time only for the
// unaligned tail, so multi-MB wire frames checksum at memory-ish speed. The
// values are the standard CRC-32 ("123456789" -> 0xCBF43926), identical to
// the bytewise table loop, so every archive written before stays readable.
#pragma once

#include <cstdint>
#include <string_view>

namespace supremm::common {

/// CRC-32 of `data`, optionally continuing from a previous value (pass the
/// prior return value as `seed` to checksum a stream in pieces).
[[nodiscard]] std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) noexcept;

}  // namespace supremm::common
