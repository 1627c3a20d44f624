#include "common/checksum.h"

#include <array>
#include <cstddef>

namespace supremm::common {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][n] advances tables[k-1][n] by
/// one more zero byte, so one lookup per table folds 8 bytes at once.
constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

/// Little-endian load, whatever the host order.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kCrc[7][lo & 0xffu] ^ kCrc[6][(lo >> 8) & 0xffu] ^ kCrc[5][(lo >> 16) & 0xffu] ^
        kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xffu] ^ kCrc[2][(hi >> 8) & 0xffu] ^
        kCrc[1][(hi >> 16) & 0xffu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace supremm::common
