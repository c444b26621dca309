#pragma once
/// \file hash.hpp
/// \brief Small, dependency-free hashing utilities used across esperf.
///
/// The blackboard identifies data-entry types by a 64-bit hash of
/// "<level>:<type-name>" (see the multi-level blackboard in the paper,
/// Section III-B), so the hash must be stable across runs and platforms.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace esp {

/// FNV-1a 64-bit hash; stable, endian-independent for byte input.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Combine two hashes (boost::hash_combine-style, 64-bit constants).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4));
}

/// Mix a 64-bit integer (splitmix64 finalizer).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace detail {
/// CRC-32 (IEEE 802.3, reflected) slice-by-8 lookup tables, generated at
/// compile time. Row 0 is the classic bytewise table; row k advances a
/// byte's contribution past k further zero bytes, so eight input bytes
/// fold into the CRC with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32_tables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}
inline constexpr auto kCrc32Tables = make_crc32_tables();
}  // namespace detail

/// CRC-32 over a byte range; `seed` chains partial computations (pass the
/// previous return value to continue). Stream blocks are checksummed with
/// this so in-flight corruption is detected at the read endpoint. Eight
/// bytes per step (slice-by-8), byte-order independent; the values are
/// those of the bytewise algorithm.
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; size -= 8, p += 8) {
    c = t[7][(c ^ p[0]) & 0xffu] ^ t[6][((c >> 8) ^ p[1]) & 0xffu] ^
        t[5][((c >> 16) ^ p[2]) & 0xffu] ^ t[4][(c >> 24) ^ p[3]] ^
        t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size != 0; --size, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace esp
