#include "artifact/checksum.h"

#include <array>

namespace revise::artifact {
namespace {

// Reflected ECMA-182 polynomial (CRC-64/XZ).
constexpr uint64_t kPoly = 0xc96c5795d7870f42ull;

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the
// CRC state contribution of byte b followed by k zero bytes, so eight
// lookups advance the state over eight bytes at once (slice-by-8).
constexpr std::array<std::array<uint64_t, 256>, 8> MakeTables() {
  std::array<std::array<uint64_t, 256>, 8> tables{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint64_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint64_t, 256>, 8> kTables = MakeTables();

}  // namespace

uint64_t Crc64Init() { return ~0ull; }

uint64_t Crc64Update(uint64_t state, const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    // The eight bytes as a little-endian word, whatever the host order.
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) word = (word << 8) | bytes[b];
    state ^= word;
    uint64_t next = 0;
    for (int b = 0; b < 8; ++b) {
      next ^= kTables[7 - b][(state >> (8 * b)) & 0xff];
    }
    state = next;
  }
  for (size_t i = 0; i < size; ++i) {
    state = kTables[0][(state ^ bytes[i]) & 0xff] ^ (state >> 8);
  }
  return state;
}

uint64_t Crc64Final(uint64_t state) { return ~state; }

uint64_t Crc64(const void* data, size_t size) {
  return Crc64Final(Crc64Update(Crc64Init(), data, size));
}

}  // namespace revise::artifact
