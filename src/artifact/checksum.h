// CRC-64 checksums for the .rkb artifact container.
//
// The artifact format (artifact.h) protects every section payload and the
// file as a whole with CRC-64/XZ (the ECMA-182 polynomial, reflected,
// init/xorout all-ones — the same parameterisation xz-utils uses).  A
// 64-bit CRC detects every single-byte corruption and every burst shorter
// than 64 bits, which is exactly the guarantee the loader advertises:
// a flipped byte is rejected with a checksum error, never decoded into a
// wrong answer.
//
// The implementation is slice-by-8: eight table lookups per eight bytes,
// with a byte-at-a-time tail.  A save and a cold start checksum the whole
// file four times (payloads and file, written and verified), so the
// checksum is a visible share of small-file save and load latency.

#ifndef REVISE_ARTIFACT_CHECKSUM_H_
#define REVISE_ARTIFACT_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace revise::artifact {

// One-shot CRC-64/XZ of `size` bytes.  Crc64("123456789") ==
// 0x995dc9bbdf1939fa (the standard check value for this parameterisation).
uint64_t Crc64(const void* data, size_t size);

// Incremental form: feed `state = Crc64Update(state, ...)` chunk by chunk
// starting from Crc64Init() and finish with Crc64Final(state).  Used by
// the artifact writer to checksum the header with its own crc field
// zeroed without copying the file.
uint64_t Crc64Init();
uint64_t Crc64Update(uint64_t state, const void* data, size_t size);
uint64_t Crc64Final(uint64_t state);

}  // namespace revise::artifact

#endif  // REVISE_ARTIFACT_CHECKSUM_H_
