// CRC-32 (IEEE 802.3 polynomial, reflected) used to integrity-check every
// chunk of an on-disk spool (invariant I7) and to hash payloads into the
// execution trace.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace djvu {

/// Incremental CRC-32 computation.
class Crc32 {
 public:
  /// Feeds more bytes into the checksum.
  void update(BytesView data);

  /// Final checksum value for everything fed so far.
  std::uint32_t value() const { return ~state_; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot CRC-32 of a buffer.
std::uint32_t crc32(BytesView data);

/// Combines the CRC-32 of two adjacent byte ranges: given crc1 = crc(A) and
/// crc2 = crc(B), returns crc(A || B) where B is `len2` bytes long — in
/// O(log len2) GF(2) matrix work, without touching the data again.  This is
/// what lets a parallel spool load verify the whole-file CRC from per-chunk
/// CRCs computed on independent workers (zlib's crc32_combine algorithm).
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2);

}  // namespace djvu
