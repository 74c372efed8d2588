//===- parmonc/mpsim/Serialize.h - Message payload (de)serialization ------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal byte-stream archive for message payloads and checkpoint
/// blobs. Fixed little-endian layout, length-prefixed containers, explicit
/// bounds checks on the read side so a truncated or corrupted message can
/// never read out of bounds.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_SERIALIZE_H
#define PARMONC_MPSIM_SERIALIZE_H

#include "parmonc/support/Status.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace parmonc {

/// Appends typed values to a byte buffer.
class ByteWriter {
public:
  void writeU64(uint64_t Value) {
    // Explicit little-endian layout, independent of host byte order.
    for (int Byte = 0; Byte < 8; ++Byte)
      Buffer.push_back(uint8_t(Value >> (8 * Byte)));
  }

  void writeI64(int64_t Value) { writeU64(uint64_t(Value)); }

  void writeU32(uint32_t Value) {
    for (int Byte = 0; Byte < 4; ++Byte)
      Buffer.push_back(uint8_t(Value >> (8 * Byte)));
  }

  void writeDouble(double Value) {
    uint64_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    writeU64(Bits);
  }

  /// The count, then every value in one pass over the grown buffer.
  void writeDoubleVector(const std::vector<double> &Values) {
    writeU64(Values.size());
    const size_t Start = Buffer.size();
    Buffer.resize(Start + 8 * Values.size());
    uint8_t *Out = Buffer.data() + Start;
    for (double Value : Values) {
      uint64_t Bits;
      std::memcpy(&Bits, &Value, sizeof(Bits));
      for (int Byte = 0; Byte < 8; ++Byte)
        *Out++ = uint8_t(Bits >> (8 * Byte));
    }
  }

  void writeString(const std::string &Text) {
    writeU64(Text.size());
    Buffer.insert(Buffer.end(), Text.begin(), Text.end());
  }

  /// Reserves room for \p Bytes in total, so a writer that knows its
  /// final size allocates once.
  void reserve(size_t Bytes) { Buffer.reserve(Bytes); }

  const std::vector<uint8_t> &bytes() const { return Buffer; }
  std::vector<uint8_t> takeBytes() { return std::move(Buffer); }

private:
  std::vector<uint8_t> Buffer;
};

/// Reads typed values back out of a byte buffer; every read is
/// bounds-checked and fails with a Status instead of overrunning.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &Buffer)
      : Buffer(Buffer) {}

  [[nodiscard]] Result<uint64_t> readU64() {
    if (Cursor + 8 > Buffer.size())
      return parseError("message truncated reading u64");
    uint64_t Value = 0;
    for (int Byte = 0; Byte < 8; ++Byte)
      Value |= uint64_t(Buffer[Cursor + size_t(Byte)]) << (8 * Byte);
    Cursor += 8;
    return Value;
  }

  [[nodiscard]] Result<int64_t> readI64() {
    Result<uint64_t> Raw = readU64();
    if (!Raw)
      return Raw.status();
    return int64_t(Raw.value());
  }

  [[nodiscard]] Result<uint32_t> readU32() {
    if (Cursor + 4 > Buffer.size())
      return parseError("message truncated reading u32");
    uint32_t Value = 0;
    for (int Byte = 0; Byte < 4; ++Byte)
      Value |= uint32_t(Buffer[Cursor + size_t(Byte)]) << (8 * Byte);
    Cursor += 4;
    return Value;
  }

  [[nodiscard]] Result<double> readDouble() {
    Result<uint64_t> Raw = readU64();
    if (!Raw)
      return Raw.status();
    double Value;
    uint64_t Bits = Raw.value();
    std::memcpy(&Value, &Bits, sizeof(Value));
    return Value;
  }

  [[nodiscard]] Result<std::vector<double>> readDoubleVector() {
    Result<uint64_t> Count = readU64();
    if (!Count)
      return Count.status();
    if (Count.value() > (Buffer.size() - Cursor) / 8)
      return parseError("message truncated reading double vector");
    std::vector<double> Values;
    Values.reserve(Count.value());
    for (uint64_t Index = 0; Index < Count.value(); ++Index) {
      Result<double> Value = readDouble();
      if (!Value)
        return Value.status();
      Values.push_back(Value.value());
    }
    return Values;
  }

  [[nodiscard]] Result<std::string> readString() {
    Result<uint64_t> Count = readU64();
    if (!Count)
      return Count.status();
    if (Count.value() > Buffer.size() - Cursor)
      return parseError("message truncated reading string");
    std::string Text(Buffer.begin() + std::ptrdiff_t(Cursor),
                     Buffer.begin() + std::ptrdiff_t(Cursor + Count.value()));
    Cursor += Count.value();
    return Text;
  }

  /// True when every byte has been consumed (useful for format tests).
  bool atEnd() const { return Cursor == Buffer.size(); }

private:
  const std::vector<uint8_t> &Buffer;
  size_t Cursor = 0;
};

} // namespace parmonc

#endif // PARMONC_MPSIM_SERIALIZE_H
