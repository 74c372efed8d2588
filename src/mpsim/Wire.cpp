//===- mpsim/Wire.cpp - CRC-framed socket message codec ------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Wire.h"

#include "parmonc/support/Checksum.h"

#include <cstring>

namespace parmonc {

namespace {

constexpr size_t HeaderBytes = 12; // magic + bodyLen + bodyCrc
constexpr size_t BodyPrefixBytes = 13; // kind + 3 x i32

void appendU32(std::vector<uint8_t> &Out, uint32_t Value) {
  for (int Byte = 0; Byte < 4; ++Byte)
    Out.push_back(uint8_t(Value >> (8 * Byte)));
}

uint32_t readU32(const uint8_t *Data) {
  uint32_t Value = 0;
  for (int Byte = 0; Byte < 4; ++Byte)
    Value |= uint32_t(Data[Byte]) << (8 * Byte);
  return Value;
}

bool knownFrameKind(uint8_t Kind) {
  return Kind == uint8_t(FrameKind::Hello) ||
         Kind == uint8_t(FrameKind::Data) ||
         (Kind >= uint8_t(FrameKind::Stop) &&
          Kind <= uint8_t(FrameKind::Goodbye));
}

} // namespace

std::vector<uint8_t> encodeFrame(const Frame &Outgoing) {
  // One buffer: the header with a zero CRC, the body, then the CRC of the
  // body patched into the header.
  const size_t BodyLen = BodyPrefixBytes + Outgoing.Payload.size();
  std::vector<uint8_t> Encoded;
  Encoded.reserve(HeaderBytes + BodyLen);
  appendU32(Encoded, FrameMagic);
  appendU32(Encoded, uint32_t(BodyLen));
  appendU32(Encoded, 0);
  Encoded.push_back(uint8_t(Outgoing.Kind));
  appendU32(Encoded, uint32_t(Outgoing.A));
  appendU32(Encoded, uint32_t(Outgoing.B));
  appendU32(Encoded, uint32_t(Outgoing.C));
  Encoded.insert(Encoded.end(), Outgoing.Payload.begin(),
                 Outgoing.Payload.end());

  const uint32_t Crc = crc32(std::string_view(
      reinterpret_cast<const char *>(Encoded.data() + HeaderBytes), BodyLen));
  for (int Byte = 0; Byte < 4; ++Byte)
    Encoded[8 + size_t(Byte)] = uint8_t(Crc >> (8 * Byte));
  return Encoded;
}

void FrameDecoder::feed(const uint8_t *Data, size_t Size) {
  // Reclaim consumed prefix before growing, so a long-lived stream does
  // not accumulate every frame it ever carried.
  if (Consumed > 0 && Consumed == Buffer.size()) {
    Buffer.clear();
    Consumed = 0;
  } else if (Consumed > 4096) {
    Buffer.erase(Buffer.begin(), Buffer.begin() + std::ptrdiff_t(Consumed));
    Consumed = 0;
  }
  Buffer.insert(Buffer.end(), Data, Data + Size);
}

Result<std::optional<Frame>> FrameDecoder::next() {
  if (!Poisoned.isOk())
    return Poisoned;
  const size_t Available = Buffer.size() - Consumed;
  if (Available < HeaderBytes)
    return std::optional<Frame>{};
  const uint8_t *Header = Buffer.data() + Consumed;
  const uint32_t Magic = readU32(Header);
  if (Magic != FrameMagic) {
    Poisoned = parseError("frame header magic mismatch; socket stream is "
                          "corrupt or desynchronized");
    return Poisoned;
  }
  const uint32_t BodyLen = readU32(Header + 4);
  if (BodyLen < BodyPrefixBytes || BodyLen > MaxFrameBodyBytes) {
    Poisoned = parseError("frame body length " + std::to_string(BodyLen) +
                          " outside [" + std::to_string(BodyPrefixBytes) +
                          ", " + std::to_string(MaxFrameBodyBytes) +
                          "]; header is lying");
    return Poisoned;
  }
  if (Available < HeaderBytes + BodyLen)
    return std::optional<Frame>{}; // wait for the rest of the body
  const uint8_t *Body = Header + HeaderBytes;
  const uint32_t WireCrc = readU32(Header + 8);
  const uint32_t ComputedCrc = crc32(std::string_view(
      reinterpret_cast<const char *>(Body), BodyLen));
  if (WireCrc != ComputedCrc) {
    Poisoned = parseError("frame body CRC mismatch; message corrupted in "
                          "transit");
    return Poisoned;
  }
  if (!knownFrameKind(Body[0])) {
    Poisoned = parseError("unknown frame kind " + std::to_string(Body[0]));
    return Poisoned;
  }

  Frame Decoded;
  Decoded.Kind = FrameKind(Body[0]);
  Decoded.A = int32_t(readU32(Body + 1));
  Decoded.B = int32_t(readU32(Body + 5));
  Decoded.C = int32_t(readU32(Body + 9));
  Decoded.Payload.assign(Body + BodyPrefixBytes, Body + BodyLen);
  Consumed += HeaderBytes + BodyLen;
  return std::optional<Frame>(std::move(Decoded));
}

} // namespace parmonc
