//===- support/Checksum.cpp - CRC32 file seals ---------------------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parmonc/support/Checksum.h"

#include "parmonc/support/Text.h"

#include <array>
#include <cstdio>

namespace parmonc {

namespace {

constexpr std::string_view SealPrefix = "#%parmonc-seal v1 crc32 ";

std::array<uint32_t, 256> makeCrcTable() {
  std::array<uint32_t, 256> Table{};
  for (uint32_t Index = 0; Index < 256; ++Index) {
    uint32_t Value = Index;
    for (int Bit = 0; Bit < 8; ++Bit)
      Value = (Value >> 1) ^ ((Value & 1u) ? 0xEDB88320u : 0u);
    Table[Index] = Value;
  }
  return Table;
}

} // namespace

uint32_t crc32(std::string_view Bytes) {
  static const std::array<uint32_t, 256> Table = makeCrcTable();
  uint32_t Value = 0xFFFFFFFFu;
  for (char Byte : Bytes)
    Value = (Value >> 8) ^ Table[(Value ^ uint8_t(Byte)) & 0xFFu];
  return Value ^ 0xFFFFFFFFu;
}

std::string sealFileContents(std::string_view Body) {
  char Header[64];
  const int HeaderSize =
      std::snprintf(Header, sizeof(Header),
                    "#%%parmonc-seal v1 crc32 %08x bytes %zu\n", crc32(Body),
                    Body.size());
  std::string Sealed;
  Sealed.reserve(size_t(HeaderSize) + Body.size());
  Sealed.append(Header, size_t(HeaderSize)).append(Body);
  return Sealed;
}

bool hasFileSeal(std::string_view Contents) {
  return startsWith(Contents, SealPrefix);
}

Result<std::string> unsealFileContents(const std::string &Path,
                                       std::string_view Contents) {
  if (!hasFileSeal(Contents))
    return parseError("'" + Path + "' has no PARMONC seal line");
  const size_t LineEnd = Contents.find('\n');
  if (LineEnd == std::string_view::npos)
    return ioError("'" + Path + "' is truncated inside its seal line");
  const std::string_view SealLine = Contents.substr(0, LineEnd);
  const std::string_view Rest = SealLine.substr(SealPrefix.size());
  // Rest is "<hex8> bytes <n>".
  const auto Fields = splitWhitespace(Rest);
  if (Fields.size() != 3 || Fields[1] != "bytes" || Fields[0].size() != 8)
    return parseError("'" + Path + "' has a malformed seal line");
  uint32_t DeclaredCrc = 0;
  for (char Digit : Fields[0]) {
    uint32_t Nibble = 0;
    if (Digit >= '0' && Digit <= '9')
      Nibble = uint32_t(Digit - '0');
    else if (Digit >= 'a' && Digit <= 'f')
      Nibble = uint32_t(Digit - 'a' + 10);
    else
      return parseError("'" + Path + "' has a malformed seal checksum");
    DeclaredCrc = (DeclaredCrc << 4) | Nibble;
  }
  Result<uint64_t> DeclaredBytes = parseUInt64(Fields[2]);
  if (!DeclaredBytes)
    return parseError("'" + Path + "' has a malformed seal byte count");

  const std::string_view Body = Contents.substr(LineEnd + 1);
  if (Body.size() != DeclaredBytes.value())
    return ioError("'" + Path + "' is a short read: seal declares " +
                   std::to_string(DeclaredBytes.value()) +
                   " body bytes, found " + std::to_string(Body.size()));
  if (crc32(Body) != DeclaredCrc)
    return ioError("'" + Path +
                   "' failed its CRC32 check: the file is corrupted");
  return std::string(Body);
}

} // namespace parmonc
