//===- tests/mpsim/WireGoldenTest.cpp - Frame layout golden bytes ---------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Pins the frame layout byte for byte: the round-trip and fuzz suites
// would still pass if encoder and decoder drifted together, but a worker
// and a supervisor built from different revisions must agree on the wire.
//
//===----------------------------------------------------------------------===//

#include "parmonc/mpsim/Wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace parmonc {
namespace {

std::string hexOf(const std::vector<uint8_t> &Bytes) {
  std::string Hex;
  char Digits[3];
  for (uint8_t Byte : Bytes) {
    std::snprintf(Digits, sizeof(Digits), "%02x", Byte);
    Hex += Digits;
  }
  return Hex;
}

TEST(WireGolden, DataFrameBytesAreFixed) {
  Frame Outgoing;
  Outgoing.Kind = FrameKind::Data;
  Outgoing.A = 3;
  Outgoing.B = 0;
  Outgoing.C = -2;
  Outgoing.Payload = {0x00, 0x7f, 0x80, 0xff, 0x42};
  // magic 'PMNC' | body length 18 | body CRC-32 | kind 2 | a 3 | b 0 |
  // c -2 | payload.
  EXPECT_EQ(hexOf(encodeFrame(Outgoing)),
            "504d4e43"
            "12000000"
            "dc7647e6"
            "02"
            "03000000"
            "00000000"
            "feffffff"
            "007f80ff42");
}

} // namespace
} // namespace parmonc
