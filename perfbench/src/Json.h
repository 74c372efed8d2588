//===- perfbench/src/Json.h - Flat JSON object writer -------------------===//
//
// Part of the PARMONC reproduction library's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parmonc_perfbench reports each run as one flat JSON object on one line;
/// perfbench/run.py parses it. Doubles keep all 17 significant digits.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_JSON_H
#define PERFBENCH_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

class JsonLine {
public:
  void add(const std::string &Key, double Value) {
    char Buffer[64];
    if (std::isfinite(Value))
      std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
    else
      std::snprintf(Buffer, sizeof(Buffer), "null");
    raw(Key, Buffer);
  }
  void add(const std::string &Key, int64_t Value) {
    raw(Key, std::to_string(Value));
  }
  void add(const std::string &Key, bool Value) {
    raw(Key, Value ? "true" : "false");
  }
  void add(const std::string &Key, const std::string &Value) {
    std::string Quoted = "\"";
    for (char C : Value) {
      if (C == '"' || C == '\\')
        Quoted += '\\';
      if (C == '\n')
        Quoted += "\\n";
      else if (static_cast<unsigned char>(C) >= 0x20)
        Quoted += C;
    }
    raw(Key, Quoted + "\"");
  }
  void add(const std::string &Key, const char *Value) {
    add(Key, std::string(Value));
  }

  std::string str() const { return "{" + Body + "}"; }

private:
  void raw(const std::string &Key, const std::string &Value) {
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + Key + "\": " + Value;
  }

  std::string Body;
};

} // namespace perfbench

#endif // PERFBENCH_JSON_H
