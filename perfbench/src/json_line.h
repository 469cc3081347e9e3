#ifndef PERFBENCH_SRC_JSON_LINE_H_
#define PERFBENCH_SRC_JSON_LINE_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Builds one flat JSON object for the programs' machine-readable output
/// line. Keys and string values are plain identifiers and messages, so
/// only quotes and backslashes are escaped.
class JsonLine {
 public:
  JsonLine& Str(const std::string& key, const std::string& value) {
    Key(key);
    out_ += '"' + Escape(value) + '"';
    return *this;
  }
  JsonLine& Num(const std::string& key, double value) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
  }
  JsonLine& Int(const std::string& key, int64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  /// 64-bit digests travel as hex strings (JSON numbers lose precision).
  JsonLine& Hex(const std::string& key, uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return Str(key, buf);
  }
  JsonLine& Nums(const std::string& key, const std::vector<double>& values) {
    Key(key);
    out_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",",
                    values[i]);
      out_ += buf;
    }
    out_ += ']';
    return *this;
  }
  JsonLine& Strs(const std::string& key,
                 const std::vector<std::string>& values) {
    Key(key);
    out_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      out_ += (i == 0 ? "\"" : ",\"") + Escape(values[i]) + '"';
    }
    out_ += ']';
    return *this;
  }
  /// Nested object, already rendered by another JsonLine.
  JsonLine& Obj(const std::string& key, const JsonLine& value) {
    Key(key);
    out_ += value.str();
    return *this;
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  static std::string Escape(const std::string& s) {
    std::string e;
    for (const char c : s) {
      if (c == '"' || c == '\\') e += '\\';
      e += c;
    }
    return e;
  }
  void Key(const std::string& key) {
    if (!out_.empty()) out_ += ',';
    out_ += '"' + Escape(key) + "\":";
  }
  std::string out_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_JSON_LINE_H_
