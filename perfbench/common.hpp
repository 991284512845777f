// Small helpers shared by the perfbench tool's subcommands: a --flag value
// parser, a flat JSON object printer, wall-clock timing and percentiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// "--name value" pairs; a flag followed by another flag (or nothing) is a
/// switch with an empty value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("expected --flag, got " + key);
      std::string value;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) value = argv[++i];
      flags_[key.substr(2)] = value;
    }
  }

  [[nodiscard]] bool has(const std::string& k) const { return flags_.count(k) != 0; }

  [[nodiscard]] std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = flags_.find(k);
    return it == flags_.end() ? def : it->second;
  }

  [[nodiscard]] std::string need(const std::string& k) const {
    if (!has(k) || get(k).empty()) throw std::runtime_error("missing --" + k);
    return get(k);
  }

  [[nodiscard]] double num(const std::string& k, double def) const {
    return has(k) ? std::stod(get(k)) : def;
  }

 private:
  std::map<std::string, std::string> flags_;
};

[[nodiscard]] inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0 when
/// the sample is empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// A JSON string literal for `v` (quotes and backslashes escaped, newlines
/// folded to spaces).
[[nodiscard]] inline std::string json_quote(const std::string& v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n') ? ' ' : c;
  }
  return quoted + "\"";
}

/// Flat JSON object of numbers and strings, printed on one line.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    return raw(key, json_quote(v));
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// JSON array of strings.
[[nodiscard]] inline std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + json_quote(items[i]);
  }
  return out + "]";
}

}  // namespace perfbench
