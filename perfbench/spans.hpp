// In-memory span log for the layer replay: each span has a name, a start,
// an end and the span that was open when it started.  Spans are kept in
// memory and written once, as Chrome trace-event JSON (opens in Perfetto).
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a top-level span
  };

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), index_(log.open(std::move(name))) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the part of it that the span's children cover.
  [[nodiscard]] double self_seconds(std::size_t i) const {
    double self = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(i)) self -= s.end - s.start;
    }
    return self;
  }

  /// Sum of the durations of every span named `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  }

  [[nodiscard]] double sum_self_seconds() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) sum += self_seconds(i);
    return sum;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span, in
  /// microseconds from the first span's start.
  void write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot open " + path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string parent = s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
      const std::string cat = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   "  {\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %s}}%s\n",
                   json_quote(s.name).c_str(), json_quote(cat).c_str(), (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6, json_quote(parent).c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("failed writing " + path);
  }

 private:
  int open(std::string name) {
    spans_.push_back(Span{std::move(name), now_seconds(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_seconds();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
