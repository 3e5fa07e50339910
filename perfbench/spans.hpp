#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

/// In-memory span recorder for the traced benchmark run.
///
/// A span is (name, start, end, parent span, op id) around one call into a
/// library layer.  Spans stay in memory while the benchmark runs and are
/// written once, at the end, as Chrome trace-event JSON (loadable in
/// Perfetto or chrome://tracing).  A disabled recorder records nothing, so
/// the untraced run pays one branch per call site.
namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int kNoParent = -1;
  static constexpr std::int64_t kNoOp = -1;

  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = kNoParent;
    std::int64_t op = kNoOp;

    double duration_ms() const noexcept { return (end_us - start_us) / 1e3; }
  };

  /// RAII span: opens on construction, closes on destruction.  Nested
  /// scopes take the innermost open span as their parent.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t op = kNoOp)
        : rec_(rec), index_(rec.open(name, op)) {}
    ~Scope() { rec_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_;
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Durations (ms) of every closed span named `name`, in record order.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_us >= s.start_us) out.push_back(s.duration_ms());
    }
    return out;
  }

  /// Write all spans as Chrome trace-event "X" (complete) events.  Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d, \"op\": %lld}}%s\n",
                   s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                   s.parent, static_cast<long long>(s.op),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int open(const char* name, std::int64_t op) {
    if (!enabled_) return kNoParent;
    const int parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back(Span{name, now_us(), -1, parent, op});
    const int index = static_cast<int>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }

  void close(int index) {
    if (index == kNoParent) return;
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    stack_.pop_back();
  }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;  // indices of the currently open spans
};

}  // namespace perfbench
