#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

/// \file
/// Spans the traced run records around every call the benchmark makes
/// into a layer: name, start, end and the enclosing span. They are kept
/// in memory and written out once, when the benchmark ends.

namespace e2ebench {

struct Span {
  std::string name;
  double start_s = 0;  ///< seconds since the recorder was made
  double end_s = 0;
  int parent = -1;     ///< index of the enclosing span, -1 at the root
};

/// In-memory span store with a stack of open spans.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int Begin(std::string name) {
    spans_.push_back({std::move(name), Now(), 0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes the innermost open span, which must be `index`.
  void End(int index) {
    spans_[index].end_s = Now();
    open_.pop_back();
  }

  /// [{"name", "start_s", "end_s", "parent"}, ...]
  std::string ToJson() const {
    std::string out = "[";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                    s.start_s, s.end_s, s.parent);
      out += i > 0 ? ",\n  {\"name\": \"" : "\n  {\"name\": \"";
      out += s.name;
      out += buf;
    }
    return out + "\n]";
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span over the enclosing scope; a null recorder records
/// nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
