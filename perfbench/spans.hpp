// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark itself around calls into the
// program's public entry points (one span per layer boundary), kept in
// memory, and written out once at exit as a Chrome trace-event file with
// CpuClock timestamps (hostclock.hpp). The program's own tracer
// (GREENPS_TRACE) stays off. With recording disabled a span is an inert
// object, so the untraced run pays one branch per call.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "hostclock.hpp"

namespace perfbench {

class SpanLog {
 public:
  using Clock = CpuClock;

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanLog* log_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Self time per span name: each span's duration minus the part of it its
  // direct children cover, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += (s.end_us - s.start_us - child_us[i]) / 1e6;
    }
    return out;
  }

  // Share of the `root`-named spans' wall time covered by their direct
  // children: how much of the run the layer spans account for.
  [[nodiscard]] double coverage(const std::string& root) const {
    double root_us = 0;
    double covered_us = 0;
    for (const Span& s : spans_) {
      if (s.name == root) root_us += s.end_us - s.start_us;
      if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == root) {
        covered_us += s.end_us - s.start_us;
      }
    }
    return root_us > 0 ? covered_us / root_us : 0.0;
  }

  // Chrome trace-event format (chrome://tracing, Perfetto).
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                   s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }

  std::size_t open(const char* name) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back(Span{name, now_us(), 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_us = now_us();
    open_.pop_back();
  }

  bool enabled_ = false;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
