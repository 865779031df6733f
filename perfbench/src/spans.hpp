#pragma once
// Benchmark-side timing and tracing. Every timed call into the program goes
// through timed(): it always returns the call's wall time, and when the run
// is traced it also records a span (name, category, start, end, thread
// lane). Spans stay in memory and are written once, at the end of the run,
// as a Chrome trace_event file that Perfetto and chrome://tracing load.
// Nesting is by time on one lane: a span that starts and ends inside
// another on the same thread is its child.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fedbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// No-op unless enabled. Thread-safe.
  void record(std::string name, const char* category, Clock::time_point start,
              Clock::time_point end);
  [[nodiscard]] std::size_t size() const;
  /// Throws std::runtime_error when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    const char* category;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t lane;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Run `body`, return its wall time in seconds, and record it as a span.
template <typename F>
double timed(SpanRecorder& spans, std::string name, const char* category, F&& body) {
  const Clock::time_point start = Clock::now();
  std::forward<F>(body)();
  const Clock::time_point end = Clock::now();
  spans.record(std::move(name), category, start, end);
  return seconds_between(start, end);
}

/// Median of `values` (0 when empty); the input is copied, not reordered.
[[nodiscard]] double median(std::span<const double> values);

}  // namespace fedbench
