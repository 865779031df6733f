#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace fedbench {

namespace {

std::uint32_t lane_of_this_thread() {
  static std::atomic<std::uint32_t> next_lane{1};
  thread_local const std::uint32_t lane = next_lane.fetch_add(1);
  return lane;
}

}  // namespace

void SpanRecorder::record(std::string name, const char* category, Clock::time_point start,
                          Clock::time_point end) {
  if (!enabled_) return;
  Event event{std::move(name), category,
              std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count(),
              std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count(),
              lane_of_this_thread()};
  const std::lock_guard lock{mutex_};
  events_.push_back(std::move(event));
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard lock{mutex_};
  return events_.size();
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream file{path, std::ios::trunc};
  if (!file) throw std::runtime_error{"cannot write trace " + path};
  const std::lock_guard lock{mutex_};
  file.setf(std::ios::fixed);
  file.precision(3);
  // Complete ("X") events, microseconds with ns fraction. Span names are
  // built by the benchmark from identifiers and numbers, so need no escaping.
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    file << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.category
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.lane
         << ",\"ts\":" << static_cast<double>(e.start_ns) / 1000.0
         << ",\"dur\":" << static_cast<double>(e.end_ns - e.start_ns) / 1000.0 << "}"
         << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  file << "]}\n";
  if (!file) throw std::runtime_error{"cannot write trace " + path};
}

double median(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

}  // namespace fedbench
