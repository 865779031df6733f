#pragma once
// Per-layer probes of the traced run: timed calls into each module's public
// functions at the workload's shapes (batch sizes, model dimension, wire
// codec), measured in the benchmark process outside any federation round.

#include <cstdint>
#include <string>
#include <vector>

#include "federation.hpp"
#include "spans.hpp"

namespace fedbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Appends models.*, nn.*, tensor.* and net.{encode,decode}_reply_us /
/// net.reply_bytes metrics for `spec` to `out`.
void run_probes(const WorkloadSpec& spec, std::uint64_t seed, SpanRecorder& spans,
                std::vector<Metric>& out);

}  // namespace fedbench
