// fedbench: one workload of the end-to-end federation benchmark, in one
// process. perfbench/run.py builds and drives it; see perfbench/README.md.
//
//   fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--out-dir <dir>]
//
// It repeats whole federations ("reps") for about --seconds, checks every
// rep's outputs, and prints two JSON lines: a report with the host
// fingerprint and every figure, then the result line (correct, attempted,
// failed, metrics) with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1; run.py adds obs.trace_mb and obs.trace_events from the
// program trace). A traced run also writes its spans to
// <out-dir>/<workload>-bench-trace.json. Exit code 0 means the run completed,
// whether or not its checks held; 1 is a usage or set-up error; 2 refuses a
// build that must not be measured.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "federation.hpp"
#include "obs/metrics.hpp"
#include "parallel/kernel_config.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace {

using fedbench::Metric;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + flag};
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument{"--trace takes 0 or 1"};
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  if (!have_workload) throw std::invalid_argument{"--workload is required"};
  if (!(options.seconds > 0.0)) throw std::invalid_argument{"--seconds must be positive"};
  return options;
}

std::string cpu_model() {
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

template <typename F>
std::vector<double> per_rep(const std::vector<fedbench::RepResult>& reps, F&& field) {
  std::vector<double> values;
  for (const auto& rep : reps) values.push_back(field(rep));
  return values;
}

// Every per-round value of one field, over all reps.
std::vector<double> pooled(const std::vector<fedbench::RepResult>& reps,
                           std::vector<double> fedbench::RepResult::*field) {
  std::vector<double> values;
  for (const auto& rep : reps) {
    values.insert(values.end(), (rep.*field).begin(), (rep.*field).end());
  }
  return values;
}

int run(const Options& options) {
  using fedbench::median;
  const fedbench::Clock::time_point start = fedbench::Clock::now();
  const fedbench::WorkloadSpec spec = fedbench::workload_spec(options.workload, options.smoke);
  std::filesystem::create_directories(options.out_dir);
  fedbench::SpanRecorder spans{options.trace};
  fedbench::WorkloadRunner runner{spec, options.seed, options.trace, spans, options.out_dir};

  std::vector<Metric> layer_metrics;
  if (options.trace) fedbench::run_probes(spec, options.seed, spans, layer_metrics);

  // Whole reps until the next one would overrun the budget.
  std::vector<fedbench::RepResult> reps;
  double longest_rep_s = 0.0;
  while (reps.size() < spec.min_reps ||
         fedbench::seconds_between(start, fedbench::Clock::now()) + longest_rep_s <
             options.seconds) {
    const fedbench::Clock::time_point rep_start = fedbench::Clock::now();
    reps.push_back(runner.run_rep(reps.size()));
    longest_rep_s =
        std::max(longest_rep_s, fedbench::seconds_between(rep_start, fedbench::Clock::now()));
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::vector<std::string> failures;
  try {
    runner.verify(reps);
  } catch (const std::exception& e) {
    failures.push_back(spec.name + ": reference run threw: " + e.what());
  }
  const std::size_t workers = fedguard::parallel::global_pool().thread_count() +
                              fedguard::parallel::kernel_pool().thread_count();

  const std::vector<Metric> end_to_end{
      {"setup_s", median(per_rep(reps, [](const auto& r) { return r.setup_s; })), "s"},
      {"run_s", median(per_rep(reps, [](const auto& r) { return r.run_s; })), "s"},
      {"time_to_target_s",
       median(per_rep(reps, [](const auto& r) { return r.time_to_target_s; })), "s"},
      {"round_p50_s", median(pooled(reps, &fedbench::RepResult::round_s)), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"traffic_mb", median(per_rep(reps, [](const auto& r) { return r.traffic_mb; })), "MB"},
  };

  const double run_s = median(per_rep(reps, [](const auto& r) { return r.run_s; }));
  const double busy_s = median(per_rep(reps, [](const auto& r) { return r.pool_busy_s; }));
  std::vector<Metric> layers{
      {"data.synthesize_s", median(per_rep(reps, [](const auto& r) { return r.synthesize_s; })),
       "s"},
      {"fl.round_s", median(pooled(reps, &fedbench::RepResult::round_s)), "s"},
      {"fl.client_s", median(pooled(reps, &fedbench::RepResult::client_wait_s)), "s"},
      {"fl.cvae_trainings",
       median(per_rep(reps, [](const auto& r) { return static_cast<double>(r.cvae_trainings); })),
       "count"},
      {"fl.eval_s", median(pooled(reps, &fedbench::RepResult::eval_s)), "s"},
      {"parallel.pool_busy_s", busy_s, "s"},
      {"parallel.pool_utilization",
       run_s > 0.0 ? busy_s / (run_s * static_cast<double>(workers)) : 0.0, "ratio"},
      {"defenses.aggregate_s", median(pooled(reps, &fedbench::RepResult::aggregate_s)), "s"},
      {"net.overhead_s", median(pooled(reps, &fedbench::RepResult::overhead_s)), "s"},
      {"obs.write_mb", median(per_rep(reps, [](const auto& r) { return r.write_mb; })), "MB"},
      {"obs.rss_growth_mb", median(per_rep(reps, [](const auto& r) { return r.rss_growth_mb; })),
       "MB"},
  };
  layers.insert(layers.end(), layer_metrics.begin(), layer_metrics.end());

  failures.insert(failures.begin(), runner.failures().begin(), runner.failures().end());
  if (options.trace) spans.write_chrome_trace(options.out_dir + "/" + spec.name + "-bench-trace.json");
  for (const std::string& failure : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());

  std::ostringstream report;
  report << "{\"report\": {\"workload\": " << json_string(spec.name)
         << ", \"seed\": " << options.seed << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"smoke\": " << (options.smoke ? "true" : "false") << ", \"reps\": " << reps.size()
         << ", \"unrelayed_run_s\": " << json_number(runner.unrelayed_run_s())
         << ", \"program_trace\": "
         << (spec.telemetry ? json_string(runner.program_trace_path()) : "null")
         << ", \"fingerprint\": {\"cpu\": " << json_string(cpu_model())
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"pool_workers\": " << workers << ", \"kernel_tier\": "
         << json_string(std::string{fedguard::tensor::kernels::to_string(
                fedguard::tensor::kernels::active_kernel_arch())})
         << ", \"compiler\": " << json_string(FEDBENCH_COMPILER)
         << ", \"fedguard_march\": " << json_string(FEDBENCH_MARCH)
         << ", \"build_type\": " << json_string(FEDBENCH_BUILD_TYPE) << "}"
         << ", \"end_to_end\": " << metrics_json(end_to_end)
         << ", \"per_layer\": " << metrics_json(layers) << ", \"accuracies\": [";
  for (std::size_t i = 0; i < reps.front().accuracies.size(); ++i) {
    report << (i ? ", " : "") << json_number(reps.front().accuracies[i]);
  }
  report << "], \"rep_run_s\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) report << (i ? ", " : "") << json_number(reps[i].run_s);
  report << "], \"check_failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    report << (i ? ", " : "") << json_string(failures[i]);
  }
  report << "]}}";
  std::printf("%s\n", report.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failures.empty() ? "true" : "false", attempted, failed,
              metrics_json(options.trace ? layers : end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}

// Sanitizer flags reach this file too when they are passed for the whole
// build (CMAKE_CXX_FLAGS). gcc's UBSan defines no macro and is not caught.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized = __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||
                            __has_feature(memory_sanitizer) ||
                            __has_feature(undefined_behavior_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

}  // namespace

int main(int argc, char** argv) {
  // Construct the registry before any thread pool so that it is destroyed
  // after them: pool workers record into it until they are joined at exit.
  (void)fedguard::obs::Registry::global();
  fedguard::util::set_log_level(fedguard::util::LogLevel::Warn);
  if (kSanitized || fedguard::util::asserts_enabled()) {
    std::fprintf(stderr,
                 "fedbench: refusing to measure a sanitizer or FEDGUARD_ASSERTS build\n");
    return 2;
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedbench: %s\n", e.what());
    return 1;
  }
}
