#pragma once
// The benchmark's workloads: how each federation is built from the seed, how
// one repetition runs and is timed, and which checks it must pass.
//
// One repetition ("rep") builds the whole federation from the workload seed
// (set-up), runs every round, and checks the outputs. A run repeats reps for
// its time budget and reports medians over them. All inputs derive from the
// seed alone, so every rep of a run computes the same federation; that lets
// later reps be checked for bit-identical results against the first.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "defenses/aggregation.hpp"
#include "fl/client.hpp"
#include "models/cvae.hpp"
#include "spans.hpp"
#include "util/serialize.hpp"

namespace fedbench {

enum class StrategyKind { FedGuard, MultiKrum, FedAvg };

struct WorkloadSpec {
  std::string name;
  StrategyKind strategy = StrategyKind::FedAvg;
  bool socket = false;     // net::HierarchicalServer over loopback TCP
  bool telemetry = false;  // trace + metrics export at the default flush
  std::size_t num_clients = 0;
  std::size_t clients_per_round = 0;
  std::size_t rounds = 0;
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
  std::size_t auxiliary_samples = 0;
  double malicious_fraction = 0.0;  // sign-flippers
  fedguard::fl::ClientConfig client;
  /// FedGuard's CVAE; the CVAE probes use it on every workload.
  fedguard::models::CvaeSpec cvae;
  std::size_t fedguard_samples = 100;  // t, synthetic validation digits
  double krum_byzantine_fraction = 0.2;
  std::size_t multi_krum_k = 1;
  std::size_t shards = 1;
  float server_learning_rate = 1.0f;  // eta
  fedguard::util::WireCodec codec = fedguard::util::WireCodec::Fp32;
  std::size_t chunk = fedguard::util::kDefaultQ8ChunkSize;
  /// time_to_target_s ends with the first round at or above this accuracy.
  double target_accuracy = 0.0;
  /// Floors every rep must clear: final test accuracy, and for FedGuard the
  /// share of sampled sign-flippers rejected over the run.
  double accuracy_floor = 0.0;
  double flipper_rejection_floor = 0.0;
  std::size_t min_reps = 3;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name, bool smoke);

/// Per-call wall times of the aggregation entry points, shared by the
/// delegating strategies of one federation (the socket root builds several).
struct AggregateLog {
  std::mutex mutex;
  std::vector<double> seconds;
  void add(double s);
  [[nodiscard]] std::vector<double> take();
};

/// Delegating strategy: forwards every entry point to the wrapped strategy
/// and times it. It also remembers the last aggregate_into call's view and
/// result so the round can be checked after run_round returns; both point
/// into the server's round arena and result, which stay untouched until the
/// server's next round.
class TimedStrategy final : public fedguard::defenses::AggregationStrategy {
 public:
  TimedStrategy(std::unique_ptr<fedguard::defenses::AggregationStrategy> inner,
                SpanRecorder& spans, std::shared_ptr<AggregateLog> log);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool wants_decoders() const override { return inner_->wants_decoders(); }
  [[nodiscard]] std::size_t decoder_parameter_count() const override {
    return inner_->decoder_parameter_count();
  }
  [[nodiscard]] bool supports_exact_merge() const override {
    return inner_->supports_exact_merge();
  }

  [[nodiscard]] fedguard::defenses::AggregationStrategy& inner() noexcept { return *inner_; }
  [[nodiscard]] const fedguard::defenses::UpdateView* last_view() const noexcept {
    return last_view_ ? &*last_view_ : nullptr;
  }
  [[nodiscard]] const fedguard::defenses::AggregationResult* last_result() const noexcept {
    return last_result_;
  }

 protected:
  void do_partial_aggregate(const fedguard::defenses::AggregationContext& context,
                            const fedguard::defenses::UpdateView& updates,
                            fedguard::defenses::ShardPartial& out) override;
  void do_merge_partials(const fedguard::defenses::AggregationContext& context,
                         std::span<const fedguard::defenses::ShardPartial> partials,
                         fedguard::defenses::AggregationResult& out) override;

 private:
  void do_aggregate(const fedguard::defenses::AggregationContext& context,
                    const fedguard::defenses::UpdateView& updates,
                    fedguard::defenses::AggregationResult& out) override;

  std::unique_ptr<fedguard::defenses::AggregationStrategy> inner_;
  SpanRecorder& spans_;
  std::shared_ptr<AggregateLog> log_;
  std::optional<fedguard::defenses::UpdateView> last_view_;
  const fedguard::defenses::AggregationResult* last_result_ = nullptr;
};

/// What one rep measured. Per-round vectors hold one entry per round.
struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double time_to_target_s = -1.0;  // < 0: target not reached
  double traffic_mb = 0.0;
  std::vector<double> round_s;
  std::vector<double> accuracies;
  // Layer figures.
  double synthesize_s = 0.0;
  std::vector<double> aggregate_s;
  std::vector<double> eval_s;         // traced runs only
  std::vector<double> client_wait_s;  // traced: round - aggregate - eval
  std::vector<double> overhead_s;     // traced: round - slowest client (replayed)
  std::size_t cvae_trainings = 0;
  double pool_busy_s = 0.0;
  double write_mb = 0.0;
  double rss_growth_mb = 0.0;
  // Operations: rounds and client updates.
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

class WorkloadRunner {
 public:
  /// `out_dir` receives the telemetry workload's trace and metrics files.
  WorkloadRunner(WorkloadSpec spec, std::uint64_t seed, bool traced, SpanRecorder& spans,
                 std::string out_dir);
  ~WorkloadRunner();
  WorkloadRunner(const WorkloadRunner&) = delete;
  WorkloadRunner& operator=(const WorkloadRunner&) = delete;

  /// One timed and checked repetition. Throws only on set-up failure; a
  /// round that throws is counted failed and ends the rep.
  [[nodiscard]] RepResult run_rep(std::size_t rep);
  /// Untimed reference runs after the timed reps, so that they touch neither
  /// the timings nor the peak RSS: the in-process twin of the socket
  /// federation (whose traced per-round client times it writes into `reps`)
  /// and one more socket rep without the byte-counting relays, or the
  /// telemetry federation's twin without export. The first rep must match
  /// each.
  void verify(std::vector<RepResult>& reps);
  /// run_s of the socket rep without relays (0 elsewhere): against the timed
  /// reps' run_s it shows the relays' share of the round time.
  [[nodiscard]] double unrelayed_run_s() const noexcept { return unrelayed_run_s_; }

  /// Where the telemetry workload's exporter writes the program's trace.
  [[nodiscard]] std::string program_trace_path() const {
    return out_dir_ + "/" + spec_.name + "-program-trace.json";
  }
  /// Check failures so far (empty = every check held).
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  struct InProcess;
  /// `reference`: the telemetry workload's twin without export, run once by
  /// verify(); its rounds are neither replayed nor checked against a first rep.
  [[nodiscard]] RepResult run_in_process(std::size_t rep, bool reference);
  /// `relay`: put a byte-counting relay on every client link and check the
  /// bytes it counts.
  [[nodiscard]] RepResult run_socket(std::size_t rep, bool relay);
  [[nodiscard]] std::unique_ptr<InProcess> build_in_process(RepResult& result,
                                                            std::size_t shards,
                                                            fedguard::util::WireCodec codec,
                                                            bool with_twins);
  void fail(const std::string& what);
  /// Rep 0 sets the results that later reps must reproduce bit for bit.
  void check_reproduces(std::size_t rep, const std::vector<double>& accuracies,
                        std::span<const float> parameters);

  WorkloadSpec spec_;
  std::uint64_t seed_;
  bool traced_;
  SpanRecorder& spans_;
  std::string out_dir_;
  std::vector<std::string> failures_;
  // First rep's outcome, for the bit-identity checks of later reps.
  std::vector<double> first_accuracies_;
  std::vector<float> first_parameters_;
  double unrelayed_run_s_ = 0.0;
};

}  // namespace fedbench
