#include "federation.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "attacks/attack.hpp"
#include "checks.hpp"
#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/krum.hpp"
#include "fl/server.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "parallel/thread_pool.hpp"
#include "relay.hpp"

namespace fedbench {

namespace fd = fedguard::defenses;
namespace fl = fedguard::fl;
namespace fm = fedguard::models;

namespace {

const fm::ImageGeometry kGeometry{1, 28, 28, 10};
constexpr double kMiB = 1024.0 * 1024.0;

// Every input derives from the workload seed (the same derivations as
// core::build_federation), so a seed fully determines a federation.
std::uint64_t partition_seed(std::uint64_t seed) { return seed ^ 0xd17ULL; }
std::uint64_t mask_seed(std::uint64_t seed) { return seed ^ 0xbadULL; }
std::uint64_t client_seed(std::uint64_t seed, std::size_t i) { return seed ^ (0xc11e27ULL + i); }
std::uint64_t strategy_seed(std::uint64_t seed) { return seed ^ 0xf3d9ULL; }
std::uint64_t server_seed(std::uint64_t seed) { return seed ^ 0x5e12e5ULL; }

// Sum of a labelled counter family in the global registry.
std::uint64_t counter_family(const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : fedguard::obs::Registry::global().counter_values()) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += value;
  }
  return total;
}

// Busy time of the program's worker pools: the client pool and the kernel pool.
double pool_busy_seconds() {
  return static_cast<double>(counter_family("pool_worker_busy_ns_total{")) * 1e-9;
}

// Bytes this process has passed to write() and friends (/proc/self/io).
std::uint64_t written_bytes() {
  std::ifstream io{"/proc/self/io"};
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream file{path, std::ios::binary};
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::unique_ptr<fd::AggregationStrategy> make_inner_strategy(const WorkloadSpec& spec,
                                                             std::uint64_t seed) {
  switch (spec.strategy) {
    case StrategyKind::FedGuard: {
      fd::FedGuardConfig config;
      config.cvae_spec = spec.cvae;
      config.total_samples = spec.fedguard_samples;
      return std::make_unique<fd::FedGuardAggregator>(config, fm::ClassifierArch::Mlp, kGeometry,
                                                      strategy_seed(seed));
    }
    case StrategyKind::MultiKrum:
      return std::make_unique<fd::KrumAggregator>(spec.krum_byzantine_fraction,
                                                  spec.multi_krum_k);
    case StrategyKind::FedAvg:
      return std::make_unique<fd::FedAvgAggregator>();
  }
  throw std::invalid_argument{"unknown strategy"};
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

}  // namespace

// ---- Workloads -----------------------------------------------------------------

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  // The repository's reduced-scale client and CVAE (core small_scale preset).
  spec.client.local_epochs = 3;
  spec.client.batch_size = 16;
  spec.client.learning_rate = 0.05f;
  spec.client.momentum = 0.9f;
  spec.client.cvae_epochs = 40;
  spec.client.cvae_batch_size = 8;
  spec.client.cvae_learning_rate = 3e-3f;
  spec.cvae.input_dim = kGeometry.pixels();
  spec.cvae.num_classes = kGeometry.num_classes;
  spec.cvae.hidden = 96;
  spec.cvae.latent = 2;

  // Every target is met in round 0 on every seed tried. At this scale the
  // round-0 and round-1 accuracies of different seeds overlap, so a higher
  // target would be met a round later on some seeds, and time_to_target_s
  // would count different rounds for different seeds.
  if (name == "fedguard_signflip" || name == "fedguard_telemetry") {
    // Every client takes part in every round, so all eight first-time CVAE
    // trainings fall in round 0 on every seed. eta = 0.3 is the paper's
    // stable server learning rate (Fig. 5): at this scale a sign-flipped
    // MLP still scores 0.5-0.8 on D_syn and is sometimes accepted.
    spec.strategy = StrategyKind::FedGuard;
    spec.telemetry = name == "fedguard_telemetry";
    spec.num_clients = 8;
    spec.clients_per_round = 8;
    spec.rounds = 8;
    spec.train_samples = 800;
    spec.test_samples = 300;
    spec.auxiliary_samples = 200;
    spec.malicious_fraction = 0.5;
    spec.server_learning_rate = 0.3f;
    spec.target_accuracy = 0.2;  // round 0 reached 0.23-0.63 on 16 of 17 seeds
    spec.accuracy_floor = 0.2;  // twice chance: seed 65535 ends at 0.233
    spec.flipper_rejection_floor = 0.5;
  } else if (name == "multikrum_wide") {
    spec.strategy = StrategyKind::MultiKrum;
    spec.client.train_cvae = false;
    spec.client.local_epochs = 5;  // the paper's E
    spec.num_clients = 100;
    spec.clients_per_round = 50;
    spec.rounds = 10;
    spec.train_samples = 2400;
    spec.test_samples = 600;
    spec.auxiliary_samples = 200;
    spec.malicious_fraction = 0.2;
    spec.krum_byzantine_fraction = 0.2;
    spec.multi_krum_k = 30;  // m - 2f
    spec.target_accuracy = 0.4;  // round 0 reached 0.52-0.70 on 22 seeds
    spec.accuracy_floor = 0.75;
  } else if (name == "socket_two_tier") {
    // 64 samples a client, one local epoch: four SGD steps against a
    // 0.4 MB ψ each way, so the wire and merge dominate the round.
    spec.strategy = StrategyKind::FedAvg;
    spec.socket = true;
    spec.client.train_cvae = false;
    spec.client.local_epochs = 1;
    spec.num_clients = 4;
    spec.clients_per_round = 4;
    spec.rounds = 20;
    spec.train_samples = 256;
    spec.test_samples = 300;
    spec.auxiliary_samples = 0;
    spec.shards = 2;
    spec.codec = fedguard::util::WireCodec::Q8;
    spec.target_accuracy = 0.15;  // round 0 reached 0.24-0.45 on 17 seeds
    spec.accuracy_floor = 0.7;
  } else {
    throw std::invalid_argument{"unknown workload '" + name + "'"};
  }

  if (smoke) {
    // Every code path at toy size: floors and targets off, checks on.
    spec.rounds = 2;
    spec.train_samples = spec.num_clients * 12;
    spec.test_samples = 40;
    spec.auxiliary_samples = spec.auxiliary_samples == 0 ? 0 : 20;
    spec.client.local_epochs = 1;
    spec.client.cvae_epochs = 1;
    spec.fedguard_samples = 20;
    if (spec.strategy == StrategyKind::MultiKrum) {
      spec.num_clients = 10;
      spec.clients_per_round = 6;
      spec.train_samples = 60;
      spec.multi_krum_k = 3;
    }
    spec.target_accuracy = 0.0;
    spec.accuracy_floor = 0.0;
    spec.flipper_rejection_floor = 0.0;
    spec.min_reps = 1;
  }
  return spec;
}

// ---- Delegating strategy ---------------------------------------------------------

void AggregateLog::add(double s) {
  const std::lock_guard lock{mutex};
  seconds.push_back(s);
}

std::vector<double> AggregateLog::take() {
  const std::lock_guard lock{mutex};
  std::vector<double> out;
  out.swap(seconds);
  return out;
}

TimedStrategy::TimedStrategy(std::unique_ptr<fd::AggregationStrategy> inner,
                             SpanRecorder& spans, std::shared_ptr<AggregateLog> log)
    : inner_{std::move(inner)}, spans_{spans}, log_{std::move(log)} {}

void TimedStrategy::do_aggregate(const fd::AggregationContext& context,
                                 const fd::UpdateView& updates, fd::AggregationResult& out) {
  log_->add(timed(spans_, "aggregate_into", "defenses",
                  [&] { inner_->aggregate_into(context, updates, out); }));
  last_view_.emplace(updates);
  last_result_ = &out;
}

// Forwarded, not inherited: the base body routes the cohort through
// do_aggregate as metadata, while exact strategies (FedAvg) override it to
// fold accumulators.
void TimedStrategy::do_partial_aggregate(const fd::AggregationContext& context,
                                         const fd::UpdateView& updates, fd::ShardPartial& out) {
  log_->add(timed(spans_, "partial_aggregate_into", "defenses", [&] {
    inner_->partial_aggregate_into(context, updates, out.shard_id, out);
  }));
}

void TimedStrategy::do_merge_partials(const fd::AggregationContext& context,
                                      std::span<const fd::ShardPartial> partials,
                                      fd::AggregationResult& out) {
  log_->add(timed(spans_, "merge_partials_into", "defenses",
                  [&] { inner_->merge_partials_into(context, partials, out); }));
  last_result_ = &out;
}

// ---- In-process federation ---------------------------------------------------------

struct WorkloadRunner::InProcess {
  fedguard::data::Dataset train;
  fedguard::data::Dataset test;
  fedguard::data::Dataset auxiliary;
  fedguard::data::Partition partition;
  std::unique_ptr<fedguard::attacks::ModelAttack> attack;
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::unique_ptr<fl::Client>> twins;  // identical clients, replayed for timing
  std::shared_ptr<AggregateLog> log = std::make_shared<AggregateLog>();
  std::unique_ptr<TimedStrategy> strategy;
  std::unique_ptr<fl::Server> server;
};

WorkloadRunner::WorkloadRunner(WorkloadSpec spec, std::uint64_t seed, bool traced,
                               SpanRecorder& spans, std::string out_dir)
    : spec_{std::move(spec)}, seed_{seed}, traced_{traced}, spans_{spans},
      out_dir_{std::move(out_dir)} {}

WorkloadRunner::~WorkloadRunner() = default;

void WorkloadRunner::fail(const std::string& what) {
  // Reps repeat one federation, so a failing check tends to fail identically
  // in every rep; keep each distinct message once.
  const std::string message = spec_.name + ": " + what;
  if (failures_.size() < 20 &&
      std::find(failures_.begin(), failures_.end(), message) == failures_.end()) {
    failures_.push_back(message);
  }
}

std::unique_ptr<WorkloadRunner::InProcess> WorkloadRunner::build_in_process(
    RepResult& result, std::size_t shards, fedguard::util::WireCodec codec, bool with_twins) {
  auto fed = std::make_unique<InProcess>();
  const Clock::time_point start = Clock::now();
  result.synthesize_s = timed(spans_, "synthesize", "data", [&] {
    fed->train = fedguard::data::generate_synthetic_mnist(spec_.train_samples, seed_);
    fed->test = fedguard::data::generate_synthetic_mnist(spec_.test_samples, seed_ ^ 0x7e57ULL);
    if (spec_.auxiliary_samples > 0) {
      fed->auxiliary =
          fedguard::data::generate_synthetic_mnist(spec_.auxiliary_samples, seed_ ^ 0xa0c5ULL);
    }
  });
  timed(spans_, "partition", "data", [&] {
    fed->partition = fedguard::data::iid_partition(fed->train.size(), spec_.num_clients,
                                                   partition_seed(seed_));
  });
  const std::vector<bool> malicious = fedguard::attacks::make_malicious_mask(
      spec_.num_clients, spec_.malicious_fraction, mask_seed(seed_));
  fed->attack = fedguard::attacks::make_model_attack(fedguard::attacks::AttackType::SignFlip, {});
  const auto make_clients = [&](std::vector<std::unique_ptr<fl::Client>>& out) {
    for (std::size_t i = 0; i < spec_.num_clients; ++i) {
      auto client = std::make_unique<fl::Client>(
          static_cast<int>(i), fed->train, fed->partition[i], spec_.client,
          fm::ClassifierArch::Mlp, kGeometry, spec_.cvae, client_seed(seed_, i));
      if (malicious[i]) client->corrupt_with_model_attack(fed->attack.get());
      out.push_back(std::move(client));
    }
  };
  timed(spans_, "clients", "fl", [&] { make_clients(fed->clients); });
  timed(spans_, "strategy", "defenses", [&] {
    fed->strategy = std::make_unique<TimedStrategy>(make_inner_strategy(spec_, seed_), spans_,
                                                    fed->log);
  });
  fl::ServerConfig config;
  config.clients_per_round = spec_.clients_per_round;
  config.rounds = spec_.rounds;
  config.seed = server_seed(seed_);
  config.psi_codec = codec;
  config.psi_chunk = spec_.chunk;
  config.shards = shards;
  config.server_learning_rate = spec_.server_learning_rate;
  timed(spans_, "server", "fl", [&] {
    fed->server = std::make_unique<fl::Server>(config, fed->clients, *fed->strategy, fed->test,
                                               fm::ClassifierArch::Mlp, kGeometry);
  });
  result.setup_s = seconds_between(start, Clock::now());
  if (with_twins) make_clients(fed->twins);
  return fed;
}

namespace {

// Slowest of the round's clients, each replayed alone on its identical twin
// with the same global model: the critical-path client time of the round.
double slowest_twin(SpanRecorder& spans, std::vector<std::unique_ptr<fl::Client>>& twins,
                    std::span<const int> client_ids, std::span<const float> global,
                    std::size_t round, std::size_t theta_dim) {
  fd::UpdateMatrix arena;
  double slowest = 0.0;
  for (const int id : client_ids) {
    arena.reset(1, global.size(), theta_dim);
    slowest = std::max(slowest, timed(spans, "run_round_into", "fl.client", [&] {
      twins[static_cast<std::size_t>(id)]->run_round_into(global, round, arena.row(0));
    }));
  }
  return slowest;
}

}  // namespace

void WorkloadRunner::check_reproduces(std::size_t rep, const std::vector<double>& accuracies,
                                      std::span<const float> parameters) {
  if (rep == 0) {
    first_accuracies_ = accuracies;
    first_parameters_.assign(parameters.begin(), parameters.end());
  } else if (accuracies != first_accuracies_ || !same_bits(parameters, first_parameters_)) {
    fail("rep " + std::to_string(rep) + " differs from the first rep");
  }
}

RepResult WorkloadRunner::run_in_process(std::size_t rep, bool reference) {
  RepResult result;
  const bool export_telemetry = spec_.telemetry && !reference;
  fedguard::obs::Registry::global().zero_all();
  const bool replay = traced_ && rep == 0 && !reference;
  std::unique_ptr<InProcess> fed;
  timed(spans_, "setup", "bench",
        [&] { fed = build_in_process(result, spec_.shards, spec_.codec, replay); });
  fl::Server& server = *fed->server;
  fd::AggregationStrategy& inner = fed->strategy->inner();
  const std::size_t theta_dim = inner.wants_decoders() ? inner.decoder_parameter_count() : 0;

  const std::string metrics_path = out_dir_ + "/" + spec_.name + "-metrics.prom";
  std::unique_ptr<fedguard::obs::RoundExporter> exporter;
  if (export_telemetry) {
    for (const std::string& path : {program_trace_path(), metrics_path, metrics_path + ".jsonl"}) {
      std::remove(path.c_str());
    }
    fedguard::obs::ObsOptions options;
    options.trace_path = program_trace_path();
    options.metrics_path = metrics_path;
    exporter = std::make_unique<fedguard::obs::RoundExporter>(options);
  }

  const std::uint64_t written0 = written_bytes();
  std::uint64_t rss_after_first = 0;
  std::size_t sampled_malicious = 0;
  std::size_t rejected_malicious = 0;
  std::vector<float> previous;
  std::vector<bool> cvae_before(fed->clients.size());
  std::vector<int> ids;
  for (std::size_t round = 0; round < spec_.rounds; ++round) {
    result.attempted += 1 + spec_.clients_per_round;
    previous.assign(server.global_parameters().begin(), server.global_parameters().end());
    for (std::size_t i = 0; i < fed->clients.size(); ++i) {
      cvae_before[i] = fed->clients[i]->cvae_trained();
    }
    fl::RoundRecord record;
    double round_s = 0.0;
    try {
      round_s = timed(spans_, "run_round:" + std::to_string(round), "fl",
                      [&] { record = server.run_round(round); });
    } catch (const std::exception& e) {
      fail("round " + std::to_string(round) + " threw: " + e.what());
      result.failed += (spec_.rounds - round) * (1 + spec_.clients_per_round);
      result.attempted += (spec_.rounds - round - 1) * (1 + spec_.clients_per_round);
      return result;
    }
    if (round == 0) rss_after_first = fedguard::obs::read_rss_bytes();
    result.round_s.push_back(round_s);
    result.run_s += round_s;
    result.accuracies.push_back(record.test_accuracy);
    if (result.time_to_target_s < 0.0 && record.test_accuracy >= spec_.target_accuracy) {
      result.time_to_target_s = result.run_s;
    }
    result.failed += record.stragglers + record.dropouts + record.corrupt_frames;
    result.traffic_mb +=
        static_cast<double>(record.server_upload_bytes + record.server_download_bytes) / 1e6;
    sampled_malicious += record.sampled_malicious;
    rejected_malicious += record.rejected_malicious;
    for (std::size_t i = 0; i < fed->clients.size(); ++i) {
      if (!cvae_before[i] && fed->clients[i]->cvae_trained()) ++result.cvae_trainings;
    }
    const std::vector<double> aggregate_calls = fed->log->take();
    double aggregate_s = 0.0;
    for (const double s : aggregate_calls) aggregate_s += s;
    result.aggregate_s.push_back(aggregate_s);

    // Checks, outside the timed round.
    const fd::UpdateView* view = fed->strategy->last_view();
    const fd::AggregationResult* aggregation = fed->strategy->last_result();
    if (view == nullptr || aggregation == nullptr || aggregate_calls.size() != 1) {
      fail("round " + std::to_string(round) + ": expected one aggregate_into call");
      continue;
    }
    ids.clear();
    for (std::size_t k = 0; k < view->count(); ++k) ids.push_back(view->meta(k).client_id);
    std::string problem;
    std::vector<double> expected;
    if (spec_.strategy == StrategyKind::FedGuard) {
      const auto& fedguard = static_cast<fd::FedGuardAggregator&>(inner);
      problem = check_fedguard_selection(fedguard.last_scores(), *view, *aggregation);
      if (problem.empty()) {
        expected = reference_mean(*view, slots_of(*view, aggregation->accepted_clients), true);
      }
    } else if (spec_.strategy == StrategyKind::MultiKrum) {
      // The naive O(m^2 d) recomputation runs on the first rep; later reps
      // must then reproduce the first rep's results bit for bit.
      if (rep == 0 || reference) {
        const KrumReference krum =
            naive_multi_krum(*view, spec_.krum_byzantine_fraction, spec_.multi_krum_k);
        problem = check_krum_selection(krum, *view, *aggregation);
      }
      if (problem.empty()) {
        expected = reference_mean(*view, slots_of(*view, aggregation->accepted_clients), false);
      }
    }
    if (problem.empty()) {
      problem = check_global_model(previous, expected, spec_.server_learning_rate,
                                   server.global_parameters());
    }
    if (!problem.empty()) fail("round " + std::to_string(round) + ": " + problem);

    if (traced_ && !reference) {
      double accuracy = 0.0;
      const double eval_s =
          timed(spans_, "evaluate_global", "fl", [&] { accuracy = server.evaluate_global(); });
      if (accuracy != record.test_accuracy) fail("evaluate_global disagrees with the round record");
      result.eval_s.push_back(eval_s);
      result.client_wait_s.push_back(round_s - aggregate_s - eval_s);
      if (replay) {
        result.overhead_s.push_back(
            round_s - slowest_twin(spans_, fed->twins, ids, previous, round, theta_dim));
      }
    }
  }
  result.rss_growth_mb =
      (static_cast<double>(fedguard::obs::read_rss_bytes()) - static_cast<double>(rss_after_first)) /
      kMiB;
  result.pool_busy_s = pool_busy_seconds();
  exporter.reset();  // final flush, then the files are complete
  result.write_mb = static_cast<double>(written_bytes() - written0) / 1e6;

  // The program trace itself is checked by run.py once the run is over.
  if (export_telemetry) {
    const double rounds_total = prometheus_value(read_file(metrics_path), "fl_rounds_total");
    if (rounds_total != static_cast<double>(spec_.rounds)) {
      fail("metrics file reports fl_rounds_total " + std::to_string(rounds_total));
    }
  }

  const double final_accuracy = result.accuracies.empty() ? 0.0 : result.accuracies.back();
  if (final_accuracy < spec_.accuracy_floor) {
    fail("final accuracy " + std::to_string(final_accuracy) + " below the floor");
  }
  if (result.time_to_target_s < 0.0) fail("target accuracy never reached");
  if (spec_.strategy == StrategyKind::FedGuard && sampled_malicious > 0) {
    const double share =
        static_cast<double>(rejected_malicious) / static_cast<double>(sampled_malicious);
    if (share < spec_.flipper_rejection_floor) {
      fail("rejected only " + std::to_string(share) + " of sampled sign-flippers");
    }
  }
  if (!reference) check_reproduces(rep, result.accuracies, server.global_parameters());
  return result;
}

// ---- Reference runs ----------------------------------------------------------------

RepResult WorkloadRunner::run_rep(std::size_t rep) {
  if (spec_.socket) return run_socket(rep, true);
  return run_in_process(rep, false);
}

void WorkloadRunner::verify(std::vector<RepResult>& reps) {
  if (spec_.socket) {
    // In-process twin of the socket federation: same seed, shards and codec.
    RepResult scratch;
    std::unique_ptr<InProcess> fed =
        build_in_process(scratch, spec_.shards, spec_.codec, traced_);
    std::vector<double> accuracies;
    std::vector<double> eval_s;
    std::vector<double> slowest_client_s;
    std::vector<float> previous;
    std::vector<int> ids;
    for (std::size_t i = 0; i < spec_.num_clients; ++i) ids.push_back(static_cast<int>(i));
    for (std::size_t round = 0; round < spec_.rounds; ++round) {
      previous.assign(fed->server->global_parameters().begin(),
                      fed->server->global_parameters().end());
      accuracies.push_back(fed->server->run_round(round).test_accuracy);
      if (traced_) {
        eval_s.push_back(
            timed(spans_, "evaluate_global", "fl", [&] { (void)fed->server->evaluate_global(); }));
        slowest_client_s.push_back(slowest_twin(spans_, fed->twins, ids, previous, round, 0));
      }
    }
    if (!same_bits(fed->server->global_parameters(), first_parameters_)) {
      fail("final parameters differ from the in-process run");
    }
    if (accuracies != first_accuracies_) fail("accuracies differ from the in-process run");
    fed.reset();

    // One more rep with every client connected straight to its shard: the
    // relays must not change the results, and its time shows their share.
    unrelayed_run_s_ = run_socket(reps.size(), false).run_s;
    for (RepResult& rep : reps) {
      if (!traced_) continue;
      for (std::size_t round = 0; round < rep.round_s.size() && round < eval_s.size(); ++round) {
        rep.eval_s.push_back(eval_s[round]);
        rep.client_wait_s.push_back(rep.round_s[round] - rep.aggregate_s[round] - eval_s[round]);
        rep.overhead_s.push_back(rep.round_s[round] - slowest_client_s[round]);
      }
    }
  } else if (spec_.telemetry) {
    const RepResult untraced = run_in_process(0, true);
    if (untraced.accuracies != first_accuracies_) {
      fail("telemetry changed the per-round accuracies");
    }
  }
}

// ---- Socket federation -------------------------------------------------------------

RepResult WorkloadRunner::run_socket(std::size_t rep, bool relay) {
  namespace fn = fedguard::net;
  RepResult result;
  fedguard::obs::Registry::global().zero_all();
  const Clock::time_point start = Clock::now();
  fedguard::data::Dataset train;
  fedguard::data::Dataset test;
  result.synthesize_s = timed(spans_, "synthesize", "data", [&] {
    train = fedguard::data::generate_synthetic_mnist(spec_.train_samples, seed_);
    test = fedguard::data::generate_synthetic_mnist(spec_.test_samples, seed_ ^ 0x7e57ULL);
  });
  const fedguard::data::Partition partition =
      fedguard::data::iid_partition(train.size(), spec_.num_clients, partition_seed(seed_));
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (std::size_t i = 0; i < spec_.num_clients; ++i) {
    clients.push_back(std::make_unique<fl::Client>(static_cast<int>(i), train, partition[i],
                                                   spec_.client, fm::ClassifierArch::Mlp,
                                                   kGeometry, spec_.cvae, client_seed(seed_, i)));
  }
  fn::HierarchicalServerConfig config;
  config.shards = spec_.shards;
  config.expected_clients = spec_.num_clients;
  config.clients_per_round = spec_.clients_per_round;
  config.rounds = spec_.rounds;
  config.seed = server_seed(seed_);
  config.psi_codec = spec_.codec;
  config.psi_chunk = spec_.chunk;
  auto log = std::make_shared<AggregateLog>();
  auto server = std::make_unique<fn::HierarchicalServer>(
      config,
      [&] {
        return std::make_unique<TimedStrategy>(make_inner_strategy(spec_, seed_), spans_, log);
      },
      test, fm::ClassifierArch::Mlp, kGeometry);

  // Timed reps put a byte-counting relay on every client link; the check rep
  // in verify() connects each client straight to its shard. Teardown on any
  // exit path: the
  // server goes first (its shards hang up), which ends every relay and
  // client thread, and all of them are joined.
  std::vector<std::unique_ptr<CountingRelay>> relays;
  std::vector<std::thread> client_threads;
  std::vector<std::size_t> served(spec_.num_clients, 0);
  struct Teardown {
    std::unique_ptr<fn::HierarchicalServer>& server;
    std::vector<std::thread>& threads;
    ~Teardown() {
      server.reset();
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } teardown{server, client_threads};
  for (std::size_t i = 0; relay && i < spec_.num_clients; ++i) {
    relays.push_back(std::make_unique<CountingRelay>(server->shard_port(server->shard_of(i))));
  }
  for (std::size_t i = 0; i < spec_.num_clients; ++i) {
    const std::uint16_t port = relay ? relays[i]->port() : server->shard_port(server->shard_of(i));
    client_threads.emplace_back([&, i, port] {
      try {
        served[i] = fn::run_remote_client("127.0.0.1", port, *clients[i]);
      } catch (const std::exception&) {
        served[i] = 0;  // shows as a missing round below
      }
    });
  }
  timed(spans_, "await_clients", "net", [&] { server->await_clients(); });
  result.setup_s = seconds_between(start, Clock::now());

  const std::uint64_t written0 = written_bytes();
  const std::uint64_t rss0 = fedguard::obs::read_rss_bytes();
  fl::RunHistory history;
  try {
    timed(spans_, "run", "net", [&] { history = server->run(); });
  } catch (const std::exception& e) {
    fail(std::string{"socket run threw: "} + e.what());
  }
  result.rss_growth_mb =
      (static_cast<double>(fedguard::obs::read_rss_bytes()) - static_cast<double>(rss0)) / kMiB;
  result.write_mb = static_cast<double>(written_bytes() - written0) / 1e6;
  const std::vector<double> merges = log->take();
  const std::vector<float> params(server->global_parameters().begin(),
                                  server->global_parameters().end());
  const std::uint64_t rounds_finished = counter_family("net_root_rounds_total");
  const std::uint64_t degraded = counter_family("net_root_degraded_rounds_total");
  server.reset();
  for (std::thread& t : client_threads) t.join();
  LinkBytes measured;
  for (auto& link : relays) {
    const LinkBytes bytes = link->finish();
    measured.to_server += bytes.to_server;
    measured.to_clients += bytes.to_clients;
  }

  std::size_t updates = 0;
  for (std::size_t round = 0; round < history.rounds.size(); ++round) {
    const fl::RoundRecord& record = history.rounds[round];
    result.attempted += 1 + record.sampled_clients;
    updates += record.sampled_clients;
    const std::size_t missing = std::max(record.stragglers, record.timeouts) + record.dropouts;
    result.failed += missing;
    if (missing > 0) fail("round " + std::to_string(round) + " lost client updates");
    const double round_s = record.round_seconds;
    result.round_s.push_back(round_s);
    result.run_s += round_s;
    result.accuracies.push_back(record.test_accuracy);
    if (result.time_to_target_s < 0.0 && record.test_accuracy >= spec_.target_accuracy) {
      result.time_to_target_s = result.run_s;
    }
    result.aggregate_s.push_back(round < merges.size() ? merges[round] : 0.0);
  }
  // A degraded round (a shard missed it, or the merge failed and the model
  // carried over) is a failed round.
  result.failed += degraded;
  if (degraded > 0) fail("degraded rounds at the root");
  const std::uint64_t corrupt = counter_family("net_shard_corrupt_frames_total");
  const std::uint64_t timeouts = counter_family("net_shard_timeouts_total");
  result.failed += corrupt;
  if (corrupt + timeouts > 0) fail("corrupt frames or timeouts on the shards");
  if (history.rounds.size() != spec_.rounds) {
    // run() threw: its history is lost. Rounds the root finished count as
    // attempted; the rest fail with all their updates.
    const std::size_t per_round = 1 + spec_.clients_per_round;
    const std::size_t finished = std::clamp<std::size_t>(rounds_finished, history.rounds.size(),
                                                         spec_.rounds);
    result.attempted += (spec_.rounds - history.rounds.size()) * per_round;
    result.failed += (spec_.rounds - finished) * per_round;
    fail("socket run ended early");
  }
  if (merges.size() != history.rounds.size()) fail("expected one root merge per round");
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i] != spec_.rounds) fail("client " + std::to_string(i) + " served too few rounds");
  }
  if (relay) {
    const std::string bytes_problem = check_link_bytes(
        expected_q8_link_bytes(params.size(), spec_.chunk, spec_.num_clients, updates), measured);
    if (!bytes_problem.empty()) fail(bytes_problem);
    result.traffic_mb = static_cast<double>(measured.to_server + measured.to_clients) / 1e6;
  }
  const double final_accuracy = result.accuracies.empty() ? 0.0 : result.accuracies.back();
  if (final_accuracy < spec_.accuracy_floor) {
    fail("final accuracy " + std::to_string(final_accuracy) + " below the floor");
  }
  if (result.time_to_target_s < 0.0) fail("target accuracy never reached");
  check_reproduces(rep, result.accuracies, params);
  result.pool_busy_s = pool_busy_seconds();
  return result;
}

}  // namespace fedbench
