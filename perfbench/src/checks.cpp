#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

namespace fedbench {

namespace fd = fedguard::defenses;

namespace {

std::vector<int> sorted_copy(std::span<const int> ids) {
  std::vector<int> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string check_fedguard_selection(std::span<const double> scores, const fd::UpdateView& updates,
                                     const fd::AggregationResult& result) {
  if (scores.size() != updates.count()) return "fedguard: one score per update expected";
  double sum = 0.0;
  for (const double s : scores) sum += s;
  const double mean = sum / static_cast<double>(scores.size());
  const std::vector<int> accepted = sorted_copy(result.accepted_clients);
  const std::vector<int> rejected = sorted_copy(result.rejected_clients);
  if (accepted.size() + rejected.size() != scores.size()) {
    return "fedguard: accepted + rejected != updates";
  }
  for (std::size_t k = 0; k < scores.size(); ++k) {
    const int id = updates.meta(k).client_id;
    const bool is_accepted = std::binary_search(accepted.begin(), accepted.end(), id);
    const bool is_rejected = std::binary_search(rejected.begin(), rejected.end(), id);
    if (is_accepted == is_rejected) return "fedguard: client in neither or both sets";
    if (std::abs(scores[k] - mean) <= 1e-12) continue;
    if (is_accepted != (scores[k] >= mean)) {
      std::ostringstream out;
      out << "fedguard: client " << id << " score " << scores[k] << " mean " << mean
          << (is_accepted ? " accepted" : " rejected");
      return out.str();
    }
  }
  return {};
}

std::vector<double> reference_mean(const fd::UpdateView& updates,
                                   std::span<const std::size_t> slots, bool sample_weighted) {
  const std::size_t d = updates.psi_dim();
  std::vector<double> sum(d, 0.0);
  double weight_total = 0.0;
  if (sample_weighted) {
    for (const std::size_t k : slots) {
      weight_total += static_cast<double>(updates.meta(k).num_samples);
    }
  }
  const bool weighted = sample_weighted && weight_total > 0.0;
  for (const std::size_t k : slots) {
    const double w = weighted ? static_cast<double>(updates.meta(k).num_samples) : 1.0;
    const std::span<const float> row = updates.psi(k);
    for (std::size_t i = 0; i < d; ++i) sum[i] += w * static_cast<double>(row[i]);
  }
  const double total = weighted ? weight_total : static_cast<double>(slots.size());
  for (double& v : sum) v /= total;
  return sum;
}

std::vector<std::size_t> slots_of(const fd::UpdateView& updates, std::span<const int> accepted) {
  const std::vector<int> ids = sorted_copy(accepted);
  std::vector<std::size_t> slots;
  for (std::size_t k = 0; k < updates.count(); ++k) {
    if (std::binary_search(ids.begin(), ids.end(), updates.meta(k).client_id)) {
      slots.push_back(k);
    }
  }
  return slots;
}

std::string check_global_model(std::span<const float> previous, std::span<const double> reference,
                               double eta, std::span<const float> global) {
  if (previous.size() != reference.size() || global.size() != reference.size()) {
    return "global model: dimension mismatch";
  }
  constexpr double kUlp = std::numeric_limits<float>::epsilon();
  for (std::size_t i = 0; i < global.size(); ++i) {
    const double prev = previous[i];
    const double expected = prev + eta * (reference[i] - prev);
    const double tolerance =
        4.0 * kUlp * (std::abs(prev) + std::abs(reference[i])) + 1e-30;
    if (!(std::abs(static_cast<double>(global[i]) - expected) <= tolerance)) {
      std::ostringstream out;
      out << "global model: parameter " << i << " is " << global[i] << ", expected "
          << expected;
      return out.str();
    }
  }
  return {};
}

KrumReference naive_multi_krum(const fd::UpdateView& updates, double byzantine_fraction,
                               std::size_t k) {
  const std::size_t n = updates.count();
  const std::size_t d = updates.psi_dim();
  std::vector<double> distance(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::span<const float> ra = updates.psi(a);
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::span<const float> rb = updates.psi(b);
      double sum = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        const double diff = static_cast<double>(ra[i]) - static_cast<double>(rb[i]);
        sum += diff * diff;
      }
      distance[a * n + b] = sum;
      distance[b * n + a] = sum;
    }
  }
  std::size_t f = static_cast<std::size_t>(byzantine_fraction * static_cast<double>(n));
  if (n < 3) {
    f = 0;
  } else if (f + 2 >= n) {
    f = n - 3;
  }
  const std::size_t neighbours = n >= f + 3 ? n - f - 2 : 1;
  KrumReference out;
  out.scores.assign(n, 0.0);
  std::vector<double> row;
  for (std::size_t a = 0; a < n; ++a) {
    row.clear();
    for (std::size_t b = 0; b < n; ++b) {
      if (b != a) row.push_back(distance[a * n + b]);
    }
    std::sort(row.begin(), row.end());
    const std::size_t take = std::min(neighbours, row.size());
    out.scores[a] = std::accumulate(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(take), 0.0);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return out.scores[x] < out.scores[y]; });
  order.resize(std::min(std::max<std::size_t>(k, 1), n));
  out.selected = std::move(order);
  return out;
}

std::string check_krum_selection(const KrumReference& reference, const fd::UpdateView& updates,
                                 const fd::AggregationResult& result) {
  const std::vector<int> accepted = sorted_copy(result.accepted_clients);
  if (accepted.size() != reference.selected.size()) {
    return "multi-krum: accepted " + std::to_string(accepted.size()) + " clients, expected " +
           std::to_string(reference.selected.size());
  }
  // Every accepted score is at most the k-th best and every rejected one at
  // least it; only scores tied with the k-th (to 1e-9 relative) may go
  // either way.
  const double kth = reference.scores[reference.selected.back()];
  const double slack = 1e-9 * std::abs(kth);
  for (std::size_t k = 0; k < updates.count(); ++k) {
    const int id = updates.meta(k).client_id;
    const bool is_accepted = std::binary_search(accepted.begin(), accepted.end(), id);
    const double score = reference.scores[k];
    if (is_accepted ? score > kth + slack : score < kth - slack) {
      std::ostringstream out;
      out << "multi-krum: client " << id << " with score " << score
          << (is_accepted ? " accepted" : " rejected") << ", k-th best score " << kth;
      return out.str();
    }
  }
  return {};
}

std::uint64_t request_frame_bytes(std::size_t d) {
  return 20 + (8 + 4 + 4 + 4 + 8 + 8) + (8 + 4 * static_cast<std::uint64_t>(d));
}

std::uint64_t q8_reply_frame_bytes(std::size_t d, std::size_t chunk) {
  const std::uint64_t chunks = (d + chunk - 1) / chunk;
  return 20 + (8 + 8 + 4 + 8 + 4 + 4) + (8 + 4 + 8 * chunks + d) + 8;
}

LinkBytes expected_q8_link_bytes(std::size_t d, std::size_t chunk, std::size_t clients,
                                 std::size_t updates) {
  constexpr std::uint64_t kHello = 20 + 4;
  constexpr std::uint64_t kShutdown = 20;
  LinkBytes bytes;
  bytes.to_server = clients * kHello + updates * q8_reply_frame_bytes(d, chunk);
  bytes.to_clients = updates * request_frame_bytes(d) + clients * kShutdown;
  return bytes;
}

std::string check_link_bytes(const LinkBytes& expected, const LinkBytes& measured) {
  if (expected.to_server == measured.to_server && expected.to_clients == measured.to_clients) {
    return {};
  }
  std::ostringstream out;
  out << "socket bytes: to server " << measured.to_server << " (expected " << expected.to_server
      << "), to clients " << measured.to_clients << " (expected " << expected.to_clients << ")";
  return out.str();
}

double prometheus_value(const std::string& text, const std::string& name) {
  std::istringstream lines{text};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1.0;
}

}  // namespace fedbench
