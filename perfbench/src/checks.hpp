#pragma once
// The benchmark's correctness checks. Each is computed apart from the code it
// checks (plain double-precision loops, the wire format's own arithmetic) or
// follows from a property the method must have. run.py checks the program's
// trace file.
// A check returns an empty string when it holds and a one-line reason when
// it does not.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "defenses/aggregation.hpp"
#include "defenses/update_matrix.hpp"

namespace fedbench {

/// FedGuard selection (Alg. 1 line 6): the accepted clients are exactly the
/// updates whose synthetic-set scores reach the scores' mean. Scores within
/// 1e-12 of the mean may fall either way (the mean's own rounding).
[[nodiscard]] std::string check_fedguard_selection(
    std::span<const double> scores, const fedguard::defenses::UpdateView& updates,
    const fedguard::defenses::AggregationResult& result);

/// Mean of the selected psi rows in double: sample-weighted (falling back to
/// unweighted when every count is zero) or plain.
[[nodiscard]] std::vector<double> reference_mean(const fedguard::defenses::UpdateView& updates,
                                                 std::span<const std::size_t> slots,
                                                 bool sample_weighted);

/// Slots of `updates` whose client ids are listed in `accepted`.
[[nodiscard]] std::vector<std::size_t> slots_of(const fedguard::defenses::UpdateView& updates,
                                                std::span<const int> accepted);

/// The new global model equals prev + eta * (reference - prev), within float
/// rounding: a few float ulps of the operands' magnitude.
[[nodiscard]] std::string check_global_model(std::span<const float> previous,
                                             std::span<const double> reference, double eta,
                                             std::span<const float> global);

/// Multi-Krum recomputed naively in double: squared distances, each row's
/// score the sum of its n - f - 2 nearest (f clamped so that count >= 1),
/// and the k best-scored slots selected.
struct KrumReference {
  std::vector<double> scores;
  std::vector<std::size_t> selected;  // slots, best score first
};
[[nodiscard]] KrumReference naive_multi_krum(const fedguard::defenses::UpdateView& updates,
                                             double byzantine_fraction, std::size_t k);

/// The strategy accepts k updates, none scoring worse than the reference's
/// k-th best and none scoring better left out. Scores tied with the k-th to
/// within 1e-9 relative (float versus double distance rounding) may fall
/// either way.
[[nodiscard]] std::string check_krum_selection(const KrumReference& reference,
                                               const fedguard::defenses::UpdateView& updates,
                                               const fedguard::defenses::AggregationResult& result);

/// Framed bytes on the client links of a socket federation, from the wire
/// format: 20-byte frame header; Hello = u32 id; RoundRequest = u64 round,
/// u32 want_decoder, u32 codec, u32 chunk, u64 trace id, u64 parent span and
/// the fp32 globals (u64 count + 4 d); RoundReply = u64 round, u64 trace id,
/// u32 id, u64 samples, u32 malicious, u32 codec, the q8 psi span (u64 count,
/// u32 chunk, two floats per chunk, one byte per element) and an empty fp32
/// theta span (u64 count); Shutdown = empty payload.
struct LinkBytes {
  std::uint64_t to_server = 0;
  std::uint64_t to_clients = 0;
};
[[nodiscard]] std::uint64_t q8_reply_frame_bytes(std::size_t d, std::size_t chunk);
[[nodiscard]] std::uint64_t request_frame_bytes(std::size_t d);
[[nodiscard]] LinkBytes expected_q8_link_bytes(std::size_t d, std::size_t chunk,
                                               std::size_t clients, std::size_t updates);
[[nodiscard]] std::string check_link_bytes(const LinkBytes& expected, const LinkBytes& measured);

/// Value of an unlabelled sample `name` in Prometheus text (-1 if absent).
[[nodiscard]] double prometheus_value(const std::string& text, const std::string& name);

}  // namespace fedbench
