// Tests of the benchmark's own checks: each must accept the right output and
// refuse a deliberately wrong one.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checks.hpp"
#include "defenses/update_matrix.hpp"
#include "net/message.hpp"

namespace fedbench {
namespace {

namespace fd = fedguard::defenses;

// Rows of `points` (all of one dimension) as an update arena; client k has id
// 10 + k and k + 1 samples.
fd::UpdateMatrix make_updates(const std::vector<std::vector<float>>& points) {
  fd::UpdateMatrix matrix;
  matrix.reset(points.size(), points.front().size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    std::copy(points[k].begin(), points[k].end(), matrix.psi(k).begin());
    matrix.meta(k).client_id = static_cast<int>(10 + k);
    matrix.meta(k).num_samples = k + 1;
  }
  return matrix;
}

TEST(FedGuardSelection, AcceptsExactlyTheScoresAtOrAboveTheMean) {
  const fd::UpdateMatrix matrix = make_updates({{0.f}, {1.f}, {2.f}, {3.f}});
  const fd::UpdateView view{matrix};
  const std::vector<double> scores{0.9, 0.8, 0.1, 0.2};  // mean 0.5
  fd::AggregationResult right;
  right.accepted_clients = {10, 11};
  right.rejected_clients = {12, 13};
  EXPECT_EQ(check_fedguard_selection(scores, view, right), "");

  fd::AggregationResult wrong = right;
  wrong.accepted_clients = {10, 12};
  wrong.rejected_clients = {11, 13};
  EXPECT_NE(check_fedguard_selection(scores, view, wrong), "");
}

TEST(GlobalModel, WrongAggregateFailsTheCheck) {
  const fd::UpdateMatrix matrix = make_updates({{1.f, 2.f}, {3.f, 4.f}, {100.f, -100.f}});
  const fd::UpdateView view{matrix};
  const std::vector<std::size_t> accepted = slots_of(view, std::vector<int>{10, 11});
  const std::vector<double> mean = reference_mean(view, accepted, true);
  // Sample-weighted: (1*1 + 2*3) / 3 and (1*2 + 2*4) / 3.
  EXPECT_DOUBLE_EQ(mean[0], 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(mean[1], 10.0 / 3.0);
  const std::vector<float> previous{0.5f, -0.5f};
  const std::vector<float> right{static_cast<float>(mean[0]), static_cast<float>(mean[1])};
  EXPECT_EQ(check_global_model(previous, mean, 1.0, right), "");

  // The unweighted mean is a plausible but wrong aggregate.
  const std::vector<float> unweighted{2.f, 3.f};
  EXPECT_NE(check_global_model(previous, mean, 1.0, unweighted), "");
  // Averaging the rejected row in is wrong too.
  const std::vector<double> all = reference_mean(view, std::vector<std::size_t>{0, 1, 2}, true);
  const std::vector<float> poisoned{static_cast<float>(all[0]), static_cast<float>(all[1])};
  EXPECT_NE(check_global_model(previous, mean, 1.0, poisoned), "");
}

TEST(MultiKrum, WrongPickFailsTheCheck) {
  // Five clustered honest points and two far outliers.
  const fd::UpdateMatrix matrix =
      make_updates({{0.f, 0.f}, {0.1f, 0.f}, {0.f, 0.1f}, {0.1f, 0.1f}, {0.05f, 0.05f},
                    {9.f, 9.f}, {-9.f, 9.f}});
  const fd::UpdateView view{matrix};
  const KrumReference reference = naive_multi_krum(view, 0.2, 3);
  ASSERT_EQ(reference.selected.size(), 3u);
  EXPECT_EQ(reference.selected.front(), 4u);  // the cluster's centre scores best
  for (const std::size_t slot : reference.selected) EXPECT_LT(slot, 5u);

  fd::AggregationResult right;
  for (std::size_t k = 0; k < view.count(); ++k) {
    const bool selected = std::find(reference.selected.begin(), reference.selected.end(), k) !=
                          reference.selected.end();
    (selected ? right.accepted_clients : right.rejected_clients).push_back(10 + static_cast<int>(k));
  }
  EXPECT_EQ(check_krum_selection(reference, view, right), "");

  fd::AggregationResult wrong = right;
  wrong.accepted_clients.back() = 15;  // an outlier in place of an honest pick
  EXPECT_NE(check_krum_selection(reference, view, wrong), "");
}

TEST(LinkBytes, FrameArithmeticMatchesTheEncoders) {
  constexpr std::size_t kDim = 1000;
  constexpr std::size_t kChunk = 256;
  EXPECT_EQ(q8_reply_frame_bytes(kDim, kChunk),
            fedguard::net::client_update_frame_bytes(kDim, 0, fedguard::util::WireCodec::Q8,
                                                     kChunk));
  fedguard::net::RoundRequest request;
  request.psi_codec = fedguard::util::WireCodec::Q8;
  request.global_parameters.assign(kDim, 0.25f);
  EXPECT_EQ(request_frame_bytes(kDim),
            fedguard::net::kFrameHeaderBytes +
                fedguard::net::encode_round_request(request).size());
}

TEST(LinkBytes, WrongByteCountFailsTheCheck) {
  const LinkBytes expected = expected_q8_link_bytes(1000, 256, 4, 12);
  EXPECT_EQ(check_link_bytes(expected, expected), "");
  LinkBytes off_by_one = expected;
  off_by_one.to_server += 1;
  EXPECT_NE(check_link_bytes(expected, off_by_one), "");
  LinkBytes fp32_replies = expected;
  fp32_replies.to_server = 4 * 24 + 12 * fedguard::net::client_update_frame_bytes(1000, 0);
  EXPECT_NE(check_link_bytes(expected, fp32_replies), "");
}

TEST(Prometheus, ReadsAnUnlabelledSample) {
  const std::string text =
      "# TYPE fl_rounds_total counter\nfl_rounds_total_x 3\nfl_rounds_total 8\n";
  EXPECT_EQ(prometheus_value(text, "fl_rounds_total"), 8.0);
  EXPECT_EQ(prometheus_value(text, "absent_total"), -1.0);
}

}  // namespace
}  // namespace fedbench
