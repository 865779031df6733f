#include "probes.hpp"

#include <numeric>

#include "data/synthetic_mnist.hpp"
#include "models/classifier.hpp"
#include "models/cvae.hpp"
#include "net/message.hpp"
#include "nn/linear.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedbench {

namespace fm = fedguard::models;
namespace ft = fedguard::tensor;

namespace {

const fm::ImageGeometry kGeometry{1, 28, 28, 10};

// Median seconds of `body` over repeated calls: at least 5, then until about
// `budget_s` of calls have run (at most 5000).
template <typename F>
double median_call_seconds(F&& body, double budget_s = 0.1) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 5 ||
         (samples.size() < 5000 && seconds_between(start, Clock::now()) < budget_s)) {
    const Clock::time_point t0 = Clock::now();
    body();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return median(samples);
}

// Forward and backward time of each layer of `network` at input `input`,
// appended as nn.<model>.<i>-<Layer>.<phase>_us.
void probe_layers(const std::string& model, fedguard::nn::Sequential& network,
                  const ft::Tensor& input, std::vector<Metric>& out) {
  const std::size_t layers = network.layer_count();
  std::vector<std::vector<double>> forward(layers), backward(layers);
  const Clock::time_point start = Clock::now();
  while (forward[0].size() < 5 ||
         (forward[0].size() < 2000 && seconds_between(start, Clock::now()) < 0.2)) {
    ft::Tensor x = input;
    for (std::size_t i = 0; i < layers; ++i) {
      const Clock::time_point t0 = Clock::now();
      x = network.layer(i).forward(x);
      forward[i].push_back(seconds_between(t0, Clock::now()));
    }
    ft::Tensor grad{x.shape(), 1.0f / static_cast<float>(x.size())};
    for (std::size_t i = layers; i-- > 0;) {
      const Clock::time_point t0 = Clock::now();
      grad = network.layer(i).backward(grad);
      backward[i].push_back(seconds_between(t0, Clock::now()));
    }
  }
  for (std::size_t i = 0; i < layers; ++i) {
    const std::string prefix =
        "nn." + model + "." + std::to_string(i) + "-" + network.layer(i).name() + ".";
    out.push_back({prefix + "forward_us", median(forward[i]) * 1e6, "us"});
    out.push_back({prefix + "backward_us", median(backward[i]) * 1e6, "us"});
  }
}

// GFLOP/s of the matmul family a Linear layer runs per batch (forward
// x W^T, weight gradient, input gradient) at the network's widest Linear.
double linear_gemm_gflops(fedguard::nn::Sequential& network, std::size_t batch) {
  std::size_t in = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < network.layer_count(); ++i) {
    if (const auto* linear = dynamic_cast<const fedguard::nn::Linear*>(&network.layer(i))) {
      if (linear->in_features() * linear->out_features() > in * out) {
        in = linear->in_features();
        out = linear->out_features();
      }
    }
  }
  ft::Tensor x{{batch, in}, 0.5f};
  ft::Tensor w{{out, in}, 0.01f};
  ft::Tensor y{{batch, out}};
  ft::Tensor gy{{batch, out}, 0.1f};
  ft::Tensor gw{{out, in}};
  ft::Tensor gx{{batch, in}};
  const double seconds = median_call_seconds([&] {
    ft::matmul_trans_b(x, w, y);
    ft::matmul_trans_a_accumulate(gy, x, gw);
    ft::matmul(gy, w, gx);
  });
  const double flops = 3.0 * 2.0 * static_cast<double>(batch * in * out);
  return flops / seconds * 1e-9;
}

}  // namespace

void run_probes(const WorkloadSpec& spec, std::uint64_t seed, SpanRecorder& spans,
                std::vector<Metric>& out) {
  // One client's worth of data, drawn like the workload's training set.
  const std::size_t local = std::max<std::size_t>(spec.train_samples / spec.num_clients, 1);
  const fedguard::data::Dataset data =
      fedguard::data::generate_synthetic_mnist(local, seed ^ 0x9b0beULL);
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), std::size_t{0});

  fm::Cvae cvae{spec.cvae, seed};
  const ft::Tensor flat = data.gather_flat(all);
  const double train_s = timed(spans, "Cvae::train", "models", [&] {
    cvae.train(flat, data.labels(), spec.client.cvae_epochs, spec.client.cvae_batch_size,
               spec.client.cvae_learning_rate);
  });
  out.push_back({"models.cvae_train_s", train_s, "s"});

  fedguard::util::Rng rng{seed ^ 0xdec0deULL};
  const ft::Tensor z = fm::sample_standard_normal(spec.fedguard_samples, spec.cvae.latent, rng);
  const std::vector<int> labels =
      fm::sample_categorical_labels(spec.fedguard_samples,
                                    std::vector<double>(spec.cvae.num_classes, 1.0), rng);
  double decode_s = 0.0;
  timed(spans, "CvaeDecoder::decode", "models", [&] {
    decode_s = median_call_seconds([&] { (void)cvae.decoder().decode(z, labels); });
  });
  out.push_back({"models.cvae_decode_ms", decode_s * 1e3, "ms"});

  const std::size_t batch = std::min(spec.client.batch_size, data.size());
  std::vector<std::size_t> first(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(batch));
  const fedguard::data::Dataset::Batch images = data.gather(first);
  fm::Classifier classifier{fm::ClassifierArch::Mlp, kGeometry, seed};
  double step_s = 0.0;
  timed(spans, "Classifier::train_batch", "models", [&] {
    step_s = median_call_seconds([&] {
      (void)classifier.train_batch(images.images, images.labels, spec.client.learning_rate,
                                   spec.client.momentum);
    });
  });
  out.push_back({"models.classifier_step_ms", step_s * 1e3, "ms"});

  timed(spans, "layers", "nn", [&] {
    probe_layers("classifier", classifier.network(), images.images, out);
    const std::size_t cvae_batch = spec.client.cvae_batch_size;
    ft::Tensor zy{{cvae_batch, spec.cvae.decoder_input()}, 0.3f};
    probe_layers("cvae", cvae.decoder().network(), zy, out);
  });

  timed(spans, "gemm", "tensor", [&] {
    out.push_back({"tensor.gemm_classifier_gflops",
                   linear_gemm_gflops(classifier.network(), batch), "GFLOP/s"});
    out.push_back({"tensor.gemm_cvae_gflops",
                   linear_gemm_gflops(cvae.decoder().network(), spec.client.cvae_batch_size),
                   "GFLOP/s"});
  });

  // One reply at the workload's model dimension and codec; FedGuard replies
  // carry the decoder as well.
  fedguard::net::RoundReply reply;
  reply.round = 1;
  reply.psi_codec = spec.codec;
  reply.psi_chunk = spec.chunk;
  reply.update.client_id = 0;
  reply.update.num_samples = local;
  reply.update.psi = classifier.parameters_flat();
  if (spec.strategy == StrategyKind::FedGuard) {
    reply.update.theta = cvae.decoder().parameters_flat();
  }
  std::vector<std::byte> payload;
  timed(spans, "wire", "net", [&] {
    out.push_back({"net.encode_reply_us",
                   median_call_seconds([&] { payload = fedguard::net::encode_round_reply(reply); }) *
                       1e6,
                   "us"});
    out.push_back({"net.decode_reply_us",
                   median_call_seconds(
                       [&] { (void)fedguard::net::decode_round_reply(payload); }) *
                       1e6,
                   "us"});
  });
  out.push_back({"net.reply_bytes",
                 static_cast<double>(fedguard::net::kFrameHeaderBytes + payload.size()), "bytes"});
}

}  // namespace fedbench
