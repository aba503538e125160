#include "perfbench/tasks.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace pipemare;

namespace {

constexpr int kPoolSize = 4096;
constexpr int kImageTrain = 1024;
constexpr int kImageTest = 256;
constexpr std::uint64_t kImageTemplateSeed = 1;  // make_cifar10_analog's default
constexpr std::uint64_t kMlpCentroidSeed = 17;
constexpr double kMlpNoise = 2.5;
constexpr double kMlpLabelNoise = 0.3;

data::ImageDatasetConfig pool_config() {
  data::ImageDatasetConfig d;
  d.classes = 10;
  d.train_size = kPoolSize;
  d.test_size = 1;
  d.image_size = 12;
  d.seed = kImageTemplateSeed;
  return d;
}

}  // namespace

double classification_accuracy(const nn::Model& model, std::span<const float> params,
                               const data::MicroBatches& batches,
                               const nn::LossHead& head) {
  double correct = 0.0, count = 0.0;
  for (std::size_t b = 0; b < batches.inputs.size(); ++b) {
    auto caches = model.make_caches();
    nn::Flow out = model.forward(batches.inputs[b], params, caches);
    auto res = head.forward_backward(out.x, batches.targets[b]);
    correct += res.correct;
    count += res.count;
  }
  return count == 0.0 ? 0.0 : 100.0 * correct / count;
}

// ---------------------------------------------------------------------------

ImagePoolTask::ImagePoolTask(std::uint64_t seed) : pool_(pool_config()) {
  model_cfg_.in_channels = 3;
  model_cfg_.num_classes = 10;
  model_cfg_.base_channels = 8;
  model_cfg_.blocks_per_group = {1, 1};
  std::vector<int> order(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) order[static_cast<std::size_t>(i)] = i;
  util::Rng rng(seed);
  rng.shuffle(order);
  train_.assign(order.begin(), order.begin() + kImageTrain);
  test_.assign(order.begin() + kImageTrain,
               order.begin() + kImageTrain + kImageTest);
}

nn::Model ImagePoolTask::build_model() const { return nn::make_resnet(model_cfg_); }

data::MicroBatches ImagePoolTask::minibatch(const std::vector<int>& indices,
                                            int micro_size) const {
  std::vector<int> pool_idx;
  pool_idx.reserve(indices.size());
  for (int i : indices) pool_idx.push_back(train_.at(static_cast<std::size_t>(i)));
  return pool_.train_minibatch(pool_idx, micro_size);
}

double ImagePoolTask::evaluate(const nn::Model& model,
                               std::span<const float> params) const {
  return classification_accuracy(model, params, pool_.train_minibatch(test_, 64),
                                 loss_);
}

// ---------------------------------------------------------------------------

MlpTask::MlpTask(std::uint64_t seed) {
  util::Rng centroid_rng(kMlpCentroidSeed);
  std::vector<float> centroids(static_cast<std::size_t>(kClasses) * kWidth);
  for (auto& c : centroids) c = static_cast<float>(centroid_rng.normal());
  util::Rng rng(seed);
  const int n = kTrain + kTest;
  x_.resize(static_cast<std::size_t>(n) * kWidth);
  y_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int y = rng.randint(kClasses);
    y_[static_cast<std::size_t>(i)] = y;
    for (int j = 0; j < kWidth; ++j) {
      // Unit variance per feature: centroid N(0,1) plus N(0, noise^2).
      x_[static_cast<std::size_t>(i) * kWidth + j] = static_cast<float>(
          (centroids[static_cast<std::size_t>(y) * kWidth + j] +
           rng.normal(0.0, kMlpNoise)) /
          std::sqrt(1.0 + kMlpNoise * kMlpNoise));
    }
    // Label noise on the training split keeps the training loss away from
    // zero, where its seed-to-seed relative spread would be large.
    if (i < kTrain && rng.uniform() < kMlpLabelNoise) {
      y_[static_cast<std::size_t>(i)] = rng.randint(kClasses);
    }
  }
}

nn::Model MlpTask::build_model() const {
  nn::Model m;
  for (int i = 0; i < kLayers; ++i) {
    m.add(std::make_unique<nn::Linear>(kWidth, kWidth, /*relu_init=*/true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(kWidth, kClasses));
  return m;
}

data::MicroBatches MlpTask::minibatch(const std::vector<int>& indices,
                                      int micro_size) const {
  if (micro_size <= 0 || indices.size() % static_cast<std::size_t>(micro_size) != 0) {
    throw std::invalid_argument("MlpTask::minibatch: minibatch must split evenly");
  }
  data::MicroBatches out;
  for (std::size_t start = 0; start < indices.size();
       start += static_cast<std::size_t>(micro_size)) {
    nn::Flow f;
    f.x = tensor::Tensor({micro_size, kWidth});
    tensor::Tensor t({micro_size});
    for (int r = 0; r < micro_size; ++r) {
      const auto row = static_cast<std::size_t>(indices[start + static_cast<std::size_t>(r)]);
      std::copy_n(x_.data() + row * kWidth, kWidth,
                  f.x.data() + static_cast<std::size_t>(r) * kWidth);
      t[r] = static_cast<float>(y_[row]);
    }
    out.inputs.push_back(std::move(f));
    out.targets.push_back(std::move(t));
  }
  return out;
}

double MlpTask::evaluate(const nn::Model& model, std::span<const float> params) const {
  std::vector<int> idx(kTest);
  for (int i = 0; i < kTest; ++i) idx[static_cast<std::size_t>(i)] = kTrain + i;
  return classification_accuracy(model, params, minibatch(idx, 64), loss_);
}

}  // namespace perfbench
