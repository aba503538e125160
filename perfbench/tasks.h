#pragma once

// Seeded workload inputs. Each workload fixes the *distribution* of its
// data (class templates, centroids, the vocabulary mapping) and draws the
// samples from the run's --seed, so every seed is an equally hard instance
// of the same task and quality metrics compare across seeds.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/task.h"
#include "src/data/image_data.h"
#include "src/nn/heads.h"
#include "src/nn/resnet.h"

namespace perfbench {

/// CIFAR10-analog image classification (core::make_cifar10_analog's
/// shapes and ResNet): the class templates come from a fixed dataset seed;
/// --seed picks which 1024 training and 256 test samples of a 4096-sample
/// pool the run sees.
class ImagePoolTask : public pipemare::core::Task {
 public:
  explicit ImagePoolTask(std::uint64_t seed);

  std::string name() const override { return "cifar10-pool"; }
  std::string metric_name() const override { return "test accuracy (%)"; }
  pipemare::nn::Model build_model() const override;
  const pipemare::nn::LossHead& loss() const override { return loss_; }
  int train_size() const override { return static_cast<int>(train_.size()); }
  pipemare::data::MicroBatches minibatch(const std::vector<int>& indices,
                                         int micro_size) const override;
  double evaluate(const pipemare::nn::Model& model,
                  std::span<const float> params) const override;

 private:
  pipemare::data::SynthImageDataset pool_;
  pipemare::nn::ResNetConfig model_cfg_;
  pipemare::nn::ClassificationXent loss_;
  std::vector<int> train_;  ///< pool indices of the training split
  std::vector<int> test_;   ///< pool indices of the test split
};

/// Gaussian-cluster classification for the 6x128 serving MLP: fixed class
/// centroids, samples (labels and noise) drawn from --seed.
class MlpTask : public pipemare::core::Task {
 public:
  static constexpr int kWidth = 128;
  static constexpr int kLayers = 6;
  static constexpr int kClasses = 10;

  explicit MlpTask(std::uint64_t seed);

  std::string name() const override { return "mlp-clusters"; }
  std::string metric_name() const override { return "test accuracy (%)"; }
  pipemare::nn::Model build_model() const override;
  const pipemare::nn::LossHead& loss() const override { return loss_; }
  int train_size() const override { return kTrain; }
  pipemare::data::MicroBatches minibatch(const std::vector<int>& indices,
                                         int micro_size) const override;
  double evaluate(const pipemare::nn::Model& model,
                  std::span<const float> params) const override;

 private:
  static constexpr int kTrain = 4096;
  static constexpr int kTest = 1024;
  pipemare::nn::ClassificationXent loss_;
  std::vector<float> x_;   ///< [kTrain + kTest, kWidth]
  std::vector<int> y_;     ///< kTrain + kTest labels
};

/// Top-1 accuracy (%) of a classifier over `batches`.
double classification_accuracy(const pipemare::nn::Model& model,
                               std::span<const float> params,
                               const pipemare::data::MicroBatches& batches,
                               const pipemare::nn::LossHead& head);

}  // namespace perfbench
