// Trainer — minibatch gradient-descent training of a Graph model.
//
// Mirrors the paper's reward-estimation recipe: Adam (lr 1e-3), a configurable
// number of epochs (1 during the search, 20 in post-training) and an optional
// subset fraction of the training data (Combo searches on 10–40 %).
#pragma once

#include <span>
#include <vector>

#include "ncnas/nn/graph.hpp"
#include "ncnas/nn/loss.hpp"
#include "ncnas/nn/metrics.hpp"
#include "ncnas/nn/optimizer.hpp"
#include "ncnas/tensor/rng.hpp"

namespace ncnas::nn {

struct TrainOptions {
  std::size_t epochs = 1;
  std::size_t batch_size = 32;
  float learning_rate = 0.001f;
  LossKind loss = LossKind::kMse;
  /// Fraction of the training rows actually used (sampled once, then shuffled
  /// every epoch). 1.0 = full data.
  double subset_fraction = 1.0;
};

struct TrainResult {
  std::vector<float> epoch_losses;  ///< mean train loss per completed epoch
  std::size_t batches_run = 0;
};

/// Extracts rows [begin, end) from a rank-2 tensor.
[[nodiscard]] tensor::Tensor slice_rows(const tensor::Tensor& t, std::size_t begin,
                                        std::size_t end);
/// slice_rows into `out`, reusing its capacity.
void slice_rows_into(const tensor::Tensor& t, std::size_t begin, std::size_t end,
                     tensor::Tensor& out);

/// Extracts the listed rows from a rank-2 tensor (gather).
[[nodiscard]] tensor::Tensor gather_rows(const tensor::Tensor& t,
                                         std::span<const std::size_t> rows);
/// gather_rows into `out`, reusing its capacity.
void gather_rows_into(const tensor::Tensor& t, std::span<const std::size_t> rows,
                      tensor::Tensor& out);

/// Trains `model` on (inputs, target); `inputs[i]` is the full data matrix for
/// the model's i-th declared input, all with the same row count as `target`.
/// `rng` drives subset sampling, epoch shuffling, and dropout masks — this is
/// the agent-specific seed of the paper.
TrainResult fit(Graph& model, std::span<const tensor::Tensor> inputs,
                const tensor::Tensor& target, const TrainOptions& opts, tensor::Rng& rng);

/// Runs the model over (inputs, target) in eval mode and returns the metric.
[[nodiscard]] float evaluate(Graph& model, std::span<const tensor::Tensor> inputs,
                             const tensor::Tensor& target, Metric metric,
                             std::size_t batch_size = 256);

}  // namespace ncnas::nn
