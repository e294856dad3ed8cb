#include "ncnas/nn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "ncnas/obs/profiler.hpp"

namespace ncnas::nn {

using tensor::Tensor;

void slice_rows_into(const Tensor& t, std::size_t begin, std::size_t end, Tensor& out) {
  if (t.rank() != 2 || begin > end || end > t.dim(0)) {
    throw std::invalid_argument("slice_rows: bad range or rank");
  }
  const std::size_t cols = t.dim(1);
  out.reset({end - begin, cols});
  std::copy(t.data() + begin * cols, t.data() + end * cols, out.data());
}

Tensor slice_rows(const Tensor& t, std::size_t begin, std::size_t end) {
  Tensor out;
  slice_rows_into(t, begin, end, out);
  return out;
}

void gather_rows_into(const Tensor& t, std::span<const std::size_t> rows, Tensor& out) {
  if (t.rank() != 2) throw std::invalid_argument("gather_rows: rank-2 tensor required");
  const std::size_t cols = t.dim(1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= t.dim(0)) throw std::invalid_argument("gather_rows: row out of range");
  }
  out.reset({rows.size(), cols});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(t.data() + rows[i] * cols, t.data() + (rows[i] + 1) * cols,
              out.data() + i * cols);
  }
}

Tensor gather_rows(const Tensor& t, std::span<const std::size_t> rows) {
  Tensor out;
  gather_rows_into(t, rows, out);
  return out;
}

TrainResult fit(Graph& model, std::span<const Tensor> inputs, const Tensor& target,
                const TrainOptions& opts, tensor::Rng& rng) {
  if (inputs.empty()) throw std::invalid_argument("fit: no inputs");
  const std::size_t rows = target.dim(0);
  for (const Tensor& x : inputs) {
    if (x.rank() != 2 || x.dim(0) != rows) {
      throw std::invalid_argument("fit: every input must be rank-2 with " + std::to_string(rows) +
                                  " rows");
    }
  }
  if (opts.batch_size == 0) throw std::invalid_argument("fit: batch_size must be positive");

  // Subset selection (done once, as in the paper's fixed 10 % training split).
  std::vector<std::size_t> index(rows);
  std::iota(index.begin(), index.end(), 0);
  if (opts.subset_fraction < 1.0) {
    const auto keep = static_cast<std::size_t>(
        std::max<double>(1.0, opts.subset_fraction * static_cast<double>(rows)));
    // Partial Fisher–Yates: the first `keep` entries become a uniform sample.
    for (std::size_t i = 0; i < keep; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.uniform_int(rows - i));
      std::swap(index[i], index[j]);
    }
    index.resize(keep);
  }

  Adam optimizer(opts.learning_rate);
  TrainResult result;
  ForwardCtx ctx{.training = true, .rng = &rng};
  // Batch buffers, reused across batches.
  std::vector<Tensor> bx(inputs.size());
  Tensor by;

  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    NCNAS_PROF_SCOPE("train/epoch");
    // Epoch shuffle (Fisher–Yates with our deterministic rng).
    for (std::size_t i = index.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform_int(i));
      std::swap(index[i - 1], index[j]);
    }
    double epoch_loss = 0.0;
    std::size_t epoch_batches = 0;
    for (std::size_t start = 0; start < index.size(); start += opts.batch_size) {
      if (opts.should_stop && opts.should_stop()) {
        result.stopped_early = true;
        if (epoch_batches > 0) {
          result.epoch_losses.push_back(static_cast<float>(epoch_loss / epoch_batches));
        }
        return result;
      }
      const std::size_t stop = std::min(start + opts.batch_size, index.size());
      const std::span<const std::size_t> batch_rows(index.data() + start, stop - start);
      {
        NCNAS_PROF_SCOPE("train/gather");
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          gather_rows_into(inputs[i], batch_rows, bx[i]);
        }
        gather_rows_into(target, batch_rows, by);
      }

      model.zero_grad();
      const Tensor* pred = nullptr;
      {
        NCNAS_PROF_SCOPE("train/forward");
        pred = &model.forward(bx, ctx);
      }
      LossValue lv;
      {
        NCNAS_PROF_SCOPE("train/loss");
        lv = compute_loss(opts.loss, *pred, by);
      }
      {
        NCNAS_PROF_SCOPE("train/backward");
        model.backward(lv.grad);
      }
      {
        NCNAS_PROF_SCOPE("train/optimizer");
        optimizer.step(model.parameters());
      }

      epoch_loss += lv.loss;
      ++epoch_batches;
      ++result.batches_run;
    }
    if (epoch_batches > 0) {
      result.epoch_losses.push_back(static_cast<float>(epoch_loss / epoch_batches));
    }
  }
  return result;
}

float evaluate(Graph& model, std::span<const Tensor> inputs, const Tensor& target,
               Metric metric, std::size_t batch_size) {
  const std::size_t rows = target.dim(0);
  Tensor all_pred;
  ForwardCtx ctx{.training = false, .rng = nullptr};
  std::vector<Tensor> bx(inputs.size());
  for (std::size_t start = 0; start < rows; start += batch_size) {
    const std::size_t stop = std::min(start + batch_size, rows);
    for (std::size_t i = 0; i < inputs.size(); ++i) slice_rows_into(inputs[i], start, stop, bx[i]);
    const Tensor& pred = model.forward(bx, ctx);
    if (all_pred.empty()) {
      all_pred = Tensor({rows, pred.dim(1)});
    }
    std::copy(pred.data(), pred.data() + pred.size(), all_pred.data() + start * pred.dim(1));
  }
  return compute_metric(metric, all_pred, target);
}

}  // namespace ncnas::nn
