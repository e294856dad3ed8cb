#include "ncnas/analytics/posttrain.hpp"

#include <chrono>

#include "ncnas/exec/evaluator.hpp"
#include "ncnas/nn/trainer.hpp"

namespace ncnas::analytics {

namespace {

PostTrainResult train_graph(nn::Graph model, const data::Dataset& ds,
                            const PostTrainOptions& opts) {
  nn::TrainOptions train;
  train.epochs = opts.epochs;
  train.batch_size = ds.batch_size;
  train.loss = ds.loss;
  train.subset_fraction = 1.0;  // full data, no timeout: the paper's stage 2

  tensor::Rng rng(opts.seed);
  const auto start = std::chrono::steady_clock::now();
  (void)nn::fit(model, ds.x_train, ds.y_train, train, rng);
  const auto stop = std::chrono::steady_clock::now();

  PostTrainResult result;
  result.train_seconds = std::chrono::duration<double>(stop - start).count();
  result.final_metric = nn::evaluate(model, ds.x_valid, ds.y_valid, ds.metric);
  result.params = model.param_count();
  return result;
}

}  // namespace

PostTrainResult post_train(const space::SearchSpace& space, const data::Dataset& ds,
                           const space::ArchEncoding& arch, const PostTrainOptions& opts) {
  PostTrainResult result = train_graph(exec::build_for(space, ds, arch, opts.seed), ds, opts);
  result.arch = arch;
  return result;
}

PostTrainResult post_train_baseline(const data::Dataset& ds, const PostTrainOptions& opts) {
  tensor::Rng rng(opts.seed);
  return train_graph(data::baseline_for(ds, rng), ds, opts);
}

std::vector<PostTrainResult> post_train_many(const space::SearchSpace& space,
                                             const data::Dataset& ds,
                                             const std::vector<nas::EvalRecord>& top,
                                             const PostTrainOptions& opts,
                                             tensor::ThreadPool* pool) {
  std::vector<PostTrainResult> results(top.size());
  const auto one = [&](std::size_t i) {
    results[i] = post_train(space, ds, top[i].arch, opts);
    results[i].search_reward = top[i].reward;
  };
  if (pool != nullptr && top.size() > 1) {
    tensor::parallel_for(*pool, top.size(), one);
  } else {
    for (std::size_t i = 0; i < top.size(); ++i) one(i);
  }
  return results;
}

RatioRow ratios(const PostTrainResult& model, const PostTrainResult& baseline) {
  RatioRow row;
  row.accuracy_ratio =
      baseline.final_metric != 0.0f ? model.final_metric / baseline.final_metric : 0.0f;
  row.param_ratio = model.params != 0
                        ? static_cast<float>(baseline.params) / static_cast<float>(model.params)
                        : 0.0f;
  row.time_ratio = model.train_seconds > 0.0
                       ? static_cast<float>(baseline.train_seconds / model.train_seconds)
                       : 0.0f;
  return row;
}

}  // namespace ncnas::analytics
