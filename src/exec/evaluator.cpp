#include "ncnas/exec/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/obs/profiler.hpp"

namespace ncnas::exec {

space::TaskHead head_for(const data::Dataset& ds) {
  if (ds.metric == nn::Metric::kAccuracy) {
    return space::TaskHead::classification(2);
  }
  return space::TaskHead::regression();
}

nn::Graph build_for(const space::SearchSpace& space, const data::Dataset& ds,
                    const space::ArchEncoding& arch, std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<std::size_t> dims;
  dims.reserve(ds.input_count());
  for (std::size_t i = 0; i < ds.input_count(); ++i) dims.push_back(ds.input_dim(i));
  return space::build_model(space, arch, dims, head_for(ds), rng);
}

float reward_floor(const data::Dataset& ds) noexcept {
  return ds.metric == nn::Metric::kR2 ? -1.0f : 0.0f;
}

std::size_t train_samples(const data::Dataset& ds, const FidelityConfig& fid) {
  return static_cast<std::size_t>(
      std::max(1.0, fid.subset_fraction * static_cast<double>(ds.train_rows())));
}

obs::Histogram* train_wall_histogram(obs::Telemetry* telemetry) {
  if (telemetry == nullptr) return nullptr;
  return &telemetry->metrics().histogram("ncnas_train_wall_ms", obs::exp_buckets(0.25, 2.0, 18));
}

TrainOutcome fit_and_score(nn::Graph& model, const data::Dataset& ds, const FidelityConfig& fid,
                           std::size_t epochs, tensor::Rng rng, const RewardFn& reward_fn,
                           const EvalResult& charged, obs::Histogram* train_wall_ms) {
  std::optional<obs::Stopwatch> timer;
  if (train_wall_ms != nullptr) timer.emplace();
  if (epochs > 0) {
    nn::TrainOptions opts;
    opts.epochs = epochs;
    opts.batch_size = fid.batch_size != 0 ? fid.batch_size : ds.batch_size;
    opts.learning_rate = fid.learning_rate;
    opts.loss = ds.loss;
    opts.subset_fraction = fid.subset_fraction;
    // Same region as the train_wall_ms stopwatch's training half, so
    // obs::eval_wall_gap can reconcile profile totals against journal wall time.
    NCNAS_PROF_SCOPE("eval/train");
    (void)nn::fit(model, ds.x_train, ds.y_train, opts, rng);
  }

  const auto valid_rows = static_cast<std::size_t>(
      std::max(1.0, fid.valid_fraction * static_cast<double>(ds.valid_rows())));
  float metric;
  {
    NCNAS_PROF_SCOPE("eval/validate");
    if (valid_rows >= ds.valid_rows()) {
      metric = nn::evaluate(model, ds.x_valid, ds.y_valid, ds.metric);
    } else {
      std::vector<tensor::Tensor> xv;
      xv.reserve(ds.input_count());
      for (const tensor::Tensor& x : ds.x_valid) xv.push_back(nn::slice_rows(x, 0, valid_rows));
      metric = nn::evaluate(model, xv, nn::slice_rows(ds.y_valid, 0, valid_rows), ds.metric);
    }
  }
  TrainOutcome out;
  const float raw = reward_fn ? reward_fn({metric, charged.params, charged.sim_duration}) : metric;
  out.reward = std::max(raw, reward_floor(ds));
  if (timer) {
    out.train_wall_ms = timer->elapsed_ms();
    if (epochs > 0) train_wall_ms->observe(out.train_wall_ms);
  }
  return out;
}

TrainingEvaluator::TrainingEvaluator(const space::SearchSpace& space,
                                     const data::Dataset& dataset, FidelityConfig fidelity,
                                     CostModel cost)
    : space_(&space), dataset_(&dataset), fidelity_(fidelity), cost_(cost) {}

void TrainingEvaluator::set_telemetry(obs::Telemetry* telemetry) {
  train_wall_ms_ = train_wall_histogram(telemetry);
}

std::string TrainingEvaluator::context_key() const {
  return eval_context_key(*dataset_, fidelity_, cost_);
}

float TrainingEvaluator::reward_floor() const noexcept { return exec::reward_floor(*dataset_); }

nn::Graph TrainingEvaluator::build(const space::ArchEncoding& arch, std::uint64_t seed) const {
  NCNAS_PROF_SCOPE("eval/build");
  return build_for(*space_, *dataset_, arch, seed);
}

void EvalResult::join() {
  if (!training.valid()) return;
  const TrainOutcome& outcome = training.get();
  reward = outcome.reward;
  train_wall_ms = outcome.train_wall_ms;
}

EvalResult TrainingEvaluator::plan(const space::ArchEncoding& arch, std::uint64_t seed) const {
  NCNAS_PROF_SCOPE("eval");
  const std::string key = space::arch_key(arch);
  nn::Graph model = build(arch, seed);

  EvalResult result;
  result.params = model.param_count();
  result.sim_duration =
      cost_.duration(result.params, train_samples(*dataset_, fidelity_), fidelity_.epochs, key);
  if (cost_.times_out(result.sim_duration)) {
    // Balsam kills the job at the timeout: the worker was occupied for the
    // full timeout window and the agent sees the floor reward.
    result.sim_duration = cost_.timeout_seconds;
    result.timed_out = true;
    result.reward = reward_floor();
  }
  return result;
}

TrainOutcome TrainingEvaluator::train(const space::ArchEncoding& arch, std::uint64_t seed,
                                      const EvalResult& planned) const {
  NCNAS_PROF_SCOPE("eval");
  nn::Graph model = build(arch, seed);
  return fit_and_score(model, *dataset_, fidelity_, fidelity_.epochs, tensor::Rng(seed).split(1),
                       reward_fn_, planned, train_wall_ms_);
}

EvalResult TrainingEvaluator::submit(const space::ArchEncoding& arch, std::uint64_t seed,
                                     tensor::ThreadPool* pool,
                                     std::function<void()> on_final) const {
  EvalResult result = plan(arch, seed);
  if (!on_final) on_final = [] {};
  if (result.timed_out) {
    on_final();
    return result;
  }
  auto task = std::make_shared<std::packaged_task<TrainOutcome()>>(
      [this, arch, seed, planned = result] { return train(arch, seed, planned); });
  result.training = task->get_future().share();
  if (pool != nullptr) {
    (void)pool->submit([task, on_final = std::move(on_final)] {
      (*task)();
      on_final();
    });
    return result;
  }
  // Inline, the result is final at once, as a serial reference must be.
  (*task)();
  result.join();
  on_final();
  return result;
}

EvalResult TrainingEvaluator::evaluate(const space::ArchEncoding& arch,
                                       std::uint64_t seed) const {
  return submit(arch, seed, nullptr);
}

RewardFn size_penalized_reward(float weight, std::size_t ref_params) {
  return [weight, ref_params](const RewardInputs& in) {
    if (in.params <= ref_params || ref_params == 0) return in.metric;
    const float excess = std::log10(static_cast<float>(in.params) /
                                    static_cast<float>(ref_params));
    return in.metric - weight * excess;
  };
}

void CachedEvaluator::set_telemetry(obs::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    lookup_hits_ = nullptr;
    lookup_misses_ = nullptr;
    inserts_ = nullptr;
    erases_counter_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = telemetry->metrics();
  lookup_hits_ = &m.counter("ncnas_eval_cache_hits_total");
  lookup_misses_ = &m.counter("ncnas_eval_cache_misses_total");
  inserts_ = &m.counter("ncnas_eval_cache_inserts_total");
  erases_counter_ = &m.counter("ncnas_eval_cache_erases_total");
}

std::string CachedEvaluator::map_key(const space::ArchEncoding& arch) const {
  std::string key = space::arch_key(arch);
  if (context_key_.empty()) return key;
  std::string out;
  out.reserve(context_key_.size() + 1 + key.size());
  out += context_key_;
  out += '\x1f';
  out += key;
  return out;
}

EvalResult CachedEvaluator::evaluate(const space::ArchEncoding& arch, std::uint64_t seed) const {
  const std::string key = map_key(arch);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    if (lookup_hits_ != nullptr) lookup_hits_->inc();
    EvalResult hit = it->second;
    hit.cache_hit = true;
    return hit;
  }
  ++misses_;
  if (lookup_misses_ != nullptr) lookup_misses_->inc();
  EvalResult result = inner_->evaluate(arch, seed);
  cache_.emplace(key, result);
  if (inserts_ != nullptr) inserts_->inc();
  return result;
}

std::optional<EvalResult> CachedEvaluator::lookup(const space::ArchEncoding& arch) const {
  const auto it = cache_.find(map_key(arch));
  if (it == cache_.end()) {
    ++misses_;
    if (lookup_misses_ != nullptr) lookup_misses_->inc();
    return std::nullopt;
  }
  ++hits_;
  if (lookup_hits_ != nullptr) lookup_hits_->inc();
  EvalResult hit = it->second;
  hit.cache_hit = true;
  return hit;
}

void CachedEvaluator::insert(const space::ArchEncoding& arch, const EvalResult& result) const {
  cache_.emplace(map_key(arch), result);
  if (inserts_ != nullptr) inserts_->inc();
}

void CachedEvaluator::erase(const space::ArchEncoding& arch) const {
  if (cache_.erase(map_key(arch)) != 0) {
    ++erases_;
    if (erases_counter_ != nullptr) erases_counter_->inc();
  }
}

void CachedEvaluator::clear() {
  cache_.clear();
  hits_ = 0;
  misses_ = 0;
  erases_ = 0;
}

CachedEvaluator::State CachedEvaluator::export_state() const {
  State out;
  out.entries.assign(cache_.begin(), cache_.end());
  for (auto& entry : out.entries) entry.second.join();
  std::sort(out.entries.begin(), out.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.hits = hits_;
  out.misses = misses_;
  return out;
}

void CachedEvaluator::import_state(const State& state) {
  cache_.clear();
  for (const auto& [key, result] : state.entries) cache_.emplace(key, result);
  hits_ = state.hits;
  misses_ = state.misses;
}

}  // namespace ncnas::exec
