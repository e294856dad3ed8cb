#include "ncnas/nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ncnas/tensor/ops.hpp"

namespace ncnas::nn {

void Sgd::step(const std::vector<ParamPtr>& params) {
  for (const ParamPtr& p : params) {
    float* v = p->value.data();
    const float* g = p->grad.data();
    tensor::parallel_elems(p->size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) v[i] -= lr_ * g[i];
    });
  }
}

const std::string& Adam::key_for(const Parameter* p) {
  const auto it = key_cache_.find(p);
  if (it != key_cache_.end()) return it->second;
  const std::size_t count = ++name_counts_[p->name];
  std::string key = count == 1 ? p->name : p->name + "#" + std::to_string(count);
  return key_cache_.emplace(p, std::move(key)).first->second;
}

void Adam::step(const std::vector<ParamPtr>& params) {
  ++step_count_;
  const float b1t = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float b2t = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (const ParamPtr& p : params) {
    Moments& mom = state_[key_for(p.get())];
    if (mom.m.empty()) {
      mom.m = tensor::Tensor(p->value.shape());
      mom.v = tensor::Tensor(p->value.shape());
    } else if (mom.m.size() != p->size()) {
      // Only reachable when step() receives parameters other than the ones
      // import_state() checked the imported moments against.
      throw std::invalid_argument("Adam::step: imported moments for " + p->name +
                                  " do not match the parameter shape");
    }
    float* val = p->value.data();
    const float* g = p->grad.data();
    float* m = mom.m.data();
    float* v = mom.v.data();
    // Per-element update with no cross-element dependency: deterministic to
    // chunk (parallel_elems boundaries are thread-count-independent).
    tensor::parallel_elems(p->size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
        v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
        const float mhat = m[i] / b1t;
        const float vhat = v[i] / b2t;
        val[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      }
    });
  }
}

Adam::State Adam::export_state() const {
  State out;
  out.step_count = step_count_;
  out.entries.reserve(state_.size());
  for (const auto& [key, mom] : state_) {
    MomentEntry e;
    e.key = key;
    e.shape = mom.m.shape();
    e.m.assign(mom.m.flat().begin(), mom.m.flat().end());
    e.v.assign(mom.v.flat().begin(), mom.v.flat().end());
    out.entries.push_back(std::move(e));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const MomentEntry& a, const MomentEntry& b) { return a.key < b.key; });
  return out;
}

void Adam::import_state(const State& state, const std::vector<ParamPtr>& params) {
  if (state.step_count < 0 || state.step_count == std::numeric_limits<long>::max()) {
    throw std::invalid_argument("Adam::import_state: step count out of range");
  }
  step_count_ = state.step_count;
  state_.clear();
  key_cache_.clear();
  name_counts_.clear();
  for (const MomentEntry& e : state.entries) {
    if (e.m.size() != tensor::numel(e.shape) || e.v.size() != e.m.size()) {
      throw std::invalid_argument("Adam::import_state: moment size mismatch for " + e.key);
    }
    Moments mom;
    mom.m = tensor::Tensor(e.shape, e.m);
    mom.v = tensor::Tensor(e.shape, e.v);
    state_.emplace(e.key, std::move(mom));
  }
  // Keys are assigned in first-seen order, the order step() sees `params`.
  for (const ParamPtr& p : params) {
    const auto it = state_.find(key_for(p.get()));
    if (it != state_.end() && it->second.m.size() != p->size()) {
      throw std::invalid_argument("Adam::import_state: moments for " + it->first +
                                  " do not match the parameter size");
    }
  }
}

}  // namespace ncnas::nn
