#include "ncnas/nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ncnas::nn {

void Sgd::step(const std::vector<ParamPtr>& params) {
  const float lr = lr_;
  for (const ParamPtr& p : params) {
    float* v = p->value.data();
    const float* g = p->grad.data();
    const std::size_t n = p->size();
    for (std::size_t i = 0; i < n; ++i) v[i] -= lr * g[i];
  }
}

const std::string& Adam::key_for(const Parameter* p) {
  const auto it = key_cache_.find(p);
  if (it != key_cache_.end()) return it->second;
  const std::size_t count = ++name_counts_[p->name];
  std::string key = count == 1 ? p->name : p->name + "#" + std::to_string(count);
  return key_cache_.emplace(p, std::move(key)).first->second;
}

namespace {

/// Adam's per-element update over [0, n). Every operand arrives by value or
/// through a pointer to the buffers it updates, so nothing the loop reads can
/// alias its stores and the compiler vectorizes it (sqrt and the division are
/// correctly rounded in vector form too, so the bits are the scalar loop's).
struct AdamCoefs {
  float lr, beta1, beta2, eps, b1t, b2t;
};

void adam_update(const AdamCoefs c, float* val, const float* g, float* m, float* v,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * g[i];
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * g[i] * g[i];
    const float mhat = m[i] / c.b1t;
    const float vhat = v[i] / c.b2t;
    val[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

}  // namespace

void Adam::step(const std::vector<ParamPtr>& params) {
  ++step_count_;
  const AdamCoefs coefs{lr_,
                        beta1_,
                        beta2_,
                        eps_,
                        1.0f - std::pow(beta1_, static_cast<float>(step_count_)),
                        1.0f - std::pow(beta2_, static_cast<float>(step_count_))};
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
    adam_update(coefs, p->value.data(), p->grad.data(), mom.m.data(), mom.v.data(),
                p->size());
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
  // Build the new state aside and commit it only once all of it checks out,
  // so a rejected state leaves the optimizer as it was.
  if (state.step_count < 0 || state.step_count == std::numeric_limits<long>::max()) {
    throw std::invalid_argument("Adam::import_state: step count out of range");
  }
  Adam next(lr_, beta1_, beta2_, eps_);
  next.step_count_ = state.step_count;
  for (const MomentEntry& e : state.entries) {
    if (e.m.size() != tensor::numel(e.shape) || e.v.size() != e.m.size()) {
      throw std::invalid_argument("Adam::import_state: moment size mismatch for " + e.key);
    }
    Moments mom;
    mom.m = tensor::Tensor(e.shape, e.m);
    mom.v = tensor::Tensor(e.shape, e.v);
    next.state_.emplace(e.key, std::move(mom));
  }
  // Keys are assigned in first-seen order, the order step() sees `params`.
  for (const ParamPtr& p : params) {
    const auto it = next.state_.find(next.key_for(p.get()));
    if (it != next.state_.end() && it->second.m.size() != p->size()) {
      throw std::invalid_argument("Adam::import_state: moments for " + it->first +
                                  " do not match the parameter size");
    }
  }
  *this = std::move(next);
}

}  // namespace ncnas::nn
