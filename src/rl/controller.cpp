#include "ncnas/rl/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ncnas/nn/init.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::rl {

using tensor::Tensor;

namespace {

/// Row-wise softmax with entries at column >= arity masked out.
void masked_softmax_row(const float* logits, std::size_t arity, std::size_t width, float* probs) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::size_t j = 0; j < arity; ++j) mx = std::max(mx, logits[j]);
  float denom = 0.0f;
  for (std::size_t j = 0; j < arity; ++j) {
    probs[j] = std::exp(logits[j] - mx);
    denom += probs[j];
  }
  for (std::size_t j = 0; j < arity; ++j) probs[j] /= denom;
  for (std::size_t j = arity; j < width; ++j) probs[j] = 0.0f;
}

nn::LstmCell make_cell(std::size_t embed, std::size_t hidden, std::uint64_t seed) {
  tensor::Rng rng(seed ^ 0xA5A5A5A5A5A5A5A5ull);
  return {embed, hidden, rng};
}

}  // namespace

Controller::Controller(std::vector<std::size_t> arities, std::uint64_t seed, std::size_t hidden,
                       std::size_t embed)
    : arities_(std::move(arities)),
      hidden_(hidden),
      embed_dim_(embed),
      max_arity_(arities_.empty() ? 0
                                  : *std::max_element(arities_.begin(), arities_.end())),
      lstm_(make_cell(embed, hidden, seed)),
      adam_(0.001f) {
  if (arities_.empty()) throw std::invalid_argument("Controller: empty arity list");
  for (std::size_t a : arities_) {
    if (a == 0) throw std::invalid_argument("Controller: zero-arity decision");
  }
  tensor::Rng rng(seed);
  Tensor emb({max_arity_ + 1, embed_dim_});
  nn::scaled_normal(emb, 0.1f, rng);
  embed_ = std::make_shared<nn::Parameter>("ctrl.embed", std::move(emb));
  Tensor wpi({hidden_, max_arity_});
  nn::glorot_uniform(wpi, hidden_, max_arity_, rng);
  wpi_ = std::make_shared<nn::Parameter>("ctrl.wpi", std::move(wpi));
  bpi_ = std::make_shared<nn::Parameter>("ctrl.bpi", Tensor({max_arity_}));
  Tensor wv({hidden_, 1});
  nn::glorot_uniform(wv, hidden_, 1, rng);
  wv_ = std::make_shared<nn::Parameter>("ctrl.wv", std::move(wv));
  bv_ = std::make_shared<nn::Parameter>("ctrl.bv", Tensor({1}));
  params_.push_back(embed_);
  for (const nn::ParamPtr& p : lstm_.parameters()) params_.push_back(p);
  params_.insert(params_.end(), {wpi_, bpi_, wv_, bv_});
}

void Controller::policy_row(float* row, std::size_t arity) const {
  const float* bias = bpi_->value.data();
  for (std::size_t j = 0; j < max_arity_; ++j) row[j] += bias[j];
  masked_softmax_row(row, arity, max_arity_, row);
}

float Controller::head_value(const float* h) const {
  const float* w = wv_->value.data();
  float v = bv_->value[0];
  for (std::size_t j = 0; j < hidden_; ++j) v += h[j] * w[j];
  return v;
}

const float* Controller::decode_step(std::size_t t, std::size_t token) const {
  nn::LstmWorkspace& lw = ws_.lstm;
  std::copy_n(embed_->value.data() + token * embed_dim_, embed_dim_, lw.input(t));
  lstm_.forward_step(lw, t);
  float* row = ws_.probs.data() + t * max_arity_;
  tensor::gemm_rows(lw.output(t), wpi_->value.data(), row, 1, hidden_, max_arity_);
  policy_row(row, arities_[t]);
  return row;
}

Rollout Controller::sample(tensor::Rng& rng) const {
  NCNAS_PROF_SCOPE("rl/sample");
  Rollout roll;
  const std::size_t T = arities_.size();
  roll.actions.reserve(T);
  roll.log_probs.reserve(T);
  roll.values.reserve(T);

  lstm_.begin(ws_.lstm, 1, T);
  nn::grow_buffer(ws_.probs, T * max_arity_);
  std::size_t prev_token = 0;  // start token
  for (std::size_t t = 0; t < T; ++t) {
    const float* probs = decode_step(t, prev_token);
    // Sample from the categorical distribution over valid options.
    const double u = rng.uniform();
    double acc = 0.0;
    std::size_t action = arities_[t] - 1;
    for (std::size_t j = 0; j < arities_[t]; ++j) {
      acc += probs[j];
      if (u < acc) {
        action = j;
        break;
      }
    }
    roll.actions.push_back(static_cast<std::uint16_t>(action));
    roll.log_probs.push_back(std::log(std::max(probs[action], 1e-12f)));
    roll.values.push_back(head_value(ws_.lstm.output(t)));
    prev_token = action + 1;
  }
  return roll;
}

space::ArchEncoding Controller::greedy() const {
  space::ArchEncoding arch;
  const std::size_t T = arities_.size();
  arch.reserve(T);
  lstm_.begin(ws_.lstm, 1, T);
  nn::grow_buffer(ws_.probs, T * max_arity_);
  std::size_t prev_token = 0;
  for (std::size_t t = 0; t < T; ++t) {
    const float* row = decode_step(t, prev_token);
    const std::size_t action = static_cast<std::size_t>(
        std::max_element(row, row + arities_[t]) - row);
    arch.push_back(static_cast<std::uint16_t>(action));
    prev_token = action + 1;
  }
  return arch;
}

PpoStats Controller::ppo_update(std::span<const Rollout> rollouts,
                                std::span<const float> rewards, const PpoConfig& cfg) {
  NCNAS_PROF_SCOPE("rl/ppo_update");
  const std::size_t B = rollouts.size();
  const std::size_t T = arities_.size();
  if (B == 0 || rewards.size() != B) {
    throw std::invalid_argument("ppo_update: rollout/reward count mismatch");
  }
  for (const Rollout& r : rollouts) {
    if (r.actions.size() != T || r.log_probs.size() != T || r.values.size() != T) {
      throw std::invalid_argument("ppo_update: rollout length mismatch");
    }
  }
  adam_.set_learning_rate(cfg.learning_rate);
  const std::size_t H = hidden_, A = max_arity_, E = embed_dim_;
  Workspace& ws = ws_;
  nn::grow_buffer(ws.probs, T * B * A);
  nn::grow_buffer(ws.values, T * B);
  nn::grow_buffer(ws.dlogits, T * B * A);
  nn::grow_buffer(ws.dvalues, T * B);
  nn::grow_buffer(ws.dh_pi, T * B * H);
  nn::grow_buffer(ws.wpi_t, A * H);
  nn::grow_buffer(ws.adv, B * T);
  nn::grow_buffer(ws.tokens, T * B);

  // Terminal-reward advantages with the critic as state baseline:
  // A_{b,t} = R_b - V_old(s_{b,t}).
  float* adv = ws.adv.data();
  const std::size_t n_adv = B * T;
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < T; ++t) adv[b * T + t] = rewards[b] - rollouts[b].values[t];
  }
  if (cfg.normalize_advantages && n_adv > 1) {
    double mean = 0.0;
    for (std::size_t i = 0; i < n_adv; ++i) mean += adv[i];
    mean /= static_cast<double>(n_adv);
    double var = 0.0;
    for (std::size_t i = 0; i < n_adv; ++i) var += (adv[i] - mean) * (adv[i] - mean);
    const float stddev = static_cast<float>(std::sqrt(var / static_cast<double>(n_adv)));
    const float inv = stddev > 1e-6f ? 1.0f / stddev : 1.0f;
    for (std::size_t i = 0; i < n_adv; ++i) adv[i] = (adv[i] - static_cast<float>(mean)) * inv;
  }
  // The recorded action sequences are the inputs: the start token, then the
  // action taken at the previous step.
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t b = 0; b < B; ++b) {
      ws.tokens[t * B + b] = t == 0 ? 0 : static_cast<std::size_t>(rollouts[b].actions[t - 1]) + 1;
    }
  }

  const float inv_bt = 1.0f / static_cast<float>(B * T);
  PpoStats stats;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (const nn::ParamPtr& p : params_) p->zero_grad();

    // ---- forward over the batch of recorded action sequences ----
    lstm_.begin(ws.lstm, B, T);
    for (std::size_t i = 0; i < T * B; ++i) {
      std::copy_n(embed_->value.data() + ws.tokens[i] * E, E, ws.lstm.x.data() + i * E);
    }
    lstm_.forward(ws.lstm);
    const float* h_all = ws.lstm.output(0);  // [T, B, H]
    tensor::gemm_rows(h_all, wpi_->value.data(), ws.probs.data(), T * B, H, A);
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t b = 0; b < B; ++b) {
        policy_row(ws.probs.data() + (t * B + b) * A, arities_[t]);
        ws.values[t * B + b] = head_value(h_all + (t * B + b) * H);
      }
    }

    // ---- loss gradients per step ----
    float policy_loss = 0.0f, value_loss = 0.0f, entropy = 0.0f, approx_kl = 0.0f;
    for (std::size_t t = 0; t < T; ++t) {
      const std::size_t arity = arities_[t];
      for (std::size_t b = 0; b < B; ++b) {
        const float* p = ws.probs.data() + (t * B + b) * A;
        float* dl = ws.dlogits.data() + (t * B + b) * A;
        const std::size_t a = rollouts[b].actions[t];
        const float new_lp = std::log(std::max(p[a], 1e-12f));
        const float old_lp = rollouts[b].log_probs[t];
        const float ratio = std::exp(new_lp - old_lp);
        const float A_bt = adv[b * T + t];
        const float unclipped = ratio * A_bt;
        const float clipped = std::clamp(ratio, 1.0f - cfg.clip, 1.0f + cfg.clip) * A_bt;
        policy_loss -= std::min(unclipped, clipped) * inv_bt;
        approx_kl += (old_lp - new_lp) * inv_bt;
        // Gradient flows through the ratio only when the unclipped branch is
        // the active min (the clipped branch is constant in theta outside
        // the trust region).
        const bool active = unclipped <= clipped;
        const float coef = active ? -A_bt * ratio * inv_bt : 0.0f;
        // d(log pi(a))/d(logit_j) = 1[j==a] - p_j; masked columns get 0.
        for (std::size_t j = 0; j < arity; ++j) dl[j] = coef * ((j == a ? 1.0f : 0.0f) - p[j]);
        std::fill(dl + arity, dl + A, 0.0f);

        // Entropy bonus: loss -= c_e * H; dH/dlogit_j = -p_j (log p_j + H).
        float Hb = 0.0f;
        for (std::size_t j = 0; j < arity; ++j) {
          if (p[j] > 1e-12f) Hb -= p[j] * std::log(p[j]);
        }
        entropy += Hb * inv_bt;
        for (std::size_t j = 0; j < arity; ++j) {
          if (p[j] > 1e-12f) {
            dl[j] += cfg.entropy_coef * inv_bt * (-p[j] * (std::log(p[j]) + Hb)) * -1.0f;
          }
        }

        // Value loss: 0.5 * c_v * (V - R)^2.
        const float verr = ws.values[t * B + b] - rewards[b];
        value_loss += 0.5f * cfg.value_coef * verr * verr * inv_bt;
        ws.dvalues[t * B + b] = cfg.value_coef * verr * inv_bt;
      }
    }

    // ---- backward through the heads ----
    // None of this depends on the recurrence, so it runs once for all steps;
    // every gradient element is still accumulated over t descending, then b
    // ascending, the order BPTT visits them.
    for (std::size_t a = 0; a < A; ++a) {
      for (std::size_t j = 0; j < H; ++j) ws.wpi_t[a * H + j] = wpi_->value[j * A + a];
    }
    tensor::gemm_rows(ws.dlogits.data(), ws.wpi_t.data(), ws.dh_pi.data(), T * B, A, H);
    tensor::accumulate_gemm_tn_steps(h_all, ws.dlogits.data(), wpi_->grad.data(), T, B, H, A);
    float* bpi_grad = bpi_->grad.data();
    float* wv_grad = wv_->grad.data();
    for (std::size_t t = T; t-- > 0;) {
      for (std::size_t b = 0; b < B; ++b) {
        const float* dl = ws.dlogits.data() + (t * B + b) * A;
        for (std::size_t j = 0; j < A; ++j) bpi_grad[j] += dl[j];
        const float dv = ws.dvalues[t * B + b];
        const float* h = h_all + (t * B + b) * H;
        bv_->grad[0] += dv;
        for (std::size_t j = 0; j < H; ++j) wv_grad[j] += h[j] * dv;
      }
    }

    // ---- BPTT; each step adds its heads' dL/dh to the carried gradient ----
    const float* wv = wv_->value.data();
    lstm_.backward(ws.lstm, [&](std::size_t t, float* dh) {
      for (std::size_t b = 0; b < B; ++b) {
        const float dv = ws.dvalues[t * B + b];
        const float* dh_pi = ws.dh_pi.data() + (t * B + b) * H;
        float* dhb = dh + b * H;
        for (std::size_t j = 0; j < H; ++j) dhb[j] = dhb[j] + dh_pi[j] + wv[j] * dv;
      }
    });
    // Scatter embedding grads by the tokens fed at each step.
    float* embed_grad = embed_->grad.data();
    for (std::size_t t = T; t-- > 0;) {
      for (std::size_t b = 0; b < B; ++b) {
        const float* dx = ws.lstm.input_grad(t) + b * E;
        float* row = embed_grad + ws.tokens[t * B + b] * E;
        for (std::size_t j = 0; j < E; ++j) row[j] += dx[j];
      }
    }

    adam_.step(params_);
    stats = {policy_loss, value_loss, entropy, approx_kl};
  }
  return stats;
}

std::size_t Controller::flat_size() const {
  std::size_t total = 0;
  for (const nn::ParamPtr& p : params_) total += p->size();
  return total;
}

std::vector<float> Controller::get_flat() const {
  std::vector<float> flat;
  flat.reserve(flat_size());
  for (const nn::ParamPtr& p : params_) {
    flat.insert(flat.end(), p->value.flat().begin(), p->value.flat().end());
  }
  return flat;
}

void Controller::set_flat(std::span<const float> flat) {
  // Check before writing: a rejected vector leaves every parameter as it was.
  if (flat.size() != flat_size()) {
    throw std::invalid_argument("Controller::set_flat: vector of " + std::to_string(flat.size()) +
                                " values for " + std::to_string(flat_size()) + " parameters");
  }
  const float* src = flat.data();
  for (const nn::ParamPtr& p : params_) {
    std::copy_n(src, p->size(), p->value.data());
    src += p->size();
  }
}

Controller::State Controller::save_state() const {
  return {get_flat(), adam_.export_state()};
}

void Controller::load_state(const State& state) {
  if (state.flat.size() != flat_size()) {
    throw std::invalid_argument("Controller::load_state: flat vector of " +
                                std::to_string(state.flat.size()) + " values for " +
                                std::to_string(flat_size()) + " parameters");
  }
  adam_.import_state(state.adam, params_);  // all or nothing
  set_flat(state.flat);
}

std::vector<nn::ParamPtr> Controller::parameters() const { return params_; }

}  // namespace ncnas::rl
