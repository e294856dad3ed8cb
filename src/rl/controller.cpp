#include "ncnas/rl/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ncnas/nn/init.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::rl {

using nn::LstmState;
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
}

void Controller::head_logits(const Tensor& h, std::size_t arity, Tensor& probs) const {
  const std::size_t batch = h.dim(0);
  Tensor logits({batch, max_arity_});
  tensor::gemm(h, wpi_->value, logits);
  tensor::add_row_bias(logits, bpi_->value);
  probs = Tensor({batch, max_arity_});
  for (std::size_t b = 0; b < batch; ++b) {
    masked_softmax_row(logits.data() + b * max_arity_, arity, max_arity_,
                       probs.data() + b * max_arity_);
  }
}

float Controller::head_value(const Tensor& h, std::size_t row) const {
  float v = bv_->value[0];
  for (std::size_t j = 0; j < hidden_; ++j) v += h(row, j) * wv_->value[j];
  return v;
}

Rollout Controller::sample(tensor::Rng& rng) const {
  NCNAS_PROF_SCOPE("rl/sample");
  Rollout roll;
  const std::size_t T = arities_.size();
  roll.actions.reserve(T);
  roll.log_probs.reserve(T);
  roll.values.reserve(T);

  LstmState state = lstm_.initial_state(1);
  std::size_t prev_token = 0;  // start token
  for (std::size_t t = 0; t < T; ++t) {
    Tensor x({1, embed_dim_});
    std::copy(embed_->value.data() + prev_token * embed_dim_,
              embed_->value.data() + (prev_token + 1) * embed_dim_, x.data());
    state = lstm_.step_nograd(x, state);
    Tensor probs;
    head_logits(state.h, arities_[t], probs);
    // Sample from the categorical distribution over valid options.
    const double u = rng.uniform();
    double acc = 0.0;
    std::size_t action = arities_[t] - 1;
    for (std::size_t j = 0; j < arities_[t]; ++j) {
      acc += probs(0, j);
      if (u < acc) {
        action = j;
        break;
      }
    }
    roll.actions.push_back(static_cast<std::uint16_t>(action));
    roll.log_probs.push_back(std::log(std::max(probs(0, action), 1e-12f)));
    roll.values.push_back(head_value(state.h, 0));
    prev_token = action + 1;
  }
  return roll;
}

space::ArchEncoding Controller::greedy() const {
  space::ArchEncoding arch;
  const std::size_t T = arities_.size();
  arch.reserve(T);
  LstmState state = lstm_.initial_state(1);
  std::size_t prev_token = 0;
  for (std::size_t t = 0; t < T; ++t) {
    Tensor x({1, embed_dim_});
    std::copy(embed_->value.data() + prev_token * embed_dim_,
              embed_->value.data() + (prev_token + 1) * embed_dim_, x.data());
    state = lstm_.step_nograd(x, state);
    Tensor probs;
    head_logits(state.h, arities_[t], probs);
    const float* row = probs.data();
    const std::size_t action = static_cast<std::size_t>(
        std::max_element(row, row + arities_[t]) - row);
    arch.push_back(static_cast<std::uint16_t>(action));
    prev_token = action + 1;
  }
  return arch;
}

void Controller::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    ppo_wall_ms_ = nullptr;
    ppo_policy_loss_ = nullptr;
    ppo_value_loss_ = nullptr;
    ppo_entropy_ = nullptr;
    ppo_approx_kl_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = telemetry->metrics();
  ppo_wall_ms_ = &m.histogram("ncnas_ppo_update_wall_ms", obs::exp_buckets(0.25, 2.0, 16));
  ppo_policy_loss_ = &m.gauge("ncnas_ppo_policy_loss");
  ppo_value_loss_ = &m.gauge("ncnas_ppo_value_loss");
  ppo_entropy_ = &m.gauge("ncnas_ppo_entropy");
  ppo_approx_kl_ = &m.gauge("ncnas_ppo_approx_kl");
}

PpoStats Controller::ppo_update(std::span<const Rollout> rollouts,
                                std::span<const float> rewards, const PpoConfig& cfg,
                                double now, std::uint32_t agent_id) {
  NCNAS_PROF_SCOPE("rl/ppo_update");
  const obs::ScopedTimer timer(ppo_wall_ms_);
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

  // Terminal-reward advantages with the critic as state baseline:
  // A_{b,t} = R_b - V_old(s_{b,t}).
  std::vector<float> adv(B * T);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < T; ++t) adv[b * T + t] = rewards[b] - rollouts[b].values[t];
  }
  if (cfg.normalize_advantages && B * T > 1) {
    double mean = 0.0;
    for (float a : adv) mean += a;
    mean /= static_cast<double>(adv.size());
    double var = 0.0;
    for (float a : adv) var += (a - mean) * (a - mean);
    const float stddev = static_cast<float>(std::sqrt(var / static_cast<double>(adv.size())));
    const float inv = stddev > 1e-6f ? 1.0f / stddev : 1.0f;
    for (float& a : adv) a = (a - static_cast<float>(mean)) * inv;
  }

  const float inv_bt = 1.0f / static_cast<float>(B * T);
  PpoStats stats;
  const std::vector<nn::ParamPtr> params = parameters();

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (const nn::ParamPtr& p : params) p->zero_grad();
    lstm_.clear_cache();

    // ---- forward over the batch of recorded action sequences ----
    std::vector<Tensor> probs_t(T), h_t(T);
    std::vector<std::vector<float>> value_t(T, std::vector<float>(B));
    std::vector<std::vector<std::size_t>> token_t(T, std::vector<std::size_t>(B));
    LstmState state = lstm_.initial_state(B);
    for (std::size_t t = 0; t < T; ++t) {
      Tensor x({B, embed_dim_});
      for (std::size_t b = 0; b < B; ++b) {
        const std::size_t token =
            t == 0 ? 0 : static_cast<std::size_t>(rollouts[b].actions[t - 1]) + 1;
        token_t[t][b] = token;
        std::copy(embed_->value.data() + token * embed_dim_,
                  embed_->value.data() + (token + 1) * embed_dim_, x.data() + b * embed_dim_);
      }
      state = lstm_.step(x, state);
      h_t[t] = state.h;
      head_logits(state.h, arities_[t], probs_t[t]);
      for (std::size_t b = 0; b < B; ++b) value_t[t][b] = head_value(state.h, b);
    }

    // ---- loss gradients per step ----
    float policy_loss = 0.0f, value_loss = 0.0f, entropy = 0.0f, approx_kl = 0.0f;
    std::vector<Tensor> dlogits_t(T);
    std::vector<std::vector<float>> dvalue_t(T, std::vector<float>(B, 0.0f));
    for (std::size_t t = 0; t < T; ++t) {
      dlogits_t[t] = Tensor({B, max_arity_});
      const std::size_t arity = arities_[t];
      for (std::size_t b = 0; b < B; ++b) {
        const float* p = probs_t[t].data() + b * max_arity_;
        float* dl = dlogits_t[t].data() + b * max_arity_;
        const std::size_t a = rollouts[b].actions[t];
        const float new_lp = std::log(std::max(p[a], 1e-12f));
        const float old_lp = rollouts[b].log_probs[t];
        const float ratio = std::exp(new_lp - old_lp);
        const float A = adv[b * T + t];
        const float unclipped = ratio * A;
        const float clipped = std::clamp(ratio, 1.0f - cfg.clip, 1.0f + cfg.clip) * A;
        policy_loss -= std::min(unclipped, clipped) * inv_bt;
        approx_kl += (old_lp - new_lp) * inv_bt;
        // Gradient flows through the ratio only when the unclipped branch is
        // the active min (the clipped branch is constant in theta outside
        // the trust region).
        const bool active = unclipped <= clipped;
        const float coef = active ? -A * ratio * inv_bt : 0.0f;
        // d(log pi(a))/d(logit_j) = 1[j==a] - p_j (masked columns have p=0).
        for (std::size_t j = 0; j < arity; ++j) dl[j] = coef * ((j == a ? 1.0f : 0.0f) - p[j]);

        // Entropy bonus: loss -= c_e * H; dH/dlogit_j = -p_j (log p_j + H).
        float H = 0.0f;
        for (std::size_t j = 0; j < arity; ++j) {
          if (p[j] > 1e-12f) H -= p[j] * std::log(p[j]);
        }
        entropy += H * inv_bt;
        for (std::size_t j = 0; j < arity; ++j) {
          if (p[j] > 1e-12f) {
            dl[j] += cfg.entropy_coef * inv_bt * (-p[j] * (std::log(p[j]) + H)) * -1.0f;
          }
        }

        // Value loss: 0.5 * c_v * (V - R)^2.
        const float verr = value_t[t][b] - rewards[b];
        value_loss += 0.5f * cfg.value_coef * verr * verr * inv_bt;
        dvalue_t[t][b] = cfg.value_coef * verr * inv_bt;
      }
    }

    // ---- backward through heads and BPTT ----
    Tensor dh_carry({B, hidden_});
    Tensor dc_carry({B, hidden_});
    for (std::size_t t = T; t-- > 0;) {
      // Heads: dlogits -> Wpi/bpi grads and dh; dvalue -> Wv/bv grads and dh.
      Tensor dh = dh_carry;
      Tensor dwpi({hidden_, max_arity_});
      tensor::gemm_tn(h_t[t], dlogits_t[t], dwpi);
      tensor::add_inplace(wpi_->grad, dwpi);
      tensor::accumulate_col_sums(dlogits_t[t], bpi_->grad);
      Tensor dh_pi({B, hidden_});
      tensor::gemm_nt(dlogits_t[t], wpi_->value, dh_pi);
      tensor::add_inplace(dh, dh_pi);
      for (std::size_t b = 0; b < B; ++b) {
        const float dv = dvalue_t[t][b];
        bv_->grad[0] += dv;
        for (std::size_t j = 0; j < hidden_; ++j) {
          wv_->grad[j] += h_t[t](b, j) * dv;
          dh(b, j) += wv_->value[j] * dv;
        }
      }
      Tensor dh_prev, dc_prev;
      const Tensor dx = lstm_.backward_step(dh, dc_carry, dh_prev, dc_prev);
      // Scatter embedding grads by the tokens fed at step t.
      for (std::size_t b = 0; b < B; ++b) {
        const std::size_t token = token_t[t][b];
        for (std::size_t j = 0; j < embed_dim_; ++j) {
          embed_->grad[token * embed_dim_ + j] += dx(b, j);
        }
      }
      dh_carry = std::move(dh_prev);
      dc_carry = std::move(dc_prev);
    }

    adam_.step(params);
    stats = {policy_loss, value_loss, entropy, approx_kl};
  }
  if (ppo_policy_loss_ != nullptr) {
    ppo_policy_loss_->set(stats.policy_loss);
    ppo_value_loss_->set(stats.value_loss);
    ppo_entropy_->set(stats.entropy);
    ppo_approx_kl_->set(stats.approx_kl);
  }
  if (telemetry_ != nullptr) {
    telemetry_->emit(obs::JournalEventType::kPpoUpdate, now, agent_id,
                     {{"policy_loss", stats.policy_loss},
                      {"value_loss", stats.value_loss},
                      {"entropy", stats.entropy},
                      {"approx_kl", stats.approx_kl},
                      {"batch", static_cast<double>(B)}});
  }
  return stats;
}

std::size_t Controller::flat_size() const {
  std::size_t total = 0;
  for (const nn::ParamPtr& p : parameters()) total += p->size();
  return total;
}

std::vector<float> Controller::get_flat() const {
  std::vector<float> flat;
  flat.reserve(flat_size());
  for (const nn::ParamPtr& p : parameters()) {
    flat.insert(flat.end(), p->value.flat().begin(), p->value.flat().end());
  }
  return flat;
}

void Controller::set_flat(std::span<const float> flat) {
  std::size_t offset = 0;
  for (const nn::ParamPtr& p : parameters()) {
    if (offset + p->size() > flat.size()) {
      throw std::invalid_argument("Controller::set_flat: vector too short");
    }
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + p->size()),
              p->value.flat().begin());
    offset += p->size();
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("Controller::set_flat: vector size mismatch");
  }
}

Controller::State Controller::save_state() const {
  return {get_flat(), adam_.export_state()};
}

void Controller::load_state(const State& state) {
  set_flat(state.flat);
  adam_.import_state(state.adam, parameters());
}

std::vector<nn::ParamPtr> Controller::parameters() const {
  std::vector<nn::ParamPtr> out{embed_};
  const auto lstm_params = lstm_.parameters();
  out.insert(out.end(), lstm_params.begin(), lstm_params.end());
  out.push_back(wpi_);
  out.push_back(bpi_);
  out.push_back(wv_);
  out.push_back(bv_);
  return out;
}

}  // namespace ncnas::rl
