// Test-only oracle for rl::Controller: the controller's math written step by
// step on tensor:: ops, the way the library computed it before the LSTM moved
// to a sequence workspace. Every product runs through gemm / gemm_nt /
// gemm_tn into a fresh tensor and is added into its gradient with
// add_inplace, one time step at a time, so each element's operation sequence
// is spelled out as plainly as possible. controller_oracle_test holds the
// production controller to these bits, the same way kernel_diff_test holds
// the blocked kernels to the reference ones. The products run either on the
// dispatching tensor::gemm* (each on the tier its size selects) or on the
// serial *_ref kernels alone, so the controller is held both to its own
// structure and to the reference kernels' bits.
//
// The oracle is built from a controller's flat parameter vector and keeps
// its own Adam (the scalar per-element loop), keyed by the same parameter
// names, so its moments compare entry by entry with Controller::save_state().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ncnas/nn/optimizer.hpp"
#include "ncnas/rl/controller.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace ncnas::testing::oracle {

using tensor::Tensor;

inline float sigmoidf(float v) { return 1.0f / (1.0f + std::exp(-v)); }

/// The kernels the oracle's products run on. The values are the ones
/// controller_oracle_test's instance names were registered with.
enum class Kernels { kDefault = 0, kReference = 2 };

/// gemm / gemm_nt / gemm_tn on the chosen kernels: kDefault dispatches by
/// size as the library does, kReference runs every product on the serial
/// reference kernels.
struct Products {
  Kernels kernels = Kernels::kDefault;

  void gemm(const Tensor& a, const Tensor& b, Tensor& c) const {
    if (kernels == Kernels::kReference) {
      tensor::gemm_ref(a, b, c);
    } else {
      tensor::gemm(a, b, c);
    }
  }
  void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) const {
    if (kernels == Kernels::kReference) {
      tensor::gemm_nt_ref(a, b, c);
    } else {
      tensor::gemm_nt(a, b, c);
    }
  }
  void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) const {
    if (kernels == Kernels::kReference) {
      tensor::gemm_tn_ref(a, b, c);
    } else {
      tensor::gemm_tn(a, b, c);
    }
  }
};

struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  Tensor m, v;  // Adam moments
};

struct LstmState {
  Tensor h;  ///< [batch, hidden]
  Tensor c;  ///< [batch, hidden]
};

/// LstmCell with a per-step cache stack: step() pushes, backward_step() pops.
class Lstm {
 public:
  Lstm(std::size_t input_dim, std::size_t hidden_dim, Param& wx, Param& wh, Param& b,
       Products mm)
      : input_dim_(input_dim), hidden_dim_(hidden_dim), wx_(wx), wh_(wh), b_(b), mm_(mm) {}

  [[nodiscard]] LstmState initial_state(std::size_t batch) const {
    return {Tensor({batch, hidden_dim_}), Tensor({batch, hidden_dim_})};
  }

  [[nodiscard]] LstmState step(const Tensor& x, const LstmState& prev) {
    const std::size_t batch = x.dim(0);
    const Tensor z = gates(x, prev);
    StepCache cache{x,
                    prev.h,
                    prev.c,
                    Tensor({batch, hidden_dim_}),
                    Tensor({batch, hidden_dim_}),
                    Tensor({batch, hidden_dim_}),
                    Tensor({batch, hidden_dim_}),
                    Tensor({batch, hidden_dim_}),
                    Tensor({batch, hidden_dim_})};
    LstmState next{Tensor({batch, hidden_dim_}), Tensor({batch, hidden_dim_})};
    const std::size_t H = hidden_dim_;
    for (std::size_t r = 0; r < batch; ++r) {
      const float* zr = z.data() + r * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        const float iv = sigmoidf(zr[j]);
        const float fv = sigmoidf(zr[H + j]);
        const float gv = std::tanh(zr[2 * H + j]);
        const float ov = sigmoidf(zr[3 * H + j]);
        const float cv = fv * prev.c(r, j) + iv * gv;
        const float tc = std::tanh(cv);
        cache.i(r, j) = iv;
        cache.f(r, j) = fv;
        cache.g(r, j) = gv;
        cache.o(r, j) = ov;
        cache.c_new(r, j) = cv;
        cache.tanh_c(r, j) = tc;
        next.c(r, j) = cv;
        next.h(r, j) = ov * tc;
      }
    }
    cache_.push_back(std::move(cache));
    return next;
  }

  /// Returns dL/dx for the popped step; writes dL/d(prev state) and
  /// accumulates the parameter gradients.
  Tensor backward_step(const Tensor& grad_h, const Tensor& grad_c, Tensor& grad_h_prev,
                       Tensor& grad_c_prev) {
    if (cache_.empty()) throw std::logic_error("oracle::Lstm::backward_step: cache empty");
    const StepCache cache = std::move(cache_.back());
    cache_.pop_back();
    const std::size_t batch = cache.x.dim(0);
    const std::size_t H = hidden_dim_;
    Tensor dz({batch, 4 * H});
    grad_c_prev = Tensor({batch, H});
    for (std::size_t r = 0; r < batch; ++r) {
      float* dzr = dz.data() + r * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        const float dh = grad_h(r, j);
        const float o = cache.o(r, j);
        const float tc = cache.tanh_c(r, j);
        const float dc = grad_c(r, j) + dh * o * (1.0f - tc * tc);
        const float i = cache.i(r, j);
        const float f = cache.f(r, j);
        const float g = cache.g(r, j);
        const float do_ = dh * tc;
        const float di = dc * g;
        const float df = dc * cache.c_prev(r, j);
        const float dg = dc * i;
        dzr[j] = di * i * (1.0f - i);
        dzr[H + j] = df * f * (1.0f - f);
        dzr[2 * H + j] = dg * (1.0f - g * g);
        dzr[3 * H + j] = do_ * o * (1.0f - o);
        grad_c_prev(r, j) = dc * f;
      }
    }
    Tensor dwx({input_dim_, 4 * H});
    mm_.gemm_tn(cache.x, dz, dwx);
    tensor::add_inplace(wx_.grad, dwx);
    Tensor dwh({H, 4 * H});
    mm_.gemm_tn(cache.h_prev, dz, dwh);
    tensor::add_inplace(wh_.grad, dwh);
    tensor::accumulate_col_sums(dz, b_.grad);
    Tensor dx({batch, input_dim_});
    mm_.gemm_nt(dz, wx_.value, dx);
    grad_h_prev = Tensor({batch, H});
    mm_.gemm_nt(dz, wh_.value, grad_h_prev);
    return dx;
  }

  void clear_cache() { cache_.clear(); }

 private:
  struct StepCache {
    Tensor x, h_prev, c_prev;
    Tensor i, f, g, o;  // post-nonlinearity gate values
    Tensor c_new, tanh_c;
  };

  /// z = x Wx + h_prev Wh + b.
  [[nodiscard]] Tensor gates(const Tensor& x, const LstmState& prev) const {
    const std::size_t batch = x.dim(0);
    Tensor z({batch, 4 * hidden_dim_});
    mm_.gemm(x, wx_.value, z);
    Tensor zh({batch, 4 * hidden_dim_});
    mm_.gemm(prev.h, wh_.value, zh);
    tensor::add_inplace(z, zh);
    tensor::add_row_bias(z, b_.value);
    return z;
  }

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Param& wx_;
  Param& wh_;
  Param& b_;
  Products mm_;
  std::vector<StepCache> cache_;
};

/// rl::Controller's sample/ppo_update/Adam, step by step.
class Controller {
 public:
  /// `flat` is rl::Controller::get_flat() of a controller built with the same
  /// arities and dims; the oracle starts from those parameters and a fresh
  /// Adam. `kernels` picks what its products run on.
  Controller(std::vector<std::size_t> arities, std::span<const float> flat,
             Kernels kernels = Kernels::kDefault, std::size_t hidden = 32,
             std::size_t embed = 16)
      : mm_{kernels},
        arities_(std::move(arities)),
        hidden_(hidden),
        embed_dim_(embed),
        max_arity_(*std::max_element(arities_.begin(), arities_.end())),
        params_{make("ctrl.embed", {max_arity_ + 1, embed_dim_}),
                make("lstm.wx", {embed_dim_, 4 * hidden_}),
                make("lstm.wh", {hidden_, 4 * hidden_}),
                make("lstm.b", {4 * hidden_}),
                make("ctrl.wpi", {hidden_, max_arity_}),
                make("ctrl.bpi", {max_arity_}),
                make("ctrl.wv", {hidden_, 1}),
                make("ctrl.bv", {1})},
        lstm_(embed_dim_, hidden_, params_[1], params_[2], params_[3], mm_) {
    // lstm_ refers into params_, so the oracle is neither copied nor moved.
    std::size_t offset = 0;
    for (Param& p : params_) {
      if (offset + p.value.size() > flat.size()) {
        throw std::invalid_argument("oracle::Controller: flat vector too short");
      }
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                flat.begin() + static_cast<std::ptrdiff_t>(offset + p.value.size()),
                p.value.data());
      offset += p.value.size();
    }
    if (offset != flat.size()) throw std::invalid_argument("oracle::Controller: flat size");
  }

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  [[nodiscard]] rl::Rollout sample(tensor::Rng& rng) {
    rl::Rollout roll;
    const std::size_t T = arities_.size();
    // A cell of its own, so sampling never touches the training cell's cache.
    Lstm lstm(embed_dim_, hidden_, params_[1], params_[2], params_[3], mm_);
    LstmState state = lstm.initial_state(1);
    std::size_t prev_token = 0;  // start token
    for (std::size_t t = 0; t < T; ++t) {
      Tensor x({1, embed_dim_});
      std::copy(embed().value.data() + prev_token * embed_dim_,
                embed().value.data() + (prev_token + 1) * embed_dim_, x.data());
      state = lstm.step(x, state);
      const Tensor probs = head_probs(state.h, arities_[t]);
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

  rl::PpoStats ppo_update(std::span<const rl::Rollout> rollouts, std::span<const float> rewards,
                          const rl::PpoConfig& cfg) {
    const std::size_t B = rollouts.size();
    const std::size_t T = arities_.size();
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
    rl::PpoStats stats;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      for (Param& p : params_) p.grad = Tensor(p.value.shape());
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
          std::copy(embed().value.data() + token * embed_dim_,
                    embed().value.data() + (token + 1) * embed_dim_, x.data() + b * embed_dim_);
        }
        state = lstm_.step(x, state);
        h_t[t] = state.h;
        probs_t[t] = head_probs(state.h, arities_[t]);
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
          const bool active = unclipped <= clipped;
          const float coef = active ? -A * ratio * inv_bt : 0.0f;
          for (std::size_t j = 0; j < arity; ++j) dl[j] = coef * ((j == a ? 1.0f : 0.0f) - p[j]);
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
          const float verr = value_t[t][b] - rewards[b];
          value_loss += 0.5f * cfg.value_coef * verr * verr * inv_bt;
          dvalue_t[t][b] = cfg.value_coef * verr * inv_bt;
        }
      }

      // ---- backward through heads and BPTT ----
      Tensor dh_carry({B, hidden_});
      Tensor dc_carry({B, hidden_});
      for (std::size_t t = T; t-- > 0;) {
        Tensor dh = dh_carry;
        Tensor dwpi({hidden_, max_arity_});
        mm_.gemm_tn(h_t[t], dlogits_t[t], dwpi);
        tensor::add_inplace(wpi().grad, dwpi);
        tensor::accumulate_col_sums(dlogits_t[t], bpi().grad);
        Tensor dh_pi({B, hidden_});
        mm_.gemm_nt(dlogits_t[t], wpi().value, dh_pi);
        tensor::add_inplace(dh, dh_pi);
        for (std::size_t b = 0; b < B; ++b) {
          const float dv = dvalue_t[t][b];
          bv().grad[0] += dv;
          for (std::size_t j = 0; j < hidden_; ++j) {
            wv().grad[j] += h_t[t](b, j) * dv;
            dh(b, j) += wv().value[j] * dv;
          }
        }
        Tensor dh_prev, dc_prev;
        const Tensor dx = lstm_.backward_step(dh, dc_carry, dh_prev, dc_prev);
        for (std::size_t b = 0; b < B; ++b) {
          const std::size_t token = token_t[t][b];
          for (std::size_t j = 0; j < embed_dim_; ++j) {
            embed().grad[token * embed_dim_ + j] += dx(b, j);
          }
        }
        dh_carry = std::move(dh_prev);
        dc_carry = std::move(dc_prev);
      }

      adam_step(cfg.learning_rate);
      stats = {policy_loss, value_loss, entropy, approx_kl};
    }
    return stats;
  }

  [[nodiscard]] std::vector<float> get_flat() const {
    std::vector<float> flat;
    for (const Param& p : params_) flat.insert(flat.end(), p.value.flat().begin(), p.value.flat().end());
    return flat;
  }

  /// The Adam state in nn::Adam::export_state()'s canonical form.
  [[nodiscard]] nn::Adam::State adam_state() const {
    nn::Adam::State out;
    out.step_count = step_count_;
    if (step_count_ > 0) {
      for (const Param& p : params_) {
        out.entries.push_back({p.name, p.value.shape(),
                               std::vector<float>(p.m.flat().begin(), p.m.flat().end()),
                               std::vector<float>(p.v.flat().begin(), p.v.flat().end())});
      }
    }
    std::sort(out.entries.begin(), out.entries.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return out;
  }

 private:
  static Param make(std::string name, tensor::Shape shape) {
    return {std::move(name), Tensor(shape), Tensor(shape), Tensor(shape), Tensor(shape)};
  }

  [[nodiscard]] const Param& embed() const { return params_[0]; }
  Param& embed() { return params_[0]; }
  [[nodiscard]] const Param& wpi() const { return params_[4]; }
  Param& wpi() { return params_[4]; }
  [[nodiscard]] const Param& bpi() const { return params_[5]; }
  Param& bpi() { return params_[5]; }
  [[nodiscard]] const Param& wv() const { return params_[6]; }
  Param& wv() { return params_[6]; }
  [[nodiscard]] const Param& bv() const { return params_[7]; }
  Param& bv() { return params_[7]; }

  /// Masked softmax of the policy head for one batch of hidden states.
  [[nodiscard]] Tensor head_probs(const Tensor& h, std::size_t arity) const {
    const std::size_t batch = h.dim(0);
    Tensor logits({batch, max_arity_});
    mm_.gemm(h, wpi().value, logits);
    tensor::add_row_bias(logits, bpi().value);
    Tensor probs({batch, max_arity_});
    for (std::size_t b = 0; b < batch; ++b) {
      const float* l = logits.data() + b * max_arity_;
      float* p = probs.data() + b * max_arity_;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < arity; ++j) mx = std::max(mx, l[j]);
      float denom = 0.0f;
      for (std::size_t j = 0; j < arity; ++j) {
        p[j] = std::exp(l[j] - mx);
        denom += p[j];
      }
      for (std::size_t j = 0; j < arity; ++j) p[j] /= denom;
      for (std::size_t j = arity; j < max_arity_; ++j) p[j] = 0.0f;
    }
    return probs;
  }

  [[nodiscard]] float head_value(const Tensor& h, std::size_t row) const {
    float v = bv().value[0];
    for (std::size_t j = 0; j < hidden_; ++j) v += h(row, j) * wv().value[j];
    return v;
  }

  /// nn::Adam's update with its default betas and epsilon, one element at a
  /// time.
  void adam_step(float lr) {
    const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-7f;
    ++step_count_;
    const float b1t = 1.0f - std::pow(beta1, static_cast<float>(step_count_));
    const float b2t = 1.0f - std::pow(beta2, static_cast<float>(step_count_));
    for (Param& p : params_) {
      for (std::size_t i = 0; i < p.value.size(); ++i) {
        const float g = p.grad[i];
        p.m[i] = beta1 * p.m[i] + (1.0f - beta1) * g;
        p.v[i] = beta2 * p.v[i] + (1.0f - beta2) * g * g;
        const float mhat = p.m[i] / b1t;
        const float vhat = p.v[i] / b2t;
        p.value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
    }
  }

  Products mm_;
  std::vector<std::size_t> arities_;
  std::size_t hidden_;
  std::size_t embed_dim_;
  std::size_t max_arity_;
  std::vector<Param> params_;  // embed, wx, wh, b, wpi, bpi, wv, bv: get_flat() order
  Lstm lstm_;
  long step_count_ = 0;
};

}  // namespace ncnas::testing::oracle
