// Controller — the paper's policy/value network: a single-layer LSTM (32
// units) that emits one categorical action per variable node of the search
// space, trained with clipped PPO (epochs=4, clip=0.2, lr=1e-3).
//
// Architecture generation is a Markov decision process: the action taken for
// layer t is fed back (through a learned embedding) as the input at t+1, so
// later layer choices condition on earlier ones. Heads share the LSTM state:
// a masked softmax policy head over the largest node arity, and a scalar
// value head used as the PPO baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ncnas/nn/lstm.hpp"
#include "ncnas/nn/optimizer.hpp"
#include "ncnas/space/structure.hpp"
#include "ncnas/tensor/rng.hpp"

namespace ncnas::rl {

/// One sampled architecture plus everything PPO needs to learn from it.
struct Rollout {
  space::ArchEncoding actions;
  std::vector<float> log_probs;  ///< log pi_old(a_t | s_t), per step
  std::vector<float> values;     ///< V_old(s_t), per step
};

/// LSTM units of the controller (the paper's 32).
inline constexpr std::size_t kControllerHidden = 32;
/// Width of the learned action embedding fed back at each step.
inline constexpr std::size_t kControllerEmbed = 16;
/// Weight of the value loss in the PPO objective. The advantages are always
/// normalized to zero mean and unit variance over a batch.
inline constexpr float kValueCoef = 0.5f;

struct PpoConfig {
  int epochs = 4;           ///< the paper's PPO epochs
  float clip = 0.2f;        ///< the paper's clip epsilon
  float learning_rate = 0.001f;
  float entropy_coef = 0.01f;
};

struct PpoStats {
  float policy_loss = 0.0f;
  float value_loss = 0.0f;
  float entropy = 0.0f;
  float approx_kl = 0.0f;
};

class Controller {
 public:
  /// `arities[t]` is the option count of decision t (SearchSpace::arities()).
  Controller(std::vector<std::size_t> arities, std::uint64_t seed);

  [[nodiscard]] std::size_t num_steps() const noexcept { return arities_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& arities() const noexcept { return arities_; }

  /// Samples one architecture stochastically (no gradient bookkeeping).
  [[nodiscard]] Rollout sample(tensor::Rng& rng) const;

  /// Greedy (argmax) decode — the controller's current best guess.
  [[nodiscard]] space::ArchEncoding greedy() const;

  /// One PPO update over a batch of rollouts with terminal `rewards`
  /// (reward b scores rollout b). Runs cfg.epochs passes with the
  /// controller's internal Adam optimizer. Emits and times nothing: the
  /// caller owns the search clock and the agent, so it journals the
  /// ppo_update event from the returned stats (the search driver runs the
  /// update on a pool worker and journals it at the batch's harvest).
  PpoStats ppo_update(std::span<const Rollout> rollouts, std::span<const float> rewards,
                      const PpoConfig& cfg);

  /// --- parameter-server interface ------------------------------------------
  [[nodiscard]] std::size_t flat_size() const;
  [[nodiscard]] std::vector<float> get_flat() const;
  void set_flat(std::span<const float> flat);

  [[nodiscard]] std::vector<nn::ParamPtr> parameters() const;

  /// --- checkpoint/restore ---------------------------------------------------
  /// Everything that makes a controller resume bit-identically: the flat
  /// parameter vector plus the internal Adam moments and step count. The
  /// workspace is deliberately absent: every sample() and ppo_update()
  /// overwrites what it reads of it before reading, so it carries nothing
  /// from one call to the next.
  struct State {
    std::vector<float> flat;
    nn::Adam::State adam;
  };
  [[nodiscard]] State save_state() const;
  /// Throws std::invalid_argument, leaving the controller unchanged, when the
  /// flat vector or the Adam state does not fit this controller.
  void load_state(const State& state);

 private:
  /// Scratch for sample(), greedy() and ppo_update(): sized on first use and
  /// reused, so a steady-state call allocates nothing. Time-major like the
  /// LSTM's: entry (t, b) of a [T, B, n] buffer starts at (t*B + b)*n.
  struct Workspace {
    nn::LstmWorkspace lstm;
    std::vector<float> probs;         ///< [T, B, A] logits, then the masked softmax
    std::vector<float> values;        ///< [T, B]
    std::vector<float> dlogits;       ///< [T, B, A]
    std::vector<float> dvalues;       ///< [T, B]
    std::vector<float> dh_pi;         ///< [T, B, H]  dlogits Wpi^T
    std::vector<float> wpi_t;         ///< [A, H]     Wpi transposed
    std::vector<float> adv;           ///< [B, T]
    std::vector<std::size_t> tokens;  ///< [T, B]     embedding row fed at (t, b)
  };

  /// Decode step t of a batch-1 sequence fed `token`: runs the LSTM step
  /// and returns the policy's masked probabilities, [max_arity].
  const float* decode_step(std::size_t t, std::size_t token) const;
  /// Writes the masked softmax of one row of logits (bias not yet added)
  /// over its first `arity` entries, in place.
  void policy_row(float* row, std::size_t arity) const;
  [[nodiscard]] float head_value(const float* h) const;

  std::vector<std::size_t> arities_;
  std::size_t max_arity_;

  nn::ParamPtr embed_;  // [max_arity + 1, kControllerEmbed]; row 0 = start token
  nn::LstmCell lstm_;
  nn::ParamPtr wpi_;    // [kControllerHidden, max_arity]
  nn::ParamPtr bpi_;    // [max_arity]
  nn::ParamPtr wv_;     // [kControllerHidden, 1]
  nn::ParamPtr bv_;     // [1]
  std::vector<nn::ParamPtr> params_;  // flat-vector order: embed, lstm, wpi, bpi, wv, bv
  nn::Adam adam_;
  // sample() and greedy() are const but decode through the workspace, so a
  // controller is not safe to use from two threads at once.
  mutable Workspace ws_;
};

}  // namespace ncnas::rl
