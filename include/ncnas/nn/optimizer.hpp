// Optimizers. Adam (the paper's choice, default lr 1e-3) and plain SGD.
// Adam state is keyed by disambiguated parameter *name* (not raw pointer)
// so moments survive serialization across processes; shared (mirrored)
// weights still resolve to a single key — and a single moment estimate —
// no matter how many layers reference them.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ncnas/nn/parameter.hpp"

namespace ncnas::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update from the accumulated gradients, then leaves grads
  /// untouched (callers zero them per step).
  virtual void step(const std::vector<ParamPtr>& params) = 0;
  [[nodiscard]] virtual float learning_rate() const = 0;
  virtual void set_learning_rate(float lr) = 0;
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr = 0.01f) : lr_(lr) {}
  void step(const std::vector<ParamPtr>& params) override;
  [[nodiscard]] float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }

 private:
  float lr_;
};

class Adam final : public Optimizer {
 public:
  explicit Adam(float lr = 0.001f, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-7f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void step(const std::vector<ParamPtr>& params) override;
  [[nodiscard]] float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }

  // ---- serialization -------------------------------------------------------
  // Parameter names repeat across layers ("dense.w" exists in every dense
  // layer), so a raw name cannot key the moment map. Keys are therefore the
  // name disambiguated in first-seen order: "dense.w", "dense.w#2", ... —
  // stable across runs because optimizers always see their parameter list in
  // the same order, and identical for a shared (mirrored) parameter, which is
  // one pointer and thus one key.

  /// One parameter's moment estimates, under its disambiguated key.
  struct MomentEntry {
    std::string key;
    tensor::Shape shape;
    std::vector<float> m;
    std::vector<float> v;
  };
  /// Complete optimizer state: bias-correction step count + all moments,
  /// entries sorted by key so the serialized form is canonical.
  struct State {
    long step_count = 0;
    std::vector<MomentEntry> entries;
  };

  [[nodiscard]] State export_state() const;
  /// Replaces all optimizer state. `params` are the parameters step() will
  /// receive: their moments re-attach by key, so a restored optimizer then
  /// continues bit-identically. Throws std::invalid_argument on a step count
  /// out of range or moments that would attach to a parameter of another
  /// size, and then leaves the optimizer unchanged.
  void import_state(const State& state, const std::vector<ParamPtr>& params);

 private:
  struct Moments {
    tensor::Tensor m;
    tensor::Tensor v;
  };

  /// Disambiguated key for `p` ("name", "name#2", ... in first-seen order).
  const std::string& key_for(const Parameter* p);

  float lr_, beta1_, beta2_, eps_;
  long step_count_ = 0;
  std::unordered_map<std::string, Moments> state_;
  std::unordered_map<const Parameter*, std::string> key_cache_;
  std::unordered_map<std::string, std::size_t> name_counts_;
};

}  // namespace ncnas::nn
