// graph_oracle.hpp — the copying graph executor and layers that nn::Graph
// replaced, kept verbatim as a test oracle.
//
// Before the planned executor, every layer returned a fresh output tensor
// and a vector of fresh input gradients, Dense cached a copy of its input
// and returned a copy of its output, and Graph::backward rebuilt its liveness
// and reset every node gradient on each step. Those semantics are the
// definition the planned executor must match bit for bit: graph_oracle_test
// builds the same model both ways (mirror_graph below) and compares outputs
// and gradients. Nothing outside the tests uses this code.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ncnas/nn/graph.hpp"
#include "ncnas/nn/init.hpp"
#include "ncnas/nn/layers.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::oracle {

// The activation kernels, parameters and initializers did not change; the
// oracle shares them with the library, apart from the allocating
// act_backward only the old layers used.
using nn::Act;
using nn::act_backward_inplace;
using nn::act_name;
using nn::apply_act_inplace;
using nn::FeatShape;
using nn::ForwardCtx;
using nn::glorot_uniform;
using nn::Parameter;
using nn::ParamPtr;
using nn::share_tag;
using nn::share_tag_t;
using nn::unique_param_count;
using nn::unique_params;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Short kind tag, e.g. "dense", used in summaries and error messages.
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Per-sample output shape given per-sample input shapes. Throws
  /// std::invalid_argument for incompatible inputs.
  [[nodiscard]] virtual FeatShape output_shape(std::span<const FeatShape> in) const = 0;

  /// Forward pass over a batch. Each input has the batch dimension first.
  [[nodiscard]] virtual tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                               ForwardCtx& ctx) = 0;

  /// Backward pass; returns gradient w.r.t. each input, in input order.
  /// Parameter gradients are *accumulated* into Parameter::grad.
  [[nodiscard]] virtual std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) = 0;

  /// Trainable parameters (possibly shared with other layers). Default: none.
  [[nodiscard]] virtual std::vector<ParamPtr> parameters() const { return {}; }

  /// One-line human-readable description for model summaries.
  [[nodiscard]] virtual std::string describe() const { return kind(); }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Helper shared by single-input layers: validates arity.
inline const tensor::Tensor& single_input(std::span<const tensor::Tensor* const> inputs,
                                   const char* what);
inline const FeatShape& single_shape(std::span<const FeatShape> in, const char* what);

class Input final : public Layer {
 public:
  Input(std::string name, FeatShape shape) : name_(std::move(name)), shape_(std::move(shape)) {}
  [[nodiscard]] std::string kind() const override { return "input"; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const FeatShape& feat_shape() const noexcept { return shape_; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string name_;
  FeatShape shape_;
};

class Identity final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "identity"; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;
};

class Dense final : public Layer {
 public:
  /// Fresh weights; they are lazily initialized on the first forward pass,
  /// when the input width is known, using the provided rng.
  Dense(std::size_t units, Act act, tensor::Rng& rng);
  /// Weight-sharing constructor (MirrorNode): reuses the donor's parameters.
  Dense(const Dense& donor, share_tag_t);

  [[nodiscard]] std::string kind() const override { return "dense"; }
  [[nodiscard]] std::size_t units() const noexcept { return units_; }
  [[nodiscard]] Act activation() const noexcept { return act_; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::vector<ParamPtr> parameters() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  // Weights live behind a shared slot so that mirrors created *before* the
  // donor's lazy initialization still end up sharing the same parameters:
  // whichever instance runs forward first fills the slot for all of them.
  struct Slot {
    ParamPtr w;  // [in, units]
    ParamPtr b;  // [units]
  };

  void ensure_params(std::size_t in_dim);

  std::size_t units_;
  Act act_;
  std::uint64_t init_seed_;    // drawn at construction; lazy init owns its rng
  std::shared_ptr<Slot> slot_;
  bool shared_ = false;        // true when mirroring another Dense's params
  tensor::Tensor x_;           // cached input
  tensor::Tensor y_;           // cached activated output
  tensor::Tensor gz_;          // backward scratch: dL/dz (capacity reused)
  tensor::Tensor dw_;          // backward scratch: this step's dW
};

class Activation final : public Layer {
 public:
  explicit Activation(Act act) : act_(act) {}
  [[nodiscard]] std::string kind() const override { return "activation"; }
  [[nodiscard]] Act activation() const noexcept { return act_; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string describe() const override;

 private:
  Act act_;
  tensor::Tensor y_;
};

class Dropout final : public Layer {
 public:
  explicit Dropout(float rate);
  [[nodiscard]] std::string kind() const override { return "dropout"; }
  [[nodiscard]] float rate() const noexcept { return rate_; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string describe() const override;

 private:
  float rate_;
  tensor::Tensor mask_;  // scaled keep-mask from the last training forward
  bool masked_ = false;
};

/// 1-D convolution over [batch, length, channels_in], valid padding, stride 1.
class Conv1D final : public Layer {
 public:
  Conv1D(std::size_t filters, std::size_t kernel, tensor::Rng& rng);
  Conv1D(const Conv1D& donor, share_tag_t);

  [[nodiscard]] std::string kind() const override { return "conv1d"; }
  [[nodiscard]] std::size_t filters() const noexcept { return filters_; }
  [[nodiscard]] std::size_t kernel() const noexcept { return kernel_; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::vector<ParamPtr> parameters() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  struct Slot {
    ParamPtr w;  // [kernel * in_channels, filters]
    ParamPtr b;  // [filters]
  };

  void ensure_params(std::size_t in_channels);

  std::size_t filters_;
  std::size_t kernel_;
  std::uint64_t init_seed_;
  std::shared_ptr<Slot> slot_;
  bool shared_ = false;
  tensor::Tensor x_;
};

/// Max pooling over [batch, length, channels]; window == stride == `size`,
/// trailing partial windows dropped (Keras semantics). A window larger than
/// the input length degenerates to global max pooling.
class MaxPool1D final : public Layer {
 public:
  explicit MaxPool1D(std::size_t size);
  [[nodiscard]] std::string kind() const override { return "maxpool1d"; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::size_t size_;
  tensor::Shape in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// [length, channels] -> [length * channels].
class Flatten final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "flatten"; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Shape in_shape_;
};

/// [d] -> [d, 1]; adapts a feature vector for Conv1D/MaxPool1D consumption.
class Reshape1D final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "reshape1d"; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Shape in_shape_;
};

/// Concatenates rank-1 feature inputs along the feature axis.
class Concat final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "concat"; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;

 private:
  std::vector<std::size_t> widths_;
};

/// Elementwise addition of rank-1 inputs. Inputs narrower than the widest are
/// implicitly zero-padded on the right — a parameter-free way to keep the
/// paper's ConstantNode Add (Uno residual blocks) well-defined when the
/// searched submodels choose different widths.
class Add final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "add"; }
  [[nodiscard]] FeatShape output_shape(std::span<const FeatShape> in) const override;
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                       ForwardCtx& ctx) override;
  [[nodiscard]] std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) override;

 private:
  std::vector<std::size_t> widths_;
};

/// Attempts a parameter-sharing clone of `layer` (for MirrorNode). Supported
/// for Dense, Conv1D, Dropout, Activation, Identity; throws otherwise.
[[nodiscard]] LayerPtr clone_shared(const Layer& layer);

class Graph {
 public:
  /// Adds a named input placeholder; returns its node id. Inputs are fed to
  /// forward() in the order they were added.
  std::size_t add_input(std::string name, FeatShape shape);

  /// Adds a layer consuming the outputs of `inputs` (node ids < the new id).
  std::size_t add(LayerPtr layer, std::vector<std::size_t> inputs);

  /// Marks the node whose output is the model prediction. Defaults to the
  /// last added node.
  void set_output(std::size_t node_id);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t input_count() const noexcept { return input_ids_.size(); }
  [[nodiscard]] std::size_t output_id() const noexcept { return output_id_; }
  [[nodiscard]] const Layer& layer(std::size_t node_id) const { return *nodes_.at(node_id).layer; }

  /// Per-sample output shape of the full model. Runs shape inference; throws
  /// if any layer rejects its inputs. Cheap — no tensors are allocated.
  [[nodiscard]] FeatShape output_shape() const;

  /// Runs the model on a batch. `inputs[i]` feeds the i-th declared input and
  /// must carry the batch dimension first. Returns the output node's tensor.
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor> inputs, ForwardCtx& ctx);

  /// Backpropagates dL/d(output); must follow a forward() call. Parameter
  /// gradients are accumulated (call zero_grad() between steps).
  void backward(const tensor::Tensor& grad_output);

  /// All trainable parameters, de-duplicated (shared weights appear once).
  [[nodiscard]] std::vector<ParamPtr> parameters() const;

  /// Number of trainable scalars — the paper's "trainable parameters" metric.
  /// NOTE: lazy layers materialize weights on first forward; call after one
  /// forward pass (or train step) for a final count.
  [[nodiscard]] std::size_t param_count() const;

  void zero_grad();

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary() const;

 private:
  struct Node {
    LayerPtr layer;
    std::vector<std::size_t> inputs;
    std::vector<std::size_t> consumers;
    tensor::Tensor output;     // cached from the last forward
    tensor::Tensor grad;       // accumulated during backward
    int pending_consumers = 0; // countdown used by backward()
  };

  std::vector<Node> nodes_;
  std::vector<std::size_t> input_ids_;
  std::size_t output_id_ = 0;
  bool has_output_ = false;
};

using tensor::Shape;
using tensor::Tensor;

inline const tensor::Tensor& single_input(std::span<const tensor::Tensor* const> inputs,
                                   const char* what) {
  if (inputs.size() != 1 || inputs[0] == nullptr) {
    throw std::invalid_argument(std::string(what) + ": expects exactly one input, got " +
                                std::to_string(inputs.size()));
  }
  return *inputs[0];
}

inline const FeatShape& single_shape(std::span<const FeatShape> in, const char* what) {
  if (in.size() != 1) {
    throw std::invalid_argument(std::string(what) + ": expects exactly one input shape, got " +
                                std::to_string(in.size()));
  }
  return in[0];
}

/// dL/dz given dL/dy plus the cached activated output y.
inline tensor::Tensor act_backward(Act a, const tensor::Tensor& grad_y, const tensor::Tensor& y) {
  tensor::Tensor g = grad_y;
  act_backward_inplace(a, g, y);
  return g;
}

// --- Input ------------------------------------------------------------------

inline FeatShape Input::output_shape(std::span<const FeatShape> in) const {
  if (!in.empty()) throw std::invalid_argument("input: takes no graph inputs");
  return shape_;
}

inline Tensor Input::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  // The graph executor feeds the fed tensor as the sole "input".
  return single_input(inputs, "input");
}

inline std::vector<Tensor> Input::backward(const Tensor& grad_out) { return {grad_out}; }

inline std::string Input::describe() const {
  return "input '" + name_ + "' " + tensor::to_string(shape_);
}

// --- Identity ---------------------------------------------------------------

inline FeatShape Identity::output_shape(std::span<const FeatShape> in) const {
  return single_shape(in, "identity");
}

inline Tensor Identity::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  return single_input(inputs, "identity");
}

inline std::vector<Tensor> Identity::backward(const Tensor& grad_out) { return {grad_out}; }

// --- Dense ------------------------------------------------------------------

inline Dense::Dense(std::size_t units, Act act, tensor::Rng& rng)
    : units_(units), act_(act), init_seed_(rng.next_u64()),
      slot_(std::make_shared<Slot>()) {
  if (units == 0) throw std::invalid_argument("dense: units must be positive");
}

inline Dense::Dense(const Dense& donor, share_tag_t)
    : units_(donor.units_), act_(donor.act_), init_seed_(donor.init_seed_),
      slot_(donor.slot_), shared_(true) {}

inline void Dense::ensure_params(std::size_t in_dim) {
  if (slot_->w) {
    if (slot_->w->value.dim(0) != in_dim) {
      throw std::invalid_argument("dense: input width " + std::to_string(in_dim) +
                                  " does not match weights of width " +
                                  std::to_string(slot_->w->value.dim(0)));
    }
    return;
  }
  Tensor w({in_dim, units_});
  tensor::Rng rng(init_seed_);
  glorot_uniform(w, in_dim, units_, rng);
  slot_->w = std::make_shared<Parameter>("dense.w", std::move(w));
  slot_->b = std::make_shared<Parameter>("dense.b", Tensor({units_}));
}

inline FeatShape Dense::output_shape(std::span<const FeatShape> in) const {
  const FeatShape& s = single_shape(in, "dense");
  if (s.size() != 1) {
    throw std::invalid_argument("dense: expects rank-1 features, got " + tensor::to_string(s));
  }
  return {units_};
}

inline Tensor Dense::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  const Tensor& x = single_input(inputs, "dense");
  ensure_params(x.dim(1));
  // Scratch discipline: x_/y_ reuse their buffers across steps (copy-assign
  // and reset() keep capacity), gemm writes straight into y_, and the
  // activation runs in place — steady-state forward allocates nothing
  // beyond the returned copy.
  x_ = x;
  y_.reset({x.dim(0), units_});
  tensor::gemm(x, slot_->w->value, y_);
  tensor::add_row_bias(y_, slot_->b->value);
  apply_act_inplace(act_, y_);
  return y_;
}

inline std::vector<Tensor> Dense::backward(const Tensor& grad_out) {
  gz_ = grad_out;
  act_backward_inplace(act_, gz_, y_);
  // dW += X^T gz ; db += colsum(gz) ; dX = gz W^T
  dw_.reset({x_.dim(1), units_});
  tensor::gemm_tn(x_, gz_, dw_);
  tensor::add_inplace(slot_->w->grad, dw_);
  tensor::accumulate_col_sums(gz_, slot_->b->grad);
  Tensor dx({x_.dim(0), x_.dim(1)});
  tensor::gemm_nt(gz_, slot_->w->value, dx);
  return {std::move(dx)};
}

inline std::vector<ParamPtr> Dense::parameters() const {
  if (!slot_->w) return {};
  return {slot_->w, slot_->b};
}

inline std::string Dense::describe() const {
  std::ostringstream os;
  os << "dense(" << units_ << ", " << act_name(act_) << (shared_ ? ", shared" : "") << ")";
  return os.str();
}

// --- Activation ---------------------------------------------------------------

inline FeatShape Activation::output_shape(std::span<const FeatShape> in) const {
  return single_shape(in, "activation");
}

inline Tensor Activation::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  y_ = single_input(inputs, "activation");  // copy-assign reuses capacity
  apply_act_inplace(act_, y_);
  return y_;
}

inline std::vector<Tensor> Activation::backward(const Tensor& grad_out) {
  return {act_backward(act_, grad_out, y_)};
}

inline std::string Activation::describe() const {
  return std::string("activation(") + act_name(act_) + ")";
}

// --- Dropout ------------------------------------------------------------------

inline Dropout::Dropout(float rate) : rate_(rate) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("dropout: rate must be in [0, 1)");
  }
}

inline FeatShape Dropout::output_shape(std::span<const FeatShape> in) const {
  return single_shape(in, "dropout");
}

inline Tensor Dropout::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx& ctx) {
  const Tensor& x = single_input(inputs, "dropout");
  if (!ctx.training || rate_ == 0.0f) {
    masked_ = false;
    return x;
  }
  if (ctx.rng == nullptr) {
    throw std::invalid_argument("dropout: training forward requires ForwardCtx::rng");
  }
  mask_.reset(x.shape());
  const float keep = 1.0f - rate_;
  const float inv_keep = 1.0f / keep;
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float m = ctx.rng->uniform() < keep ? inv_keep : 0.0f;
    mask_[i] = m;
    y[i] *= m;
  }
  masked_ = true;
  return y;
}

inline std::vector<Tensor> Dropout::backward(const Tensor& grad_out) {
  if (!masked_) return {grad_out};
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= mask_[i];
  return {std::move(g)};
}

inline std::string Dropout::describe() const {
  std::ostringstream os;
  os << "dropout(" << rate_ << ")";
  return os.str();
}

// --- Conv1D -------------------------------------------------------------------

inline Conv1D::Conv1D(std::size_t filters, std::size_t kernel, tensor::Rng& rng)
    : filters_(filters), kernel_(kernel), init_seed_(rng.next_u64()),
      slot_(std::make_shared<Slot>()) {
  if (filters == 0 || kernel == 0) {
    throw std::invalid_argument("conv1d: filters and kernel must be positive");
  }
}

inline Conv1D::Conv1D(const Conv1D& donor, share_tag_t)
    : filters_(donor.filters_), kernel_(donor.kernel_), init_seed_(donor.init_seed_),
      slot_(donor.slot_), shared_(true) {}

inline void Conv1D::ensure_params(std::size_t in_channels) {
  const std::size_t fan_in = kernel_ * in_channels;
  if (slot_->w) {
    if (slot_->w->value.dim(0) != fan_in) {
      throw std::invalid_argument("conv1d: input channels do not match shared weights");
    }
    return;
  }
  Tensor w({fan_in, filters_});
  tensor::Rng rng(init_seed_);
  glorot_uniform(w, fan_in, filters_, rng);
  slot_->w = std::make_shared<Parameter>("conv1d.w", std::move(w));
  slot_->b = std::make_shared<Parameter>("conv1d.b", Tensor({filters_}));
}

inline FeatShape Conv1D::output_shape(std::span<const FeatShape> in) const {
  const FeatShape& s = single_shape(in, "conv1d");
  if (s.size() != 2) {
    throw std::invalid_argument("conv1d: expects [length, channels] features, got " +
                                tensor::to_string(s));
  }
  if (s[0] < kernel_) {
    throw std::invalid_argument("conv1d: input length " + std::to_string(s[0]) +
                                " shorter than kernel " + std::to_string(kernel_));
  }
  return {s[0] - kernel_ + 1, filters_};
}

inline Tensor Conv1D::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  const Tensor& x = single_input(inputs, "conv1d");
  if (x.rank() != 3) throw std::invalid_argument("conv1d: expects rank-3 batch input");
  const std::size_t batch = x.dim(0), len = x.dim(1), cin = x.dim(2);
  if (len < kernel_) throw std::invalid_argument("conv1d: input shorter than kernel");
  ensure_params(cin);
  x_ = x;
  const std::size_t out_len = len - kernel_ + 1;
  Tensor y({batch, out_len, filters_});
  const float* pw = slot_->w->value.data();
  const float* pb = slot_->b->value.data();
  // No zero-operand skip on xv: it made FLOPs data-dependent and masked NaN
  // in the weights (0 * NaN must stay NaN) — see the kernel NaN-semantics
  // note in tensor/ops.hpp.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < out_len; ++p) {
      float* yrow = y.data() + (b * out_len + p) * filters_;
      for (std::size_t f = 0; f < filters_; ++f) yrow[f] = pb[f];
      // Window [p, p + kernel) flattened over (offset, channel) pairs.
      const float* xwin = x.data() + (b * len + p) * cin;
      for (std::size_t t = 0; t < kernel_ * cin; ++t) {
        const float xv = xwin[t];
        const float* wrow = pw + t * filters_;
        for (std::size_t f = 0; f < filters_; ++f) yrow[f] += xv * wrow[f];
      }
    }
  }
  return y;
}

inline std::vector<Tensor> Conv1D::backward(const Tensor& grad_out) {
  const std::size_t batch = x_.dim(0), len = x_.dim(1), cin = x_.dim(2);
  const std::size_t out_len = len - kernel_ + 1;
  Tensor dx(x_.shape());
  float* pdx = dx.data();
  float* pdw = slot_->w->grad.data();
  float* pdb = slot_->b->grad.data();
  const float* pw = slot_->w->value.data();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < out_len; ++p) {
      const float* grow = grad_out.data() + (b * out_len + p) * filters_;
      for (std::size_t f = 0; f < filters_; ++f) pdb[f] += grow[f];
      const float* xwin = x_.data() + (b * len + p) * cin;
      float* dxwin = pdx + (b * len + p) * cin;
      for (std::size_t t = 0; t < kernel_ * cin; ++t) {
        const float* wrow = pw + t * filters_;
        float* dwrow = pdw + t * filters_;
        const float xv = xwin[t];
        float acc = 0.0f;
        for (std::size_t f = 0; f < filters_; ++f) {
          const float g = grow[f];
          dwrow[f] += xv * g;
          acc += wrow[f] * g;
        }
        dxwin[t] += acc;
      }
    }
  }
  return {std::move(dx)};
}

inline std::vector<ParamPtr> Conv1D::parameters() const {
  if (!slot_->w) return {};
  return {slot_->w, slot_->b};
}

inline std::string Conv1D::describe() const {
  std::ostringstream os;
  os << "conv1d(" << filters_ << " filters, k=" << kernel_ << (shared_ ? ", shared" : "") << ")";
  return os.str();
}

// --- MaxPool1D ------------------------------------------------------------------

inline MaxPool1D::MaxPool1D(std::size_t size) : size_(size) {
  if (size == 0) throw std::invalid_argument("maxpool1d: size must be positive");
}

inline FeatShape MaxPool1D::output_shape(std::span<const FeatShape> in) const {
  const FeatShape& s = single_shape(in, "maxpool1d");
  if (s.size() != 2) {
    throw std::invalid_argument("maxpool1d: expects [length, channels] features, got " +
                                tensor::to_string(s));
  }
  const std::size_t out_len = std::max<std::size_t>(1, s[0] / size_);
  return {out_len, s[1]};
}

inline Tensor MaxPool1D::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  const Tensor& x = single_input(inputs, "maxpool1d");
  if (x.rank() != 3) throw std::invalid_argument("maxpool1d: expects rank-3 batch input");
  const std::size_t batch = x.dim(0), len = x.dim(1), ch = x.dim(2);
  in_shape_ = x.shape();
  const std::size_t window = std::min(size_, len);
  const std::size_t out_len = std::max<std::size_t>(1, len / size_);
  Tensor y({batch, out_len, ch});
  argmax_.assign(y.size(), 0);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < out_len; ++p) {
      const std::size_t start = p * size_;
      for (std::size_t c = 0; c < ch; ++c) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t t = 0; t < window && start + t < len; ++t) {
          const std::size_t idx = (b * len + start + t) * ch + c;
          if (x[idx] > best) {
            best = x[idx];
            best_idx = idx;
          }
        }
        const std::size_t out_idx = (b * out_len + p) * ch + c;
        y[out_idx] = best;
        argmax_[out_idx] = best_idx;
      }
    }
  }
  return y;
}

inline std::vector<Tensor> MaxPool1D::backward(const Tensor& grad_out) {
  Tensor dx(in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) dx[argmax_[i]] += grad_out[i];
  return {std::move(dx)};
}

inline std::string MaxPool1D::describe() const {
  std::ostringstream os;
  os << "maxpool1d(" << size_ << ")";
  return os.str();
}

// --- Flatten --------------------------------------------------------------------

inline FeatShape Flatten::output_shape(std::span<const FeatShape> in) const {
  const FeatShape& s = single_shape(in, "flatten");
  return {tensor::numel(s)};
}

inline Tensor Flatten::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  const Tensor& x = single_input(inputs, "flatten");
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

inline std::vector<Tensor> Flatten::backward(const Tensor& grad_out) {
  return {grad_out.reshaped(in_shape_)};
}

// --- Reshape1D ------------------------------------------------------------------

inline FeatShape Reshape1D::output_shape(std::span<const FeatShape> in) const {
  const FeatShape& s = single_shape(in, "reshape1d");
  if (s.size() != 1) {
    throw std::invalid_argument("reshape1d: expects rank-1 features, got " + tensor::to_string(s));
  }
  return {s[0], 1};
}

inline Tensor Reshape1D::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  const Tensor& x = single_input(inputs, "reshape1d");
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.dim(1), 1});
}

inline std::vector<Tensor> Reshape1D::backward(const Tensor& grad_out) {
  return {grad_out.reshaped(in_shape_)};
}

// --- Concat ---------------------------------------------------------------------

inline FeatShape Concat::output_shape(std::span<const FeatShape> in) const {
  if (in.empty()) throw std::invalid_argument("concat: requires at least one input");
  std::size_t total = 0;
  for (const FeatShape& s : in) {
    if (s.size() != 1) {
      throw std::invalid_argument("concat: expects rank-1 features, got " + tensor::to_string(s));
    }
    total += s[0];
  }
  return {total};
}

inline Tensor Concat::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  if (inputs.empty()) throw std::invalid_argument("concat: requires at least one input");
  const std::size_t batch = inputs[0]->dim(0);
  widths_.clear();
  std::size_t total = 0;
  for (const Tensor* t : inputs) {
    if (t->rank() != 2 || t->dim(0) != batch) {
      throw std::invalid_argument("concat: inputs must be rank-2 with equal batch size");
    }
    widths_.push_back(t->dim(1));
    total += t->dim(1);
  }
  Tensor y({batch, total});
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = y.data() + b * total;
    for (const Tensor* t : inputs) {
      const std::size_t w = t->dim(1);
      const float* src = t->data() + b * w;
      std::copy(src, src + w, row);
      row += w;
    }
  }
  return y;
}

inline std::vector<Tensor> Concat::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.dim(0);
  const std::size_t total = grad_out.dim(1);
  std::vector<Tensor> grads;
  grads.reserve(widths_.size());
  std::size_t offset = 0;
  for (std::size_t w : widths_) {
    Tensor g({batch, w});
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = grad_out.data() + b * total + offset;
      std::copy(src, src + w, g.data() + b * w);
    }
    grads.push_back(std::move(g));
    offset += w;
  }
  return grads;
}

// --- Add ------------------------------------------------------------------------

inline FeatShape Add::output_shape(std::span<const FeatShape> in) const {
  if (in.empty()) throw std::invalid_argument("add: requires at least one input");
  std::size_t widest = 0;
  for (const FeatShape& s : in) {
    if (s.size() != 1) {
      throw std::invalid_argument("add: expects rank-1 features, got " + tensor::to_string(s));
    }
    widest = std::max(widest, s[0]);
  }
  return {widest};
}

inline Tensor Add::forward(std::span<const tensor::Tensor* const> inputs, ForwardCtx&) {
  if (inputs.empty()) throw std::invalid_argument("add: requires at least one input");
  const std::size_t batch = inputs[0]->dim(0);
  widths_.clear();
  std::size_t widest = 0;
  for (const Tensor* t : inputs) {
    if (t->rank() != 2 || t->dim(0) != batch) {
      throw std::invalid_argument("add: inputs must be rank-2 with equal batch size");
    }
    widths_.push_back(t->dim(1));
    widest = std::max(widest, t->dim(1));
  }
  Tensor y({batch, widest});
  for (const Tensor* t : inputs) {
    const std::size_t w = t->dim(1);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = t->data() + b * w;
      float* dst = y.data() + b * widest;
      for (std::size_t j = 0; j < w; ++j) dst[j] += src[j];
    }
  }
  return y;
}

inline std::vector<Tensor> Add::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.dim(0);
  const std::size_t widest = grad_out.dim(1);
  std::vector<Tensor> grads;
  grads.reserve(widths_.size());
  for (std::size_t w : widths_) {
    Tensor g({batch, w});
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = grad_out.data() + b * widest;
      std::copy(src, src + w, g.data() + b * w);
    }
    grads.push_back(std::move(g));
  }
  return grads;
}

// --- clone_shared ------------------------------------------------------------------

inline LayerPtr clone_shared(const Layer& layer) {
  if (const auto* d = dynamic_cast<const Dense*>(&layer)) {
    return std::make_unique<Dense>(*d, share_tag);
  }
  if (const auto* c = dynamic_cast<const Conv1D*>(&layer)) {
    return std::make_unique<Conv1D>(*c, share_tag);
  }
  if (const auto* dr = dynamic_cast<const Dropout*>(&layer)) {
    return std::make_unique<Dropout>(dr->rate());
  }
  if (const auto* a = dynamic_cast<const Activation*>(&layer)) {
    return std::make_unique<Activation>(a->activation());
  }
  if (dynamic_cast<const Identity*>(&layer) != nullptr) {
    return std::make_unique<Identity>();
  }
  throw std::invalid_argument("clone_shared: unsupported layer kind '" + layer.kind() + "'");
}

inline std::size_t Graph::add_input(std::string name, FeatShape shape) {
  const std::size_t id = nodes_.size();
  Node node;
  node.layer = std::make_unique<Input>(std::move(name), std::move(shape));
  nodes_.push_back(std::move(node));
  input_ids_.push_back(id);
  output_id_ = id;
  return id;
}

inline std::size_t Graph::add(LayerPtr layer, std::vector<std::size_t> inputs) {
  if (layer == nullptr) throw std::invalid_argument("Graph::add: null layer");
  const std::size_t id = nodes_.size();
  for (std::size_t in : inputs) {
    if (in >= id) {
      throw std::invalid_argument("Graph::add: input id " + std::to_string(in) +
                                  " is not an existing node (topological order required)");
    }
  }
  for (std::size_t in : inputs) nodes_[in].consumers.push_back(id);
  Node node;
  node.layer = std::move(layer);
  node.inputs = std::move(inputs);
  nodes_.push_back(std::move(node));
  output_id_ = id;
  return id;
}

inline void Graph::set_output(std::size_t node_id) {
  if (node_id >= nodes_.size()) throw std::invalid_argument("Graph::set_output: bad node id");
  output_id_ = node_id;
  has_output_ = true;
}

inline FeatShape Graph::output_shape() const {
  std::vector<FeatShape> shapes(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    std::vector<FeatShape> in;
    in.reserve(node.inputs.size());
    for (std::size_t src : node.inputs) in.push_back(shapes[src]);
    shapes[i] = node.layer->output_shape(in);
  }
  return shapes[output_id_];
}

inline Tensor Graph::forward(std::span<const Tensor> inputs, ForwardCtx& ctx) {
  if (inputs.size() != input_ids_.size()) {
    throw std::invalid_argument("Graph::forward: expected " + std::to_string(input_ids_.size()) +
                                " inputs, got " + std::to_string(inputs.size()));
  }
  NCNAS_PROF_SCOPE("graph/forward");
  // Per-op names are only materialized (kind() returns by value) when a
  // profiler is installed; an empty name makes the scope a no-op.
  const bool profiled = obs::profiling_enabled();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    const std::string op_name = profiled ? "op/" + node.layer->kind() : std::string();
    obs::ProfileScope op_scope(op_name);
    std::vector<const Tensor*> in;
    if (auto* input_layer = dynamic_cast<Input*>(node.layer.get())) {
      // Feed the externally supplied tensor for this input's position.
      std::size_t pos = 0;
      while (input_ids_[pos] != i) ++pos;
      const Tensor& fed = inputs[pos];
      const FeatShape& fs = input_layer->feat_shape();
      tensor::Shape expected{fed.dim(0)};
      expected.insert(expected.end(), fs.begin(), fs.end());
      fed.require_shape(expected, "Graph::forward input");
      in.push_back(&fed);
    } else {
      in.reserve(node.inputs.size());
      for (std::size_t src : node.inputs) in.push_back(&nodes_[src].output);
    }
    node.output = node.layer->forward(in, ctx);
  }
  return nodes_[output_id_].output;
}

inline void Graph::backward(const Tensor& grad_output) {
  NCNAS_PROF_SCOPE("graph/backward");
  // Reset per-node gradient accumulators; count live consumers reachable from
  // the output so dead branches are skipped.
  for (Node& node : nodes_) {
    node.grad = Tensor();
    node.pending_consumers = 0;
  }
  // A node participates if it is an ancestor of the output node.
  std::vector<bool> live(nodes_.size(), false);
  live[output_id_] = true;
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    if (!live[i]) continue;
    for (std::size_t src : nodes_[i].inputs) live[src] = true;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!live[i]) continue;
    for (std::size_t consumer : nodes_[i].consumers) {
      if (live[consumer]) ++nodes_[i].pending_consumers;
    }
  }

  const bool profiled = obs::profiling_enabled();
  nodes_[output_id_].grad = grad_output;
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    Node& node = nodes_[i];
    if (!live[i] || node.grad.empty()) continue;
    const std::string op_name = profiled ? "op/" + node.layer->kind() : std::string();
    obs::ProfileScope op_scope(op_name);
    std::vector<Tensor> input_grads = node.layer->backward(node.grad);
    if (dynamic_cast<Input*>(node.layer.get()) != nullptr) continue;
    if (input_grads.size() != node.inputs.size()) {
      throw std::logic_error("Graph::backward: layer '" + node.layer->kind() +
                             "' returned wrong number of input grads");
    }
    for (std::size_t j = 0; j < node.inputs.size(); ++j) {
      Node& src = nodes_[node.inputs[j]];
      if (src.grad.empty()) {
        src.grad = std::move(input_grads[j]);
      } else {
        tensor::add_inplace(src.grad, input_grads[j]);
      }
    }
  }
}

inline std::vector<ParamPtr> Graph::parameters() const {
  std::vector<ParamPtr> all;
  for (const Node& node : nodes_) {
    const auto ps = node.layer->parameters();
    all.insert(all.end(), ps.begin(), ps.end());
  }
  return unique_params(all);
}

inline std::size_t Graph::param_count() const { return unique_param_count(parameters()); }

inline void Graph::zero_grad() {
  for (const ParamPtr& p : parameters()) p->zero_grad();
}

inline std::string Graph::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    os << '#' << i << ' ' << nodes_[i].layer->describe();
    if (!nodes_[i].inputs.empty()) {
      os << "  <-";
      for (std::size_t in : nodes_[i].inputs) os << ' ' << in;
    }
    if (i == output_id_) os << "  [output]";
    os << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// mirror_graph: the oracle twin of a built nn::Graph.

/// Builds an oracle graph with the structure of `g` (same nodes, inputs and
/// output; mirrored layers share parameters the same way) and copies g's
/// parameter values into it. `g` must have run one forward pass so its lazy
/// weights exist; `probe` (one tensor per graph input) materializes the
/// oracle's.
inline Graph mirror_graph(const nn::Graph& g, std::span<const Tensor> probe) {
  Graph o;
  // Node of the first layer that owns each parameter, to mirror sharing.
  std::unordered_map<const Parameter*, std::size_t> owner;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const nn::Layer& l = g.layer(i);
    const std::span<const std::size_t> in = g.node_inputs(i);
    const std::vector<std::size_t> inputs(in.begin(), in.end());
    const std::vector<ParamPtr> params = l.parameters();
    if (!params.empty()) {
      const auto it = owner.find(params.front().get());
      if (it != owner.end()) {
        (void)o.add(clone_shared(o.layer(it->second)), inputs);
        continue;
      }
      owner.emplace(params.front().get(), i);
    }
    tensor::Rng rng(i);
    if (const auto* x = dynamic_cast<const nn::Input*>(&l)) {
      (void)o.add_input(x->name(), x->feat_shape());
    } else if (const auto* d = dynamic_cast<const nn::Dense*>(&l)) {
      (void)o.add(std::make_unique<Dense>(d->units(), d->activation(), rng), inputs);
    } else if (const auto* c = dynamic_cast<const nn::Conv1D*>(&l)) {
      (void)o.add(std::make_unique<Conv1D>(c->filters(), c->kernel(), rng), inputs);
    } else if (const auto* a = dynamic_cast<const nn::Activation*>(&l)) {
      (void)o.add(std::make_unique<Activation>(a->activation()), inputs);
    } else if (const auto* dr = dynamic_cast<const nn::Dropout*>(&l)) {
      (void)o.add(std::make_unique<Dropout>(dr->rate()), inputs);
    } else if (const auto* p = dynamic_cast<const nn::MaxPool1D*>(&l)) {
      (void)o.add(std::make_unique<MaxPool1D>(p->size()), inputs);
    } else if (l.kind() == "identity") {
      (void)o.add(std::make_unique<Identity>(), inputs);
    } else if (l.kind() == "flatten") {
      (void)o.add(std::make_unique<Flatten>(), inputs);
    } else if (l.kind() == "reshape1d") {
      (void)o.add(std::make_unique<Reshape1D>(), inputs);
    } else if (l.kind() == "concat") {
      (void)o.add(std::make_unique<Concat>(), inputs);
    } else if (l.kind() == "add") {
      (void)o.add(std::make_unique<Add>(), inputs);
    } else {
      throw std::logic_error("mirror_graph: unknown layer kind '" + l.kind() + "'");
    }
  }
  o.set_output(g.output_id());
  ForwardCtx ctx{};
  (void)o.forward(probe, ctx);
  const std::vector<ParamPtr>& from = g.parameters();
  const std::vector<ParamPtr> to = o.parameters();
  if (from.size() != to.size()) throw std::logic_error("mirror_graph: parameter lists differ");
  for (std::size_t k = 0; k < from.size(); ++k) to[k]->value = from[k]->value;
  return o;
}

/// The oracle Conv1D's direct loops on given operands, for the kernel
/// tests: a layer that has run forward over x(batch, len, cin) once, with
/// w(kernel * cin, filters) and bias(filters) then set as its parameters.
inline Conv1D conv1d_with(const Tensor& x, const Tensor& w, const Tensor& bias) {
  tensor::Rng unused(0);
  Conv1D conv(w.dim(1), w.dim(0) / x.dim(2), unused);
  const Tensor* inputs[] = {&x};
  ForwardCtx ctx{};
  (void)conv.forward(inputs, ctx);  // creates the parameters, keeps x
  const std::vector<ParamPtr> params = conv.parameters();
  params[0]->value = w;
  params[1]->value = bias;
  return conv;
}

/// bias + x (*) w by the oracle's forward loop.
inline Tensor conv1d_forward(const Tensor& x, const Tensor& w, const Tensor& bias) {
  Conv1D conv = conv1d_with(x, w, bias);
  const Tensor* inputs[] = {&x};
  ForwardCtx ctx{};
  return conv.forward(inputs, ctx);
}

/// dw plus the weight gradient of each of `grads` in turn, by one oracle
/// backward per gradient.
inline Tensor conv1d_dw(const Tensor& x, const std::vector<Tensor>& grads, const Tensor& dw) {
  Conv1D conv = conv1d_with(x, dw, Tensor({dw.dim(1)}));
  const ParamPtr w = conv.parameters()[0];
  w->grad = dw;
  for (const Tensor& g : grads) (void)conv.backward(g);
  return w->grad;
}

}  // namespace ncnas::oracle
