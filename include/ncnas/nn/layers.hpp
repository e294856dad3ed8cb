// Concrete layers: everything the paper's search spaces can emit.
//
//   Dense(units, act)       - fully connected with fused activation
//   Activation(kind)        - standalone nonlinearity (NT3 Act_Node)
//   Dropout(rate)           - inverted dropout
//   Conv1D(filters, kernel) - valid padding, stride 1 (NT3 Conv_Node)
//   MaxPool1D(size)         - stride == size, Keras-style (NT3 Pool_Node)
//   Flatten / Reshape1D     - rank adapters inserted by the model builder
//   Concat / Add            - branch combiners (cell output rules)
//   Identity                - the no-op option present in every node
//   Input                   - named graph entry point
//
// Identity, and Dropout outside training, return their input from forward()
// (nn::Graph aliases their slot to it); every other layer writes its own
// slot. Flatten and Reshape1D copy: a Tensor owns its buffer, so one buffer
// cannot carry two shapes.
#pragma once

#include <optional>

#include "ncnas/nn/layer.hpp"

namespace ncnas::nn {

enum class Act { kLinear, kRelu, kTanh, kSigmoid, kSoftmax };

[[nodiscard]] const char* act_name(Act a);

/// Applies the activation elementwise (softmax: per row). Returns activated y.
[[nodiscard]] tensor::Tensor apply_act(Act a, const tensor::Tensor& z);

/// In-place variants, which the layers run on their graph-owned slots.
/// Turns logits z into activations in place.
void apply_act_inplace(Act a, tensor::Tensor& y);
/// Turns dL/dy into dL/dz in place, given the cached activated output y.
void act_backward_inplace(Act a, tensor::Tensor& g, const tensor::Tensor& y);

// ---------------------------------------------------------------------------

class Input final : public Layer {
 public:
  Input(std::string name, FeatShape shape) : name_(std::move(name)), shape_(std::move(shape)) {}
  [[nodiscard]] std::string kind() const override { return "input"; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const FeatShape& feat_shape() const noexcept { return shape_; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string name_;
  FeatShape shape_;
};

class Identity final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "identity"; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;
};

/// Tag selecting the weight-sharing (MirrorNode) copy constructors.
struct share_tag_t {};
inline constexpr share_tag_t share_tag{};

class Dense final : public Layer {
 public:
  /// Draws the weights' init seed from `rng`; bind() creates the weights,
  /// Glorot-initialized from that seed, once the input width is known.
  Dense(std::size_t units, Act act, tensor::Rng& rng);
  /// Weight-sharing constructor (MirrorNode): reuses the bound donor's
  /// parameters; throws std::logic_error if the donor is not bound yet.
  Dense(const Dense& donor, share_tag_t);

  [[nodiscard]] std::string kind() const override { return "dense"; }
  [[nodiscard]] std::size_t units() const noexcept { return units_; }
  [[nodiscard]] Act activation() const noexcept { return act_; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;
  [[nodiscard]] std::vector<ParamPtr> parameters() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::size_t units_;
  Act act_;
  std::uint64_t init_seed_;         // drawn at construction; bind() seeds the weights
  ParamPtr w_;                      // [in, units]; null until bound
  ParamPtr b_;                      // [units]
  bool shared_ = false;             // true when mirroring another Dense's params
  const tensor::Tensor* x_ = nullptr;  // input of the last forward
  const tensor::Tensor* y_ = nullptr;  // activated output of the last forward
  tensor::Tensor dw_;               // backward scratch: this step's dW
};

class Activation final : public Layer {
 public:
  explicit Activation(Act act) : act_(act) {}
  [[nodiscard]] std::string kind() const override { return "activation"; }
  [[nodiscard]] Act activation() const noexcept { return act_; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;
  [[nodiscard]] std::string describe() const override;

 private:
  Act act_;
  const tensor::Tensor* y_ = nullptr;  // output of the last forward
};

class Dropout final : public Layer {
 public:
  explicit Dropout(float rate);
  [[nodiscard]] std::string kind() const override { return "dropout"; }
  [[nodiscard]] float rate() const noexcept { return rate_; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;
  [[nodiscard]] std::string describe() const override;

 private:
  float rate_;
  tensor::Tensor mask_;  // scaled keep-mask from the last training forward
  bool masked_ = false;
};

/// 1-D convolution over [batch, length, channels_in], valid padding, stride 1.
class Conv1D final : public Layer {
 public:
  /// Weights as for Dense: created by bind(), shared by the mirror constructor.
  Conv1D(std::size_t filters, std::size_t kernel, tensor::Rng& rng);
  Conv1D(const Conv1D& donor, share_tag_t);

  [[nodiscard]] std::string kind() const override { return "conv1d"; }
  [[nodiscard]] std::size_t filters() const noexcept { return filters_; }
  [[nodiscard]] std::size_t kernel() const noexcept { return kernel_; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;
  [[nodiscard]] std::vector<ParamPtr> parameters() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::size_t filters_;
  std::size_t kernel_;
  std::uint64_t init_seed_;
  ParamPtr w_;  // [kernel * in_channels, filters]; null until bound
  ParamPtr b_;  // [filters]
  bool shared_ = false;
  const tensor::Tensor* x_ = nullptr;  // input of the last forward
};

/// Max pooling over [batch, length, channels]; window == stride == `size`,
/// trailing partial windows dropped (Keras semantics). A window larger than
/// the input length degenerates to global max pooling.
class MaxPool1D final : public Layer {
 public:
  explicit MaxPool1D(std::size_t size);
  [[nodiscard]] std::string kind() const override { return "maxpool1d"; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;
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
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;

 private:
  tensor::Shape in_shape_;
};

/// [d] -> [d, 1]; adapts a feature vector for Conv1D/MaxPool1D consumption.
class Reshape1D final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "reshape1d"; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;

 private:
  tensor::Shape in_shape_;
};

/// Concatenates rank-1 feature inputs along the feature axis.
class Concat final : public Layer {
 public:
  [[nodiscard]] std::string kind() const override { return "concat"; }
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;

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
  [[nodiscard]] FeatShape bind(std::span<const FeatShape> in) override;
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                              tensor::Tensor& out, ForwardCtx& ctx) override;
  void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) override;

 private:
  std::vector<std::size_t> widths_;
};

/// Attempts a parameter-sharing clone of `layer` (for MirrorNode). Supported
/// for Dense, Conv1D, Dropout, Activation, Identity; throws
/// std::invalid_argument otherwise, and std::logic_error for a Dense or
/// Conv1D that is not bound yet (add the donor to its graph first).
[[nodiscard]] LayerPtr clone_shared(const Layer& layer);

}  // namespace ncnas::nn
