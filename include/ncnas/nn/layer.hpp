// Layer interface for DAG models.
//
// A Layer is a node in a computation graph: it may take several input tensors
// (Concat / Add combine branches) and produces exactly one output tensor.
// It learns its per-sample input shapes once, from bind(), before it first
// runs; a layer with weights creates them there, so they exist from the
// moment the layer joins a graph.
// Layers never own their activations: forward() writes into an output buffer
// the caller owns (nn::Graph's per-node slot), and the layer keeps const
// pointers to its inputs and its output for backward() instead of copies.
// Graphs are trained sample-batch at a time, never re-entered concurrently.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ncnas/nn/parameter.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace ncnas::nn {

/// Per-sample shape (batch dimension excluded). Rank-1 [d] for feature
/// vectors; rank-2 [length, channels] for 1-D feature maps.
using FeatShape = tensor::Shape;

/// Mutable state threaded through forward passes.
struct ForwardCtx {
  bool training = false;          ///< enables dropout masks
  tensor::Rng* rng = nullptr;     ///< required when training with dropout
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Short kind tag, e.g. "dense", used in summaries and error messages.
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Binds the layer to its per-sample input shapes and returns its
  /// per-sample output shape; nn::Graph::add calls it once, before the node
  /// joins the graph. Layers with weights create them here. Throws
  /// std::invalid_argument for incompatible inputs.
  [[nodiscard]] virtual FeatShape bind(std::span<const FeatShape> in) = 0;

  /// Forward pass over a batch of the shapes bind() saw, batch dimension
  /// first. Writes the output into `out` (sized by the layer; its capacity is
  /// reused) and returns it, or returns `*inputs[0]` itself when the output
  /// is that input unchanged (Identity; Dropout outside training). The layer
  /// keeps pointers to `inputs` and to the returned tensor: they must stay
  /// alive and unchanged until the matching backward() returns.
  [[nodiscard]] virtual const tensor::Tensor& forward(
      std::span<const tensor::Tensor* const> inputs, tensor::Tensor& out, ForwardCtx& ctx) = 0;

  /// Backward pass for the last forward(). `grad` is dL/d(output); the layer
  /// may overwrite it (Dense turns it into dL/dz in place). Writes dL/d(input
  /// j) into `*dx[j]`, resized by the layer, and skips null entries: inputs
  /// nobody needs a gradient for. Parameter gradients are *accumulated* into
  /// Parameter::grad.
  virtual void backward(tensor::Tensor& grad, std::span<tensor::Tensor* const> dx) = 0;

  /// Trainable parameters (possibly shared with other layers). Default: none.
  [[nodiscard]] virtual std::vector<ParamPtr> parameters() const { return {}; }

  /// One-line human-readable description for model summaries.
  [[nodiscard]] virtual std::string describe() const { return kind(); }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Helper shared by single-input layers: validates arity.
const tensor::Tensor& single_input(std::span<const tensor::Tensor* const> inputs,
                                   const char* what);
const FeatShape& single_shape(std::span<const FeatShape> in, const char* what);

}  // namespace ncnas::nn
