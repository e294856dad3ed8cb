// LayerHarness — runs one nn::Layer outside a graph, for the layer tests.
//
// A layer writes its output into a slot its caller owns, reads its inputs
// through pointers until backward(), and writes input gradients into buffers
// its caller owns. The harness owns the slot and the gradient buffers, the
// way nn::Graph does, and binds the layer to its inputs' per-sample shapes
// on its first forward, as nn::Graph::add does; the test owns the inputs.
#pragma once

#include <span>
#include <vector>

#include "ncnas/nn/layer.hpp"

namespace ncnas::testing {

class LayerHarness {
 public:
  explicit LayerHarness(nn::Layer& layer) : layer_(layer) {}

  /// Runs the layer; `inputs` must stay alive until backward() returns.
  const tensor::Tensor& forward(std::span<const tensor::Tensor* const> inputs,
                                nn::ForwardCtx& ctx) {
    if (!bound_) {
      std::vector<nn::FeatShape> shapes;
      for (const tensor::Tensor* x : inputs) {
        shapes.emplace_back(x->shape().begin() + 1, x->shape().end());
      }
      (void)layer_.bind(shapes);
      bound_ = true;
    }
    arity_ = inputs.size();
    return layer_.forward(inputs, out_, ctx);
  }

  /// dL/d(input j) of the last forward for every input j, given dL/d(output).
  std::vector<tensor::Tensor> backward(tensor::Tensor grad) {
    std::vector<tensor::Tensor> dx(arity_);
    std::vector<tensor::Tensor*> targets;
    for (tensor::Tensor& t : dx) targets.push_back(&t);
    layer_.backward(grad, targets);
    return dx;
  }

 private:
  nn::Layer& layer_;
  tensor::Tensor out_;
  std::size_t arity_ = 0;
  bool bound_ = false;
};

}  // namespace ncnas::testing
