// Graph — a DAG of layers with reverse-mode differentiation.
//
// Nodes are appended in topological order (every node's inputs must already
// exist), which matches how the search-space builder lowers an architecture:
// input layers first, then cells in order, then the final output rule.
// backward() walks the list in reverse and accumulates gradients into shared
// Parameters, so mirrored layers receive the sum of both branches' gradients
// — exactly the weight-sharing semantics of the paper's Combo drug-descriptor
// submodel.
//
// A node's per-sample shape is inferred, and its layer bound to its input
// shapes (creating any weights), when the node is added; the graph keeps the
// shapes and the parameter list from then on.
//
// Buffer plan. The first forward() after the graph changes starts with one
// pass over the nodes that records, per node, its input pointer list,
// whether it needs a gradient (it has parameters or an ancestor that has),
// whether backward reaches it from the output, and the order in which
// gradient contributions reach each node. Every node owns an output slot and a gradient slot that
// only grow; layers write into them and keep const pointers to their inputs
// instead of copies. A layer whose output is its input unchanged (Identity,
// Dropout outside training) aliases its input's slot, and when its gradient
// is the first to reach that input it accumulates straight into the input's
// gradient slot. At steady state forward() and backward() allocate nothing.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ncnas/nn/layer.hpp"

namespace ncnas::nn {

class Graph {
 public:
  /// Adds a named input placeholder; returns its node id. Inputs are fed to
  /// forward() in the order they were added.
  std::size_t add_input(std::string name, FeatShape shape);

  /// Adds a layer consuming the outputs of `inputs` (node ids < the new id):
  /// binds it to their shapes and records its output shape and parameters.
  /// Throws std::invalid_argument, leaving the graph unchanged, for a bad
  /// input id or inputs the layer rejects.
  std::size_t add(LayerPtr layer, std::vector<std::size_t> inputs);

  /// Marks the node whose output is the model prediction. Defaults to the
  /// last added node.
  void set_output(std::size_t node_id);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t input_count() const noexcept { return input_ids_.size(); }
  [[nodiscard]] std::size_t output_id() const noexcept { return output_id_; }
  [[nodiscard]] const Layer& layer(std::size_t node_id) const { return *nodes_.at(node_id).layer; }
  /// Ids of the nodes feeding `node_id`, in input order.
  [[nodiscard]] std::span<const std::size_t> node_inputs(std::size_t node_id) const {
    return nodes_.at(node_id).inputs;
  }

  /// Per-sample output shape of node `node_id`, inferred when it was added.
  [[nodiscard]] const FeatShape& shape(std::size_t node_id) const {
    return nodes_.at(node_id).shape;
  }
  /// Per-sample output shape of the full model.
  [[nodiscard]] const FeatShape& output_shape() const { return shape(output_id_); }

  /// Runs the model on a batch. `inputs[i]` feeds the i-th declared input and
  /// must carry the batch dimension first; the graph copies it into the
  /// input's slot, so it need not outlive the call. Returns the output node's
  /// slot, valid until the next forward() or change to the graph.
  [[nodiscard]] const tensor::Tensor& forward(std::span<const tensor::Tensor> inputs,
                                              ForwardCtx& ctx);

  /// Backpropagates dL/d(output), which must have the output's shape.
  /// Parameter gradients are accumulated (call zero_grad() between steps).
  /// Throws std::logic_error unless a forward() completed since the graph
  /// last changed.
  void backward(const tensor::Tensor& grad_output);

  /// All trainable parameters in node order, de-duplicated (shared weights
  /// appear once, at their first node).
  [[nodiscard]] const std::vector<ParamPtr>& parameters() const noexcept { return params_; }

  /// Number of trainable scalars — the paper's "trainable parameters" metric.
  [[nodiscard]] std::size_t param_count() const;

  void zero_grad();

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary() const;

 private:
  struct Node {
    LayerPtr layer;
    std::vector<std::size_t> inputs;
    FeatShape shape;        // per-sample output shape
    tensor::Tensor output;  // slot the layer writes its output into
    tensor::Tensor grad;    // slot dL/d(output) accumulates in
  };

  /// Everything forward()/backward() would otherwise recompute per step.
  /// Per-edge vectors are indexed by edge_begin[i] + j for input j of node i
  /// (an Input node has one edge: the fed tensor).
  struct Plan {
    bool ready = false;
    std::vector<std::size_t> feed;              // per node: fed-input position, or npos
    std::vector<std::size_t> edge_begin;        // per node, plus one past the end
    std::vector<const tensor::Tensor*> in;      // per edge: the input tensor
    std::vector<char> first;                    // per edge: first gradient to reach its source
    std::vector<const tensor::Tensor*> out;     // per node: own slot, or an aliased input
    std::vector<tensor::Tensor*> grad;          // per node: where its gradient accumulates
    std::vector<char> needs_grad;               // per node
    std::vector<std::size_t> backward_order;    // live nodes needing a gradient, descending
    std::vector<std::string> op_names;          // per node: "op/<kind>" profiler scope
    std::vector<tensor::Tensor*> dx;            // per input of one node: backward targets
    std::vector<tensor::Tensor> scratch;        // per input of one node: later contributions
  };

  void invalidate() noexcept;
  void build_plan();

  std::vector<Node> nodes_;
  std::vector<std::size_t> input_ids_;
  std::size_t output_id_ = 0;
  std::vector<ParamPtr> params_;
  Plan plan_;
  bool forwarded_ = false;  // a forward() completed since the graph last changed
};

}  // namespace ncnas::nn
