#include "ncnas/nn/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "ncnas/nn/layers.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::nn {

using tensor::Tensor;

namespace {
constexpr std::size_t npos = static_cast<std::size_t>(-1);
}  // namespace

std::size_t Graph::add_input(std::string name, FeatShape shape) {
  const std::size_t id = add(std::make_unique<Input>(std::move(name), std::move(shape)), {});
  input_ids_.push_back(id);
  return id;
}

std::size_t Graph::add(LayerPtr layer, std::vector<std::size_t> inputs) {
  if (layer == nullptr) throw std::invalid_argument("Graph::add: null layer");
  const std::size_t id = nodes_.size();
  std::vector<FeatShape> in;
  in.reserve(inputs.size());
  for (std::size_t src : inputs) {
    if (src >= id) {
      throw std::invalid_argument("Graph::add: input id " + std::to_string(src) +
                                  " is not an existing node (topological order required)");
    }
    in.push_back(nodes_[src].shape);
  }
  Node node;
  node.shape = layer->bind(in);
  const std::vector<ParamPtr> ps = layer->parameters();
  node.layer = std::move(layer);
  node.inputs = std::move(inputs);
  nodes_.push_back(std::move(node));
  for (const ParamPtr& p : ps) {
    if (std::ranges::find(params_, p) == params_.end()) params_.push_back(p);
  }
  output_id_ = id;
  invalidate();
  return id;
}

void Graph::set_output(std::size_t node_id) {
  if (node_id >= nodes_.size()) throw std::invalid_argument("Graph::set_output: bad node id");
  output_id_ = node_id;
  invalidate();
}

void Graph::invalidate() noexcept {
  // Adding a node may move every slot, so no pointer the layers or the plan
  // hold survives a change.
  plan_.ready = false;
  forwarded_ = false;
}

void Graph::build_plan() {
  const std::size_t n = nodes_.size();
  Plan& p = plan_;
  p.feed.assign(n, npos);
  for (std::size_t pos = 0; pos < input_ids_.size(); ++pos) p.feed[input_ids_[pos]] = pos;
  p.edge_begin.assign(n + 1, 0);
  std::size_t max_fan_in = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t edges = p.feed[i] != npos ? 1 : nodes_[i].inputs.size();
    p.edge_begin[i + 1] = p.edge_begin[i] + edges;
    max_fan_in = std::max(max_fan_in, nodes_[i].inputs.size());
  }
  p.in.assign(p.edge_begin[n], nullptr);
  p.out.assign(n, nullptr);
  p.op_names.resize(n);
  for (std::size_t i = 0; i < n; ++i) p.op_names[i] = "op/" + nodes_[i].layer->kind();
  p.dx.assign(max_fan_in, nullptr);
  p.scratch.resize(max_fan_in);
  p.needs_grad.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    bool needs = !nodes_[i].layer->parameters().empty();
    for (std::size_t src : nodes_[i].inputs) needs = needs || p.needs_grad[src] != 0;
    p.needs_grad[i] = needs ? 1 : 0;
  }
  // Backward visits the ancestors of the output that need a gradient, in
  // descending id order; a node's consumers always come after it, so all of
  // them have run by the time it does.
  std::vector<char> live(n, 0);
  live[output_id_] = 1;
  p.backward_order.clear();
  for (std::size_t i = n; i-- > 0;) {
    if (live[i] == 0) continue;
    for (std::size_t src : nodes_[i].inputs) live[src] = 1;
    if (p.needs_grad[i] != 0) p.backward_order.push_back(i);
  }
  // The first contribution to reach a node overwrites its gradient slot;
  // later ones are added to it, in visiting order.
  p.first.assign(p.edge_begin[n], 0);
  std::vector<char> reached(n, 0);
  for (std::size_t i : p.backward_order) {
    const std::vector<std::size_t>& inputs = nodes_[i].inputs;
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (p.needs_grad[inputs[j]] == 0) continue;
      p.first[p.edge_begin[i] + j] = reached[inputs[j]] == 0 ? 1 : 0;
      reached[inputs[j]] = 1;
    }
  }
  p.grad.assign(n, nullptr);
  p.ready = true;
}

const Tensor& Graph::forward(std::span<const Tensor> inputs, ForwardCtx& ctx) {
  if (inputs.size() != input_ids_.size()) {
    throw std::invalid_argument("Graph::forward: expected " + std::to_string(input_ids_.size()) +
                                " inputs, got " + std::to_string(inputs.size()));
  }
  NCNAS_PROF_SCOPE("graph/forward");
  forwarded_ = false;
  if (!plan_.ready) build_plan();
  Plan& p = plan_;
  const bool profiled = obs::profiling_enabled();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    obs::ProfileScope op_scope(profiled ? std::string_view(p.op_names[i]) : std::string_view());
    const Tensor** in = p.in.data() + p.edge_begin[i];
    const std::size_t edges = p.edge_begin[i + 1] - p.edge_begin[i];
    if (p.feed[i] != npos) {
      // Feed the externally supplied tensor for this input's position.
      const Tensor& fed = inputs[p.feed[i]];
      const FeatShape& fs = static_cast<const Input&>(*node.layer).feat_shape();
      bool ok = fed.rank() == fs.size() + 1;
      for (std::size_t d = 0; ok && d < fs.size(); ++d) ok = fed.dim(d + 1) == fs[d];
      if (!ok) {
        tensor::Shape expected{fed.rank() == 0 ? 0 : fed.dim(0)};
        expected.insert(expected.end(), fs.begin(), fs.end());
        fed.require_shape(expected, "Graph::forward input");
      }
      in[0] = &fed;
    } else {
      for (std::size_t j = 0; j < edges; ++j) in[j] = p.out[node.inputs[j]];
    }
    p.out[i] = &node.layer->forward(std::span<const Tensor* const>(in, edges), node.output, ctx);
    if (p.out[i] != &node.output && (p.feed[i] != npos || p.out[i] != in[0])) {
      throw std::logic_error("Graph::forward: layer '" + node.layer->kind() +
                             "' returned neither its slot nor its first input");
    }
  }
  forwarded_ = true;
  return *p.out[output_id_];
}

void Graph::backward(const Tensor& grad_output) {
  if (!forwarded_) {
    throw std::logic_error("Graph::backward: no forward() since the graph was built or changed");
  }
  NCNAS_PROF_SCOPE("graph/backward");
  Plan& p = plan_;
  grad_output.require_shape(p.out[output_id_]->shape(), "Graph::backward grad_output");
  if (p.needs_grad[output_id_] == 0) return;
  // Gradient routing for this step's aliases: a node whose forward returned
  // its input unchanged has dL/dinput == dL/doutput, so when it is the first
  // to reach that input it accumulates in the input's slot directly.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    p.grad[i] = &node.grad;
    if (p.out[i] != &node.output && p.first[p.edge_begin[i]] != 0) {
      p.grad[i] = p.grad[node.inputs[0]];
    }
  }
  tensor::copy_into(grad_output, *p.grad[output_id_]);

  const bool profiled = obs::profiling_enabled();
  for (std::size_t i : p.backward_order) {
    Node& node = nodes_[i];
    obs::ProfileScope op_scope(profiled ? std::string_view(p.op_names[i]) : std::string_view());
    const std::size_t base = p.edge_begin[i];
    if (p.out[i] != &node.output) {
      if (p.first[base] == 0) tensor::add_inplace(*p.grad[node.inputs[0]], *p.grad[i]);
      continue;
    }
    const std::size_t fan_in = node.inputs.size();
    for (std::size_t j = 0; j < fan_in; ++j) {
      const std::size_t src = node.inputs[j];
      p.dx[j] = p.needs_grad[src] == 0 ? nullptr
                : p.first[base + j] != 0 ? p.grad[src]
                                         : &p.scratch[j];
    }
    node.layer->backward(*p.grad[i], std::span<Tensor* const>(p.dx.data(), fan_in));
    for (std::size_t j = 0; j < fan_in; ++j) {
      if (p.dx[j] == &p.scratch[j]) tensor::add_inplace(*p.grad[node.inputs[j]], p.scratch[j]);
    }
  }
}

std::size_t Graph::param_count() const {
  std::size_t total = 0;
  for (const ParamPtr& p : parameters()) total += p->size();
  return total;
}

void Graph::zero_grad() {
  for (const ParamPtr& p : parameters()) p->zero_grad();
}

std::string Graph::summary() const {
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

}  // namespace ncnas::nn
