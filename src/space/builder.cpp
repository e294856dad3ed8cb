#include "ncnas/space/builder.hpp"

#include <map>
#include <stdexcept>

#include "ncnas/nn/layers.hpp"

namespace ncnas::space {


namespace {

/// The graph under construction and where each structure element landed in it.
struct BuildState {
  nn::Graph g;
  std::vector<std::size_t> input_ids;            // per structure input
  std::vector<std::size_t> cell_out;             // per built cell
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t> node_out;
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t> node_layer;

  /// Feature vector view of `id`: flattens feature maps.
  std::size_t to_rank1(std::size_t id) {
    if (g.shape(id).size() == 1) return id;
    return g.add(std::make_unique<nn::Flatten>(), {id});
  }

  /// Feature map view of `id`: lifts vectors to single-channel sequences.
  std::size_t to_seq(std::size_t id) {
    if (g.shape(id).size() == 2) return id;
    return g.add(std::make_unique<nn::Reshape1D>(), {id});
  }

  std::size_t resolve(const SkipRef& ref) const {
    switch (ref.kind) {
      case SkipRef::Kind::kInput:
        return input_ids.at(ref.input);
      case SkipRef::Kind::kCellOutput:
        return cell_out.at(ref.cell);
      case SkipRef::Kind::kNodeOutput:
        return node_out.at({ref.cell, ref.block, ref.node});
    }
    throw std::logic_error("resolve: bad SkipRef kind");
  }
};

/// Applies one operation to the running block tensor; returns the new graph
/// node id and records the op's own layer id for mirroring.
struct OpApplier {
  BuildState& st;
  std::size_t current;
  tensor::Rng& rng;
  std::size_t op_layer_id = SIZE_MAX;  // graph node of the op's layer

  std::size_t operator()(const IdentityOp&) {
    op_layer_id = st.g.add(std::make_unique<nn::Identity>(), {current});
    return op_layer_id;
  }
  std::size_t operator()(const DenseOp& op) {
    const std::size_t src = st.to_rank1(current);
    op_layer_id = st.g.add(std::make_unique<nn::Dense>(op.units, op.act, rng), {src});
    return op_layer_id;
  }
  std::size_t operator()(const DropoutOp& op) {
    op_layer_id = st.g.add(std::make_unique<nn::Dropout>(op.rate), {current});
    return op_layer_id;
  }
  std::size_t operator()(const Conv1DOp& op) {
    const std::size_t src = st.to_seq(current);
    if (st.g.shape(src)[0] < op.kernel) {
      // Feature map shrank below the kernel: degrade gracefully to Identity,
      // as an over-pooled Keras model would simply be an invalid sample.
      op_layer_id = st.g.add(std::make_unique<nn::Identity>(), {src});
      return op_layer_id;
    }
    op_layer_id = st.g.add(std::make_unique<nn::Conv1D>(op.filters, op.kernel, rng), {src});
    return op_layer_id;
  }
  std::size_t operator()(const MaxPool1DOp& op) {
    const std::size_t src = st.to_seq(current);
    op_layer_id = st.g.add(std::make_unique<nn::MaxPool1D>(op.size), {src});
    return op_layer_id;
  }
  std::size_t operator()(const ActivationOp& op) {
    op_layer_id = st.g.add(std::make_unique<nn::Activation>(op.act), {current});
    return op_layer_id;
  }
  std::size_t operator()(const ConnectOp& op) {
    // A Connect node *selects* earlier tensors to splice into the cell
    // output (DeepHyper semantics): its output is the concatenation of the
    // selected sources only. The Null option (empty refs) contributes
    // nothing — signalled with SIZE_MAX and handled by the block loop.
    // Passing the sequential input through as well would compound cell
    // widths geometrically across replicated cells.
    if (op.refs.empty()) {
      op_layer_id = SIZE_MAX;
      return SIZE_MAX;
    }
    if (op.refs.size() == 1) {
      op_layer_id = st.g.add(std::make_unique<nn::Identity>(), {st.resolve(op.refs[0])});
      return op_layer_id;
    }
    std::vector<std::size_t> ids;
    ids.reserve(op.refs.size());
    for (const SkipRef& ref : op.refs) ids.push_back(st.to_rank1(st.resolve(ref)));
    op_layer_id = st.g.add(std::make_unique<nn::Concat>(), std::move(ids));
    return op_layer_id;
  }
  std::size_t operator()(const AddOp& op) {
    if (op.refs.empty()) {
      op_layer_id = st.g.add(std::make_unique<nn::Identity>(), {current});
      return op_layer_id;
    }
    std::vector<std::size_t> ids{st.to_rank1(current)};
    for (const SkipRef& ref : op.refs) ids.push_back(st.to_rank1(st.resolve(ref)));
    op_layer_id = st.g.add(std::make_unique<nn::Add>(), std::move(ids));
    return op_layer_id;
  }
};

}  // namespace

nn::Graph build_model(const SearchSpace& space, const ArchEncoding& arch,
                      std::span<const std::size_t> input_dims, TaskHead head,
                      tensor::Rng& rng) {
  space.require_valid(arch);
  const Structure& s = space.structure();
  if (input_dims.size() != s.input_names.size()) {
    throw std::invalid_argument("build_model: expected " +
                                std::to_string(s.input_names.size()) + " input dims, got " +
                                std::to_string(input_dims.size()));
  }

  BuildState st;
  for (std::size_t p = 0; p < input_dims.size(); ++p) {
    st.input_ids.push_back(st.g.add_input(s.input_names[p], {input_dims[p]}));
  }

  std::size_t decision = 0;
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    const Cell& cell = s.cells[c];
    std::vector<std::size_t> block_outs;
    for (std::size_t b = 0; b < cell.blocks.size(); ++b) {
      const Block& block = cell.blocks[b];
      std::size_t current = st.resolve(block.input);
      bool contributes = true;
      for (std::size_t n = 0; n < block.nodes.size(); ++n) {
        const NodeSpec& spec = block.nodes[n];
        if (std::holds_alternative<MirrorNode>(spec)) {
          const auto& mirror = std::get<MirrorNode>(spec);
          const std::size_t donor_layer =
              st.node_layer.at({mirror.cell, mirror.block, mirror.node});
          const nn::Layer& donor = st.g.layer(donor_layer);
          // Match the donor's expected input rank before attaching the clone.
          if (donor.kind() == "dense") current = st.to_rank1(current);
          if (donor.kind() == "conv1d") current = st.to_seq(current);
          current = st.g.add(nn::clone_shared(donor), {current});
          st.node_layer[{c, b, n}] = current;
        } else {
          const Op* op = nullptr;
          if (const auto* var = std::get_if<VariableNode>(&spec)) {
            op = &var->options.at(arch.at(decision));
            ++decision;
          } else {
            op = &std::get<ConstantNode>(spec).op;
          }
          OpApplier apply{st, current, rng};
          const std::size_t next = std::visit(apply, *op);
          if (next == SIZE_MAX) {
            // Null Connect: this block contributes nothing to the cell.
            contributes = false;
            break;
          }
          current = next;
          st.node_layer[{c, b, n}] = apply.op_layer_id;
        }
        st.node_out[{c, b, n}] = current;
      }
      if (contributes) block_outs.push_back(current);
    }
    std::size_t out;
    if (block_outs.empty()) {
      // Every block opted out (all-Null connects): the cell passes its first
      // block's input through unchanged.
      out = st.resolve(cell.blocks.front().input);
    } else if (block_outs.size() == 1) {
      out = block_outs[0];
    } else {
      std::vector<std::size_t> flat;
      flat.reserve(block_outs.size());
      for (std::size_t id : block_outs) flat.push_back(st.to_rank1(id));
      out = st.g.add(std::make_unique<nn::Concat>(), std::move(flat));
    }
    st.cell_out.push_back(out);
  }

  // Structure output rule.
  std::vector<std::size_t> outs = s.output_cells;
  if (outs.empty()) outs.push_back(s.cells.size() - 1);
  std::size_t model_out;
  if (outs.size() == 1) {
    model_out = st.cell_out.at(outs[0]);
  } else {
    std::vector<std::size_t> flat;
    flat.reserve(outs.size());
    for (std::size_t c : outs) flat.push_back(st.to_rank1(st.cell_out.at(c)));
    model_out = st.g.add(std::make_unique<nn::Concat>(), std::move(flat));
  }

  // Task head (outside the search space, as in the paper).
  model_out = st.to_rank1(model_out);
  if (head.kind == TaskHead::Kind::kRegression) {
    model_out = st.g.add(std::make_unique<nn::Dense>(1, nn::Act::kLinear, rng), {model_out});
  } else {
    model_out =
        st.g.add(std::make_unique<nn::Dense>(head.classes, nn::Act::kSoftmax, rng), {model_out});
  }
  st.g.set_output(model_out);
  return std::move(st.g);
}

}  // namespace ncnas::space
