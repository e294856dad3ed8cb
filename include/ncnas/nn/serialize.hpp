// Weight serialization. An ncnas model is fully described by (search space,
// architecture encoding, init seed) plus its trained weights; these helpers
// persist the weights so a discovered architecture can be shipped — rebuild
// the graph with space::build_model, then load_weights().
//
// Format: a small text header (magic, parameter count) followed by one
// record per parameter: name, shape, and the float values in row-major
// order. Text keeps the files diffable and portable; the models this library
// trains are small enough (<1 M parameters) that compactness is moot.
#pragma once

#include <string>

#include "ncnas/nn/graph.hpp"

namespace ncnas::nn {

/// Writes every unique parameter of `graph` to `path`, in parameters()
/// order; throws std::runtime_error on I/O failure.
void save_weights(const Graph& graph, const std::string& path);

/// Loads weights saved by save_weights into `graph`. The graph must have the
/// same parameter structure (same architecture and input widths);
/// mismatched counts or shapes throw std::invalid_argument.
void load_weights(Graph& graph, const std::string& path);

}  // namespace ncnas::nn
