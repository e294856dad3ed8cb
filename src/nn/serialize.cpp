#include "ncnas/nn/serialize.hpp"

#include <fstream>
#include <stdexcept>

namespace ncnas::nn {

namespace {
constexpr const char* kMagic = "ncnas-weights-v1";
}

void save_weights(const Graph& graph, const std::string& path) {
  const std::vector<ParamPtr> params = graph.parameters();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_weights: cannot open " + path);
  out << kMagic << '\n' << params.size() << '\n';
  out.precision(9);
  for (const ParamPtr& p : params) {
    out << p->name << '\n' << p->value.rank();
    for (std::size_t d = 0; d < p->value.rank(); ++d) out << ' ' << p->value.dim(d);
    out << '\n';
    const auto flat = p->value.flat();
    for (std::size_t i = 0; i < flat.size(); ++i) {
      out << flat[i] << (i + 1 == flat.size() ? '\n' : ' ');
    }
  }
  if (!out) throw std::runtime_error("save_weights: write failed for " + path);
}

void load_weights(Graph& graph, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_weights: cannot open " + path);
  std::string magic;
  std::getline(in, magic);
  if (magic != kMagic) throw std::invalid_argument("load_weights: bad magic in " + path);
  std::size_t count = 0;
  in >> count;
  const std::vector<ParamPtr> params = graph.parameters();
  if (count != params.size()) {
    throw std::invalid_argument("load_weights: file has " + std::to_string(count) +
                                " parameters, graph has " + std::to_string(params.size()) +
                                " (is it the same architecture?)");
  }
  in >> std::ws;
  for (const ParamPtr& p : params) {
    std::string name;
    std::getline(in, name);
    std::size_t rank = 0;
    in >> rank;
    tensor::Shape shape(rank);
    for (std::size_t d = 0; d < rank; ++d) in >> shape[d];
    if (shape != p->value.shape()) {
      throw std::invalid_argument("load_weights: shape mismatch for '" + p->name +
                                  "': file " + tensor::to_string(shape) + " vs graph " +
                                  tensor::to_string(p->value.shape()));
    }
    for (float& v : p->value.flat()) in >> v;
    in >> std::ws;
  }
  if (!in) throw std::invalid_argument("load_weights: truncated file " + path);
}

}  // namespace ncnas::nn
