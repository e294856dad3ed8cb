#include "ncnas/nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "ncnas/nn/init.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::nn {

using tensor::Shape;
using tensor::Tensor;

const tensor::Tensor& single_input(std::span<const tensor::Tensor* const> inputs,
                                   const char* what) {
  if (inputs.size() != 1 || inputs[0] == nullptr) {
    throw std::invalid_argument(std::string(what) + ": expects exactly one input, got " +
                                std::to_string(inputs.size()));
  }
  return *inputs[0];
}

const FeatShape& single_shape(std::span<const FeatShape> in, const char* what) {
  if (in.size() != 1) {
    throw std::invalid_argument(std::string(what) + ": expects exactly one input shape, got " +
                                std::to_string(in.size()));
  }
  return in[0];
}

const char* act_name(Act a) {
  switch (a) {
    case Act::kLinear: return "linear";
    case Act::kRelu: return "relu";
    case Act::kTanh: return "tanh";
    case Act::kSigmoid: return "sigmoid";
    case Act::kSoftmax: return "softmax";
  }
  return "?";
}

Tensor apply_act(Act a, const Tensor& z) {
  Tensor y = z;
  apply_act_inplace(a, y);
  return y;
}

void apply_act_inplace(Act a, Tensor& y) {
  float* py = y.data();
  const std::size_t size = y.size();
  switch (a) {
    case Act::kLinear:
      break;
    case Act::kRelu:
      for (std::size_t i = 0; i < size; ++i) py[i] = std::max(py[i], 0.0f);
      break;
    case Act::kTanh:
      for (std::size_t i = 0; i < size; ++i) py[i] = std::tanh(py[i]);
      break;
    case Act::kSigmoid:
      for (std::size_t i = 0; i < size; ++i) py[i] = 1.0f / (1.0f + std::exp(-py[i]));
      break;
    case Act::kSoftmax: {
      if (y.rank() != 2) throw std::invalid_argument("softmax: expects rank-2 logits");
      const std::size_t m = y.dim(0), n = y.dim(1);
      for (std::size_t i = 0; i < m; ++i) {
        float* row = py + i * n;
        const float mx = *std::max_element(row, row + n);
        float denom = 0.0f;
        for (std::size_t j = 0; j < n; ++j) {
          row[j] = std::exp(row[j] - mx);
          denom += row[j];
        }
        for (std::size_t j = 0; j < n; ++j) row[j] /= denom;
      }
      break;
    }
  }
}

void act_backward_inplace(Act a, Tensor& g, const Tensor& y) {
  float* pg = g.data();
  const float* py = y.data();
  const std::size_t size = g.size();
  switch (a) {
    case Act::kLinear:
      break;
    case Act::kRelu:
      for (std::size_t i = 0; i < size; ++i) {
        if (py[i] <= 0.0f) pg[i] = 0.0f;
      }
      break;
    case Act::kTanh:
      for (std::size_t i = 0; i < size; ++i) pg[i] *= 1.0f - py[i] * py[i];
      break;
    case Act::kSigmoid:
      for (std::size_t i = 0; i < size; ++i) pg[i] *= py[i] * (1.0f - py[i]);
      break;
    case Act::kSoftmax: {
      // dz_j = y_j * (dy_j - sum_k dy_k * y_k), per row.
      const std::size_t m = g.dim(0), n = g.dim(1);
      for (std::size_t i = 0; i < m; ++i) {
        const float* yr = py + i * n;
        float* gr = pg + i * n;
        float s = 0.0f;
        for (std::size_t j = 0; j < n; ++j) s += gr[j] * yr[j];
        for (std::size_t j = 0; j < n; ++j) gr[j] = yr[j] * (gr[j] - s);
      }
      break;
    }
  }
}

// --- Input ------------------------------------------------------------------

FeatShape Input::bind(std::span<const FeatShape> in) {
  if (!in.empty()) throw std::invalid_argument("input: takes no graph inputs");
  return shape_;
}

const Tensor& Input::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                             ForwardCtx&) {
  // The graph executor feeds the fed tensor as the sole "input". Copying it
  // into the slot frees callers from keeping their batch alive until
  // backward(), which reads it through the first layers' input pointers.
  tensor::copy_into(single_input(inputs, "input"), out);
  return out;
}

void Input::backward(Tensor&, std::span<Tensor* const>) {}

std::string Input::describe() const {
  return "input '" + name_ + "' " + tensor::to_string(shape_);
}

// --- Identity ---------------------------------------------------------------

FeatShape Identity::bind(std::span<const FeatShape> in) {
  return single_shape(in, "identity");
}

const Tensor& Identity::forward(std::span<const tensor::Tensor* const> inputs, Tensor&,
                                ForwardCtx&) {
  return single_input(inputs, "identity");
}

void Identity::backward(Tensor& grad, std::span<Tensor* const> dx) {
  if (dx[0] != nullptr) tensor::copy_into(grad, *dx[0]);
}

// --- Dense ------------------------------------------------------------------

Dense::Dense(std::size_t units, Act act, tensor::Rng& rng)
    : units_(units), act_(act), init_seed_(rng.next_u64()) {
  if (units == 0) throw std::invalid_argument("dense: units must be positive");
}

Dense::Dense(const Dense& donor, share_tag_t)
    : units_(donor.units_), act_(donor.act_), init_seed_(donor.init_seed_), w_(donor.w_),
      b_(donor.b_), shared_(true) {
  if (!w_) throw std::logic_error("clone_shared: dense donor is not bound to a graph yet");
}

FeatShape Dense::bind(std::span<const FeatShape> in) {
  const FeatShape& s = single_shape(in, "dense");
  if (s.size() != 1) {
    throw std::invalid_argument("dense: expects rank-1 features, got " + tensor::to_string(s));
  }
  const std::size_t in_dim = s[0];
  if (w_) {
    if (w_->value.dim(0) != in_dim) {
      throw std::invalid_argument("dense: input width " + std::to_string(in_dim) +
                                  " does not match weights of width " +
                                  std::to_string(w_->value.dim(0)));
    }
  } else {
    Tensor w({in_dim, units_});
    tensor::Rng rng(init_seed_);
    glorot_uniform(w, in_dim, units_, rng);
    w_ = std::make_shared<Parameter>("dense.w", std::move(w));
    b_ = std::make_shared<Parameter>("dense.b", Tensor({units_}));
  }
  return {units_};
}

const Tensor& Dense::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                             ForwardCtx&) {
  const Tensor& x = single_input(inputs, "dense");
  if (!w_) throw std::logic_error("dense: forward before bind");
  // gemm writes straight into the slot and the activation runs in place;
  // backward reads x and y through the pointers kept here.
  out.reset({x.dim(0), units_});
  tensor::gemm(x, w_->value, out);
  tensor::add_row_bias(out, b_->value);
  apply_act_inplace(act_, out);
  x_ = &x;
  y_ = &out;
  return out;
}

void Dense::backward(Tensor& grad, std::span<Tensor* const> dx) {
  // grad becomes dL/dz in place; then dW += X^T gz ; db += colsum(gz) ;
  // dX = gz W^T, skipped when nobody reads it.
  act_backward_inplace(act_, grad, *y_);
  const Tensor& x = *x_;
  dw_.reset({x.dim(1), units_});
  tensor::gemm_tn(x, grad, dw_);
  tensor::add_inplace(w_->grad, dw_);
  tensor::accumulate_col_sums(grad, b_->grad);
  if (dx[0] != nullptr) {
    dx[0]->reset({x.dim(0), x.dim(1)});
    tensor::gemm_nt(grad, w_->value, *dx[0]);
  }
}

std::vector<ParamPtr> Dense::parameters() const {
  if (!w_) return {};
  return {w_, b_};
}

std::string Dense::describe() const {
  std::ostringstream os;
  os << "dense(" << units_ << ", " << act_name(act_) << (shared_ ? ", shared" : "") << ")";
  return os.str();
}

// --- Activation ---------------------------------------------------------------

FeatShape Activation::bind(std::span<const FeatShape> in) {
  return single_shape(in, "activation");
}

const Tensor& Activation::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                                  ForwardCtx&) {
  tensor::copy_into(single_input(inputs, "activation"), out);
  apply_act_inplace(act_, out);
  y_ = &out;
  return out;
}

void Activation::backward(Tensor& grad, std::span<Tensor* const> dx) {
  if (dx[0] == nullptr) return;
  tensor::copy_into(grad, *dx[0]);
  act_backward_inplace(act_, *dx[0], *y_);
}

std::string Activation::describe() const {
  return std::string("activation(") + act_name(act_) + ")";
}

// --- Dropout ------------------------------------------------------------------

Dropout::Dropout(float rate) : rate_(rate) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("dropout: rate must be in [0, 1)");
  }
}

FeatShape Dropout::bind(std::span<const FeatShape> in) {
  return single_shape(in, "dropout");
}

const Tensor& Dropout::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                               ForwardCtx& ctx) {
  const Tensor& x = single_input(inputs, "dropout");
  if (!ctx.training || rate_ == 0.0f) {
    masked_ = false;
    return x;
  }
  if (ctx.rng == nullptr) {
    throw std::invalid_argument("dropout: training forward requires ForwardCtx::rng");
  }
  mask_.reset(x.shape());
  out.reset(x.shape());
  const float keep = 1.0f - rate_;
  const float inv_keep = 1.0f / keep;
  // uniform() < keep without the double: uniform() is u * 2^-53 for the
  // 53-bit draw u, so it is below keep exactly when u < ceil(keep * 2^53)
  // (keep * 2^53 is exact in a double).
  const auto threshold = static_cast<std::uint64_t>(std::ceil(keep * 0x1.0p53));
  float* pm = mask_.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    pm[i] = (ctx.rng->next_u64() >> 11) < threshold ? inv_keep : 0.0f;
  }
  const float* px = x.data();
  float* po = out.data();
  for (std::size_t i = 0; i < x.size(); ++i) po[i] = px[i] * pm[i];
  masked_ = true;
  return out;
}

void Dropout::backward(Tensor& grad, std::span<Tensor* const> dx) {
  if (dx[0] == nullptr) return;
  Tensor& g = *dx[0];
  if (!masked_) {
    tensor::copy_into(grad, g);
    return;
  }
  g.reset(grad.shape());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = grad[i] * mask_[i];
}

std::string Dropout::describe() const {
  std::ostringstream os;
  os << "dropout(" << rate_ << ")";
  return os.str();
}

// --- Conv1D -------------------------------------------------------------------

Conv1D::Conv1D(std::size_t filters, std::size_t kernel, tensor::Rng& rng)
    : filters_(filters), kernel_(kernel), init_seed_(rng.next_u64()) {
  if (filters == 0 || kernel == 0) {
    throw std::invalid_argument("conv1d: filters and kernel must be positive");
  }
}

Conv1D::Conv1D(const Conv1D& donor, share_tag_t)
    : filters_(donor.filters_), kernel_(donor.kernel_), init_seed_(donor.init_seed_),
      w_(donor.w_), b_(donor.b_), shared_(true) {
  if (!w_) throw std::logic_error("clone_shared: conv1d donor is not bound to a graph yet");
}

FeatShape Conv1D::bind(std::span<const FeatShape> in) {
  const FeatShape& s = single_shape(in, "conv1d");
  if (s.size() != 2) {
    throw std::invalid_argument("conv1d: expects [length, channels] features, got " +
                                tensor::to_string(s));
  }
  if (s[0] < kernel_) {
    throw std::invalid_argument("conv1d: input length " + std::to_string(s[0]) +
                                " shorter than kernel " + std::to_string(kernel_));
  }
  const std::size_t fan_in = kernel_ * s[1];
  if (w_) {
    if (w_->value.dim(0) != fan_in) {
      throw std::invalid_argument("conv1d: input channels do not match shared weights");
    }
  } else {
    Tensor w({fan_in, filters_});
    tensor::Rng rng(init_seed_);
    glorot_uniform(w, fan_in, filters_, rng);
    w_ = std::make_shared<Parameter>("conv1d.w", std::move(w));
    b_ = std::make_shared<Parameter>("conv1d.b", Tensor({filters_}));
  }
  return {s[0] - kernel_ + 1, filters_};
}

const Tensor& Conv1D::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                              ForwardCtx&) {
  const Tensor& x = single_input(inputs, "conv1d");
  if (x.rank() != 3) throw std::invalid_argument("conv1d: expects rank-3 batch input");
  const std::size_t batch = x.dim(0), len = x.dim(1), cin = x.dim(2);
  if (len < kernel_) throw std::invalid_argument("conv1d: input shorter than kernel");
  if (!w_) throw std::logic_error("conv1d: forward before bind");
  if (w_->value.dim(0) != kernel_ * cin) {
    throw std::invalid_argument("conv1d: input channels do not match bound weights");
  }
  x_ = &x;
  out.reset({batch, len - kernel_ + 1, filters_});
  tensor::conv1d(x, w_->value, b_->value, out);
  return out;
}

void Conv1D::backward(Tensor& grad, std::span<Tensor* const> dx) {
  const Tensor& x = *x_;
  const std::size_t batch = x.dim(0), len = x.dim(1), cin = x.dim(2);
  const std::size_t out_len = len - kernel_ + 1;
  tensor::conv1d_dw(x, grad, w_->grad);
  float* pdb = b_->grad.data();
  for (std::size_t r = 0; r < batch * out_len; ++r) {
    const float* grow = grad.data() + r * filters_;
    for (std::size_t f = 0; f < filters_; ++f) pdb[f] += grow[f];
  }
  if (dx[0] == nullptr) return;
  // Windows overlap, so dx accumulates from zero.
  dx[0]->reset(x.shape());
  dx[0]->zero();
  float* pdx = dx[0]->data();
  const float* pw = w_->value.data();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < out_len; ++p) {
      const float* grow = grad.data() + (b * out_len + p) * filters_;
      float* dxwin = pdx + (b * len + p) * cin;
      for (std::size_t t = 0; t < kernel_ * cin; ++t) {
        const float* wrow = pw + t * filters_;
        float acc = 0.0f;
        for (std::size_t f = 0; f < filters_; ++f) acc += wrow[f] * grow[f];
        dxwin[t] += acc;
      }
    }
  }
}

std::vector<ParamPtr> Conv1D::parameters() const {
  if (!w_) return {};
  return {w_, b_};
}

std::string Conv1D::describe() const {
  std::ostringstream os;
  os << "conv1d(" << filters_ << " filters, k=" << kernel_ << (shared_ ? ", shared" : "") << ")";
  return os.str();
}

// --- MaxPool1D ------------------------------------------------------------------

MaxPool1D::MaxPool1D(std::size_t size) : size_(size) {
  if (size == 0) throw std::invalid_argument("maxpool1d: size must be positive");
}

FeatShape MaxPool1D::bind(std::span<const FeatShape> in) {
  const FeatShape& s = single_shape(in, "maxpool1d");
  if (s.size() != 2) {
    throw std::invalid_argument("maxpool1d: expects [length, channels] features, got " +
                                tensor::to_string(s));
  }
  const std::size_t out_len = std::max<std::size_t>(1, s[0] / size_);
  return {out_len, s[1]};
}

const Tensor& MaxPool1D::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                                 ForwardCtx&) {
  const Tensor& x = single_input(inputs, "maxpool1d");
  if (x.rank() != 3) throw std::invalid_argument("maxpool1d: expects rank-3 batch input");
  const std::size_t batch = x.dim(0), len = x.dim(1), ch = x.dim(2);
  in_shape_ = x.shape();
  const std::size_t window = std::min(size_, len);
  const std::size_t out_len = std::max<std::size_t>(1, len / size_);
  out.reset({batch, out_len, ch});
  argmax_.resize(out.size());
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
        out[out_idx] = best;
        argmax_[out_idx] = best_idx;
      }
    }
  }
  return out;
}

void MaxPool1D::backward(Tensor& grad, std::span<Tensor* const> dx) {
  if (dx[0] == nullptr) return;
  Tensor& g = *dx[0];
  g.reset(in_shape_);
  g.zero();
  for (std::size_t i = 0; i < grad.size(); ++i) g[argmax_[i]] += grad[i];
}

std::string MaxPool1D::describe() const {
  std::ostringstream os;
  os << "maxpool1d(" << size_ << ")";
  return os.str();
}

// --- Flatten / Reshape1D ----------------------------------------------------------
// Both copy into their slot rather than alias their input: a Tensor owns its
// buffer, so one buffer cannot carry two shapes. The copy is a memcpy into
// reused capacity.

namespace {

/// dst = src's elements, after the caller reset dst to a shape of the same
/// element count.
void copy_elements(const Tensor& src, Tensor& dst) {
  std::copy(src.data(), src.data() + src.size(), dst.data());
}

}  // namespace

FeatShape Flatten::bind(std::span<const FeatShape> in) {
  const FeatShape& s = single_shape(in, "flatten");
  return {tensor::numel(s)};
}

const Tensor& Flatten::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                               ForwardCtx&) {
  const Tensor& x = single_input(inputs, "flatten");
  in_shape_ = x.shape();
  out.reset({x.dim(0), x.size() / x.dim(0)});
  copy_elements(x, out);
  return out;
}

void Flatten::backward(Tensor& grad, std::span<Tensor* const> dx) {
  if (dx[0] == nullptr) return;
  dx[0]->reset(in_shape_);
  copy_elements(grad, *dx[0]);
}

FeatShape Reshape1D::bind(std::span<const FeatShape> in) {
  const FeatShape& s = single_shape(in, "reshape1d");
  if (s.size() != 1) {
    throw std::invalid_argument("reshape1d: expects rank-1 features, got " + tensor::to_string(s));
  }
  return {s[0], 1};
}

const Tensor& Reshape1D::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                                 ForwardCtx&) {
  const Tensor& x = single_input(inputs, "reshape1d");
  in_shape_ = x.shape();
  out.reset({x.dim(0), x.dim(1), 1});
  copy_elements(x, out);
  return out;
}

void Reshape1D::backward(Tensor& grad, std::span<Tensor* const> dx) {
  if (dx[0] == nullptr) return;
  dx[0]->reset(in_shape_);
  copy_elements(grad, *dx[0]);
}

// --- Concat ---------------------------------------------------------------------

FeatShape Concat::bind(std::span<const FeatShape> in) {
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

namespace {

/// Records each input's width in `widths` and returns their total; throws
/// unless every input is rank-2 with the same batch size.
std::size_t feature_widths(std::span<const tensor::Tensor* const> inputs,
                           std::vector<std::size_t>& widths, const char* what) {
  if (inputs.empty()) {
    throw std::invalid_argument(std::string(what) + ": requires at least one input");
  }
  const std::size_t batch = inputs[0]->dim(0);
  widths.clear();
  std::size_t total = 0;
  for (const Tensor* t : inputs) {
    if (t->rank() != 2 || t->dim(0) != batch) {
      throw std::invalid_argument(std::string(what) +
                                  ": inputs must be rank-2 with equal batch size");
    }
    widths.push_back(t->dim(1));
    total += t->dim(1);
  }
  return total;
}

/// dx[j] = columns [offset_j, offset_j + widths[j]) of grad; `overlap` makes
/// every slice start at column 0 (Add), otherwise slices follow each other
/// (Concat).
void split_columns(const Tensor& grad, std::span<const std::size_t> widths, bool overlap,
                   std::span<Tensor* const> dx) {
  const std::size_t batch = grad.dim(0);
  const std::size_t total = grad.dim(1);
  std::size_t offset = 0;
  for (std::size_t j = 0; j < widths.size(); ++j) {
    const std::size_t w = widths[j];
    if (dx[j] != nullptr) {
      dx[j]->reset({batch, w});
      for (std::size_t b = 0; b < batch; ++b) {
        const float* src = grad.data() + b * total + offset;
        std::copy(src, src + w, dx[j]->data() + b * w);
      }
    }
    if (!overlap) offset += w;
  }
}

}  // namespace

const Tensor& Concat::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                              ForwardCtx&) {
  const std::size_t total = feature_widths(inputs, widths_, "concat");
  const std::size_t batch = inputs[0]->dim(0);
  out.reset({batch, total});
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = out.data() + b * total;
    for (const Tensor* t : inputs) {
      const std::size_t w = t->dim(1);
      const float* src = t->data() + b * w;
      std::copy(src, src + w, row);
      row += w;
    }
  }
  return out;
}

void Concat::backward(Tensor& grad, std::span<Tensor* const> dx) {
  split_columns(grad, widths_, /*overlap=*/false, dx);
}

// --- Add ------------------------------------------------------------------------

FeatShape Add::bind(std::span<const FeatShape> in) {
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

const Tensor& Add::forward(std::span<const tensor::Tensor* const> inputs, Tensor& out,
                           ForwardCtx&) {
  (void)feature_widths(inputs, widths_, "add");
  const std::size_t batch = inputs[0]->dim(0);
  const std::size_t widest = *std::max_element(widths_.begin(), widths_.end());
  out.reset({batch, widest});
  out.zero();
  for (const Tensor* t : inputs) {
    const std::size_t w = t->dim(1);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* src = t->data() + b * w;
      float* dst = out.data() + b * widest;
      for (std::size_t j = 0; j < w; ++j) dst[j] += src[j];
    }
  }
  return out;
}

void Add::backward(Tensor& grad, std::span<Tensor* const> dx) {
  split_columns(grad, widths_, /*overlap=*/true, dx);
}

// --- clone_shared ------------------------------------------------------------------

LayerPtr clone_shared(const Layer& layer) {
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

}  // namespace ncnas::nn
