// LstmCell — a single-layer LSTM with explicit backpropagation through time.
//
// The paper's policy and value networks are "a single-layer LSTM with 32
// units". The RL controller runs this cell over one sequence per update (one
// step per variable node of the search space), so the cell's API is a
// sequence API over a caller-owned LstmWorkspace:
//
//   begin(ws, batch, steps);            // size the workspace, zero the state
//   ...fill ws.input(t) for every t...
//   forward(ws);                         // all steps; or forward_step(ws, t)
//   backward(ws, add_head_grad);         // BPTT over all steps
//
// forward() projects every step's input in one product before the
// recurrence; forward_step() runs a single step and is for autoregressive
// decoding, where input t+1 depends on output t. Both record the same
// activations bit for bit. backward() keeps only the serial recurrence inside
// its loop over t = T-1..0; the weight gradients and dL/dx are computed once
// after it, each element still in the order the per-step loop would add it.
#pragma once

#include <cstddef>
#include <vector>

#include "ncnas/nn/parameter.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/rng.hpp"

namespace ncnas::nn {

/// Grows `buf` to at least `n` elements and never shrinks it. A growth counts
/// as one profiler allocation, like a Tensor::reset() that grows.
template <class T>
void grow_buffer(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) {
    buf.resize(n);
    obs::profile_alloc(n * sizeof(T));
  }
}

/// One sequence pass of an LstmCell: inputs, the activations BPTT reads, and
/// the backward scratch. Buffers are time-major — row b of step t in a
/// [T, B, n] buffer starts at (t*B + b)*n — and only ever grow, so after the
/// first pass at a given size a pass allocates nothing.
struct LstmWorkspace {
  std::size_t batch = 0;
  std::size_t steps = 0;
  std::size_t input_dim = 0;
  std::size_t hidden_dim = 0;
  std::size_t recorded = 0;  ///< steps the forward pass has run so far

  std::vector<float> x;       ///< [T, B, in]    inputs, written by the caller
  std::vector<float> h;       ///< [T+1, B, H]   h[0] = 0; h[t+1] is step t's output
  std::vector<float> c;       ///< [T+1, B, H]   cell state, indexed like h
  std::vector<float> gates;   ///< [T, B, 4H]    x Wx, then the activations i, f, g, o
  std::vector<float> tanh_c;  ///< [T, B, H]
  std::vector<float> zh;      ///< [B, 4H]       h_{t-1} Wh of the current step
  std::vector<float> dh;      ///< [B, H]        dL/dh_t carried back through time
  std::vector<float> dc;      ///< [B, H]        dL/dc_t carried back through time
  std::vector<float> dz;      ///< [T, B, 4H]    dL/d(pre-activation gates)
  std::vector<float> dx;      ///< [T, B, in]    dL/dx, written by backward()
  std::vector<float> wx_t;    ///< [4H, in]      Wx transposed, for dx = dz Wx^T
  std::vector<float> wh_t;    ///< [4H, H]       Wh transposed, for dh = dz Wh^T

  [[nodiscard]] float* input(std::size_t t) { return x.data() + t * batch * input_dim; }
  /// Step t's output h_t, [B, H].
  [[nodiscard]] const float* output(std::size_t t) const {
    return h.data() + (t + 1) * batch * hidden_dim;
  }
  /// dL/dx of step t, [B, in] (after backward()).
  [[nodiscard]] const float* input_grad(std::size_t t) const {
    return dx.data() + t * batch * input_dim;
  }
};

class LstmCell {
 public:
  LstmCell(std::size_t input_dim, std::size_t hidden_dim, tensor::Rng& rng);

  [[nodiscard]] std::size_t input_dim() const noexcept { return input_dim_; }
  [[nodiscard]] std::size_t hidden_dim() const noexcept { return hidden_dim_; }

  /// Sizes `ws` for `steps` steps over `batch` rows and zeroes the initial
  /// state. Input contents are left as they were.
  void begin(LstmWorkspace& ws, std::size_t batch, std::size_t steps) const;

  /// Runs every step; all inputs must be written.
  void forward(LstmWorkspace& ws) const;

  /// Runs step t alone: input t must be written, and t must be the next step
  /// (throws std::logic_error otherwise).
  void forward_step(LstmWorkspace& ws, std::size_t t) const;

  /// BPTT over the steps of the forward pass, which must have run every
  /// step (throws std::logic_error otherwise). For t = T-1 down to 0 it
  /// calls add_head_grad(t, dh), where dh ([B, H]) holds dL/dh_t carried
  /// back from step t+1; the callee adds the loss's direct gradient at step t
  /// in place. Accumulates the parameter gradients and writes ws.dx.
  template <class HeadGrad>
  void backward(LstmWorkspace& ws, HeadGrad&& add_head_grad) {
    bptt_begin(ws);
    for (std::size_t t = ws.steps; t-- > 0;) {
      add_head_grad(t, ws.dh.data());
      bptt_step(ws, t);
    }
    bptt_end(ws);
  }

  [[nodiscard]] std::vector<ParamPtr> parameters() const { return {wx_, wh_, b_}; }

 private:
  /// h_{t-1} Wh + b onto the projected input of step t, then the gates.
  void recur(LstmWorkspace& ws, std::size_t t) const;
  void bptt_begin(LstmWorkspace& ws) const;
  void bptt_step(LstmWorkspace& ws, std::size_t t) const;
  void bptt_end(LstmWorkspace& ws);

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  ParamPtr wx_;  // [input, 4*hidden]   gate order: i, f, g, o
  ParamPtr wh_;  // [hidden, 4*hidden]
  ParamPtr b_;   // [4*hidden]
};

}  // namespace ncnas::nn
