#include "ncnas/nn/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ncnas/nn/init.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::nn {

using tensor::Tensor;

namespace {

float sigmoidf(float v) { return 1.0f / (1.0f + std::exp(-v)); }

/// dst(cols, rows) = src(rows, cols)^T.
void transpose(const float* src, std::size_t rows, std::size_t cols, float* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

}  // namespace

LstmCell::LstmCell(std::size_t input_dim, std::size_t hidden_dim, tensor::Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("LstmCell: dims must be positive");
  }
  Tensor wx({input_dim, 4 * hidden_dim});
  glorot_uniform(wx, input_dim, 4 * hidden_dim, rng);
  Tensor wh({hidden_dim, 4 * hidden_dim});
  scaled_normal(wh, 1.0f / std::sqrt(static_cast<float>(hidden_dim)), rng);
  Tensor b({4 * hidden_dim});
  // Forget-gate bias 1.0: the standard trick for gradient flow early on.
  for (std::size_t j = hidden_dim; j < 2 * hidden_dim; ++j) b[j] = 1.0f;
  wx_ = std::make_shared<Parameter>("lstm.wx", std::move(wx));
  wh_ = std::make_shared<Parameter>("lstm.wh", std::move(wh));
  b_ = std::make_shared<Parameter>("lstm.b", std::move(b));
}

void LstmCell::begin(LstmWorkspace& ws, std::size_t batch, std::size_t steps) const {
  const std::size_t H = hidden_dim_;
  ws.batch = batch;
  ws.steps = steps;
  ws.input_dim = input_dim_;
  ws.hidden_dim = H;
  ws.recorded = 0;
  grow_buffer(ws.x, steps * batch * input_dim_);
  grow_buffer(ws.h, (steps + 1) * batch * H);
  grow_buffer(ws.c, (steps + 1) * batch * H);
  grow_buffer(ws.gates, steps * batch * 4 * H);
  grow_buffer(ws.tanh_c, steps * batch * H);
  grow_buffer(ws.zh, batch * 4 * H);
  std::fill_n(ws.h.data(), batch * H, 0.0f);
  std::fill_n(ws.c.data(), batch * H, 0.0f);
}

void LstmCell::forward(LstmWorkspace& ws) const {
  // The input projection does not depend on the recurrence: one product
  // covers every step (each element is still its own chain over k).
  tensor::gemm_rows(ws.x.data(), wx_->value.data(), ws.gates.data(), ws.steps * ws.batch,
                    input_dim_, 4 * hidden_dim_);
  for (std::size_t t = 0; t < ws.steps; ++t) recur(ws, t);
  ws.recorded = ws.steps;
}

void LstmCell::forward_step(LstmWorkspace& ws, std::size_t t) const {
  if (t != ws.recorded || t >= ws.steps) {
    throw std::logic_error("LstmCell::forward_step: steps must run in order");
  }
  const std::size_t B = ws.batch;
  tensor::gemm_rows(ws.input(t), wx_->value.data(), ws.gates.data() + t * B * 4 * hidden_dim_,
                    B, input_dim_, 4 * hidden_dim_);
  recur(ws, t);
  ws.recorded = t + 1;
}

void LstmCell::recur(LstmWorkspace& ws, std::size_t t) const {
  const std::size_t B = ws.batch;
  const std::size_t H = hidden_dim_;
  // z = (x Wx + h_prev Wh) + b, rounded in that order; then the gates
  // overwrite z in place.
  tensor::gemm_rows(ws.h.data() + t * B * H, wh_->value.data(), ws.zh.data(), B, H, 4 * H);
  const float* bias = b_->value.data();
  for (std::size_t r = 0; r < B; ++r) {
    float* z = ws.gates.data() + (t * B + r) * 4 * H;
    const float* zh = ws.zh.data() + r * 4 * H;
    const float* c_prev = ws.c.data() + (t * B + r) * H;
    float* c_new = ws.c.data() + ((t + 1) * B + r) * H;
    float* h_new = ws.h.data() + ((t + 1) * B + r) * H;
    float* tanh_c = ws.tanh_c.data() + (t * B + r) * H;
    for (std::size_t j = 0; j < H; ++j) {
      const float iv = sigmoidf(z[j] + zh[j] + bias[j]);
      const float fv = sigmoidf(z[H + j] + zh[H + j] + bias[H + j]);
      const float gv = std::tanh(z[2 * H + j] + zh[2 * H + j] + bias[2 * H + j]);
      const float ov = sigmoidf(z[3 * H + j] + zh[3 * H + j] + bias[3 * H + j]);
      const float cv = fv * c_prev[j] + iv * gv;
      const float tc = std::tanh(cv);
      z[j] = iv;
      z[H + j] = fv;
      z[2 * H + j] = gv;
      z[3 * H + j] = ov;
      c_new[j] = cv;
      tanh_c[j] = tc;
      h_new[j] = ov * tc;
    }
  }
}

void LstmCell::bptt_begin(LstmWorkspace& ws) const {
  if (ws.steps == 0 || ws.recorded != ws.steps) {
    throw std::logic_error("LstmCell::backward: the forward pass has not run every step");
  }
  const std::size_t B = ws.batch, T = ws.steps, H = hidden_dim_;
  grow_buffer(ws.dh, B * H);
  grow_buffer(ws.dc, B * H);
  grow_buffer(ws.dz, T * B * 4 * H);
  grow_buffer(ws.dx, T * B * input_dim_);
  grow_buffer(ws.wx_t, 4 * H * input_dim_);
  grow_buffer(ws.wh_t, 4 * H * H);
  std::fill_n(ws.dh.data(), B * H, 0.0f);
  std::fill_n(ws.dc.data(), B * H, 0.0f);
  // The dz W^T products read transposed weights, so every product in the
  // pass streams rows.
  transpose(wx_->value.data(), input_dim_, 4 * H, ws.wx_t.data());
  transpose(wh_->value.data(), H, 4 * H, ws.wh_t.data());
}

void LstmCell::bptt_step(LstmWorkspace& ws, std::size_t t) const {
  const std::size_t B = ws.batch;
  const std::size_t H = hidden_dim_;
  float* dz_t = ws.dz.data() + t * B * 4 * H;
  for (std::size_t r = 0; r < B; ++r) {
    const float* gate = ws.gates.data() + (t * B + r) * 4 * H;
    const float* tanh_c = ws.tanh_c.data() + (t * B + r) * H;
    const float* c_prev = ws.c.data() + (t * B + r) * H;
    const float* dh = ws.dh.data() + r * H;
    float* dc = ws.dc.data() + r * H;  // dL/dc_t in, dL/dc_{t-1} out
    float* dz = dz_t + r * 4 * H;
    for (std::size_t j = 0; j < H; ++j) {
      const float dhj = dh[j];
      const float o = gate[3 * H + j];
      const float tc = tanh_c[j];
      const float dcj = dc[j] + dhj * o * (1.0f - tc * tc);
      const float i = gate[j];
      const float f = gate[H + j];
      const float g = gate[2 * H + j];
      const float do_ = dhj * tc;
      const float di = dcj * g;
      const float df = dcj * c_prev[j];
      const float dg = dcj * i;
      dz[j] = di * i * (1.0f - i);
      dz[H + j] = df * f * (1.0f - f);
      dz[2 * H + j] = dg * (1.0f - g * g);
      dz[3 * H + j] = do_ * o * (1.0f - o);
      dc[j] = dcj * f;
    }
  }
  // dL/dh_{t-1} = dz_t Wh^T: the recurrence, so it stays in the loop (and
  // step 0 has no predecessor to carry it to).
  if (t > 0) tensor::gemm_rows(dz_t, ws.wh_t.data(), ws.dh.data(), B, 4 * H, H);
}

void LstmCell::bptt_end(LstmWorkspace& ws) {
  const std::size_t B = ws.batch, T = ws.steps, H = hidden_dim_;
  // Everything below reads only recorded activations and dz, so it runs once
  // for the whole sequence, each gradient element accumulated over t
  // descending as the per-step loop would.
  tensor::accumulate_gemm_tn_steps(ws.x.data(), ws.dz.data(), wx_->grad.data(), T, B,
                                   input_dim_, 4 * H);
  tensor::accumulate_gemm_tn_steps(ws.h.data(), ws.dz.data(), wh_->grad.data(), T, B, H, 4 * H);
  float* db = b_->grad.data();
  for (std::size_t t = T; t-- > 0;) {
    for (std::size_t r = 0; r < B; ++r) {
      const float* dz = ws.dz.data() + (t * B + r) * 4 * H;
      for (std::size_t j = 0; j < 4 * H; ++j) db[j] += dz[j];
    }
  }
  tensor::gemm_rows(ws.dz.data(), ws.wx_t.data(), ws.dx.data(), T * B, 4 * H, input_dim_);
}

}  // namespace ncnas::nn
