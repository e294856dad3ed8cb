// Microbenchmarks for the substrates the NAS spends its cycles in: GEMM,
// conv1d, LSTM controller steps, PPO updates, architecture decoding, and one
// full reward estimation.
#include <benchmark/benchmark.h>

#include "ncnas/exec/evaluator.hpp"
#include "ncnas/nn/lstm.hpp"
#include "ncnas/rl/controller.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/ops.hpp"

namespace {

using namespace ncnas;

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(1);
  tensor::Tensor a({n, n}), b({n, n}), c({n, n});
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
// Square gemms, blocked at every size here. bench_kernels produces the full
// GF/s + speedup-over-reference table and BENCH_kernels.json.
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(96)->Arg(128)->Arg(256)->Arg(512);

void BM_Conv1dForward(benchmark::State& state) {
  tensor::Rng rng(2);
  nn::Conv1D conv(8, 5, rng);
  const nn::FeatShape shape[] = {nn::FeatShape{256, 1}};
  (void)conv.bind(shape);
  tensor::Tensor x({16, 256, 1});
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const tensor::Tensor* in[] = {&x};
  tensor::Tensor y;
  nn::ForwardCtx ctx{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(in, y, ctx).data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Conv1dForward);

// One decode step at batch 8, the way sample() drives the cell.
void BM_LstmStep(benchmark::State& state) {
  tensor::Rng rng(3);
  nn::LstmCell cell(16, 32, rng);
  nn::LstmWorkspace ws;
  cell.begin(ws, 8, 1);
  for (std::size_t i = 0; i < 8 * 16; ++i) ws.input(0)[i] = static_cast<float>(rng.normal());
  for (auto _ : state) {
    cell.begin(ws, 8, 1);
    cell.forward_step(ws, 0);
    benchmark::DoNotOptimize(ws.output(0));
  }
}
BENCHMARK(BM_LstmStep);

void BM_ControllerSample(benchmark::State& state) {
  const space::SearchSpace sp = space::combo_small_space();
  rl::Controller ctrl(sp.arities(), 1);
  tensor::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.sample(rng));
  }
}
BENCHMARK(BM_ControllerSample);

void BM_PpoUpdate(benchmark::State& state) {
  const space::SearchSpace sp = space::combo_small_space();
  rl::Controller ctrl(sp.arities(), 1);
  tensor::Rng rng(5);
  std::vector<rl::Rollout> rolls;
  std::vector<float> rewards;
  for (int b = 0; b < 11; ++b) {
    rolls.push_back(ctrl.sample(rng));
    rewards.push_back(0.1f * static_cast<float>(b));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.ppo_update(rolls, rewards, {}));
  }
}
BENCHMARK(BM_PpoUpdate);

// The update nt3-a3c runs: the NT3 space (12 decisions) and one rollout per
// batch (16 agents x 1 worker).
void BM_PpoUpdateNt3Batch1(benchmark::State& state) {
  const space::SearchSpace sp = space::nt3_small_space();
  rl::Controller ctrl(sp.arities(), 1);
  tensor::Rng rng(6);
  const std::vector<rl::Rollout> rolls{ctrl.sample(rng)};
  const std::vector<float> rewards{0.5f};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.ppo_update(rolls, rewards, {}));
  }
}
BENCHMARK(BM_PpoUpdateNt3Batch1);

void BM_BuildComboModel(benchmark::State& state) {
  const space::SearchSpace sp = space::combo_small_space();
  tensor::Rng arch_rng(6);
  const space::ArchEncoding arch = sp.random_arch(arch_rng);
  const std::vector<std::size_t> dims{48, 96, 96};
  for (auto _ : state) {
    tensor::Rng rng(7);
    benchmark::DoNotOptimize(
        space::build_model(sp, arch, dims, space::TaskHead::regression(), rng));
  }
}
BENCHMARK(BM_BuildComboModel);

void BM_RewardEstimation(benchmark::State& state) {
  const space::SearchSpace sp = space::nt3_small_space();
  static const data::Dataset ds = data::make_nt3(1);
  const exec::TrainingEvaluator eval(sp, ds, {.epochs = 1, .subset_fraction = 1.0}, {});
  tensor::Rng rng(8);
  const space::ArchEncoding arch = sp.random_arch(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(arch, 1));
  }
}
BENCHMARK(BM_RewardEstimation);

}  // namespace
