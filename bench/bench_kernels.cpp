// Kernel throughput sweep with a built-in correctness gate.
//
// Measures gemm/gemm_nt/gemm_tn at several square sizes, and at the shapes
// the searches' Dense layers run. A Dense layer of `rows` x `in` -> `units`
// calls gemm (forward) at m x k x n = rows x in x units, gemm_nt (input
// gradient) at rows x units x in and gemm_tn (weight gradient) at
// in x rows x units (src/nn/layers.cpp). The layers swept are Combo's (256
// rows, the batch; units 16/48/96; inputs up to 288, a concat of three
// 96-wide cells) and NT3's (20 rows; units 8/24/96; inputs 152 and 488,
// flattened convolutions). Each is timed on the serial reference and on the
// blocked tier, both on the calling thread (the only thread kernels run
// on). Every blocked measurement is first verified bitwise against the
// reference result — a bench that reports speed on wrong bits is worse
// than no bench.
//
// It also times the RL controller's raw-buffer products (rl/controller.cpp,
// nn/lstm.cpp) at the widths its LSTM runs: hidden H = 32, embedding
// E = 16, gates 4H = 128, A = the space's largest arity and T its decision
// count, with B = 1 rollout a batch on NT3 (as nt3-a3c runs it) and B = 4
// on Combo. gemm_rows runs per step at B rows (sampling and the
// recurrence) and once over the sequence at T*B rows; its records are
// gemm_rows/MxKxN. accumulate_gemm_tn_steps sums T steps of
// a_s(B, m)^T * b_s(B, n) into the weight gradients; its records are
// accumulate_gemm_tn_steps/TxMxKxN with k = B. Their "ref" rows are gemm_ref
// and the per-step gemm_tn_ref + add_inplace loop the kernels reproduce.
//
// Usage:
//   bench_kernels [--json PATH] [--require-speedup X] [--max-size N]
//
// Writes a JSON record per (op, size or shape, config) to PATH (default
// BENCH_kernels.json) and prints a GF/s + speedup table. A square record
// carries "size": n; a shape record carries "shape": "MxKxN", which
// perf_diff keys as e.g. gemm/256x48x16/t1. Exits nonzero if any blocked
// result mismatches the reference, or if the blocked ("t1") gemm speedup at
// the largest square size falls below --require-speedup (default 1.0 —
// "never slower than the reference"; CI passes 1.0, the acceptance target
// for sizes >= 256 is 2.0). The shape and controller records are
// informational.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace {

using ncnas::tensor::KernelConfig;
using ncnas::tensor::KernelConfigGuard;
using ncnas::tensor::Rng;
using ncnas::tensor::Shape;
using ncnas::tensor::Tensor;

using GemmFn = void (*)(const Tensor&, const Tensor&, Tensor&);

struct Op {
  const char* name;
  GemmFn kernel;  // dispatching entry point
  GemmFn ref;     // serial oracle
  bool a_transposed;  // A stored (k, m): gemm_tn
  bool b_transposed;  // B stored (n, k): gemm_nt
};

/// One problem of the sweep: C is m x n with inner dimension k. `label` keys
/// its records: "n" for an n x n x n square, "MxKxN" otherwise.
struct Problem {
  std::size_t m, k, n;
  std::string label;
  bool square;
};

/// A Dense layer the searches train: `rows` x `in` inputs to `units` outputs.
struct Layer {
  std::size_t rows, in, units;
};

/// The problem `op` runs for layer l: gemm is its forward pass, gemm_nt its
/// input gradient and gemm_tn its weight gradient (Dense in
/// src/nn/layers.cpp).
Problem layer_problem(const Op& op, const Layer& l) {
  Problem p{l.rows, l.in, l.units, "", false};
  if (op.b_transposed) p = {l.rows, l.units, l.in, "", false};
  if (op.a_transposed) p = {l.in, l.rows, l.units, "", false};
  p.label = std::to_string(p.m) + "x" + std::to_string(p.k) + "x" + std::to_string(p.n);
  return p;
}

/// One JSON record, keyed (op, size or shape, config) so two machines' BENCH
/// files diff record-for-record (see perf_diff). The config labels and the
/// `threads` field keep the file's schema from when the blocked tier also
/// ran on a kernel pool: "t1" is the blocked tier on one thread.
struct Record {
  std::string op;
  Problem problem;
  std::size_t threads = 0;   // 0 = reference row, 1 = blocked row
  std::string config;        // "ref" or "t1"
  double gflops = 0.0;
  double speedup = 1.0;  // vs the reference row of the same (op, size)
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps timing of fn(), with iteration count scaled so one rep does
/// meaningful work even at small sizes.
double time_best_seconds(std::size_t iters, const std::function<void()>& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double dt = (now_seconds() - t0) / static_cast<double>(iters);
    best = std::min(best, dt);
  }
  return best;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

/// One raw-buffer product of the controller: gemm_rows when steps == 0,
/// else accumulate_gemm_tn_steps over `steps` terms of m x k x n.
struct ControllerProduct {
  std::size_t steps, m, k, n;
};

/// The controller's products for a space with `arity` (its largest) and
/// `decisions`, at `batch` rollouts (see the header comment).
std::vector<ControllerProduct> controller_products(std::size_t arity, std::size_t decisions,
                                                   std::size_t batch) {
  constexpr std::size_t kH = 32, kE = 16, kGates = 4 * kH;
  const std::size_t B = batch, TB = decisions * batch;
  return {
      // Per step: the input and recurrent gate products, the policy head, dh.
      {0, B, kE, kGates},
      {0, B, kH, kGates},
      {0, B, kH, arity},
      {0, B, kGates, kH},
      // The whole sequence: gates, logits, dh from the logits, dx.
      {0, TB, kE, kGates},
      {0, TB, kH, arity},
      {0, TB, arity, kH},
      {0, TB, kGates, kE},
      // The weight gradients of Wx, Wh and the policy head.
      {decisions, kE, B, kGates},
      {decisions, kH, B, kGates},
      {decisions, kH, B, arity},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernels.json";
  double require_speedup = 1.0;
  std::size_t max_size = 512;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--require-speedup" && i + 1 < argc) {
      require_speedup = std::stod(argv[++i]);
    } else if (arg == "--max-size" && i + 1 < argc) {
      max_size = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  std::vector<Problem> squares;
  std::size_t largest = 0;  // the largest square: the speedup gate's size
  for (std::size_t n : {64UL, 128UL, 256UL, 512UL}) {
    if (n > max_size) continue;
    squares.push_back({n, n, n, std::to_string(n), true});
    largest = n;
  }
  std::vector<Layer> layers;
  for (std::size_t in : {16UL, 48UL, 96UL, 144UL, 288UL}) {
    for (std::size_t units : {16UL, 48UL, 96UL}) layers.push_back({256, in, units});
  }
  for (std::size_t in : {152UL, 488UL}) {
    for (std::size_t units : {8UL, 24UL, 96UL}) layers.push_back({20, in, units});
  }

  const Op ops[] = {
      {"gemm", ncnas::tensor::gemm, ncnas::tensor::gemm_ref, false, false},
      {"gemm_nt", ncnas::tensor::gemm_nt, ncnas::tensor::gemm_nt_ref, false, true},
      {"gemm_tn", ncnas::tensor::gemm_tn, ncnas::tensor::gemm_tn_ref, true, false},
  };

  std::vector<Record> records;
  bool bits_ok = true;
  double gate_speedup = 0.0;  // blocked gemm speedup at the largest square

  std::cout << std::left << std::setw(26) << "op" << std::setw(16) << "shape"
            << std::setw(9) << "config" << std::setw(10) << "GF/s"
            << "speedup\n";
  const auto report = [&records](const std::string& op, const Problem& p, const char* config,
                                 double gflops, double speedup) {
    records.push_back({op, p, config == std::string("ref") ? 0UL : 1UL, config, gflops, speedup});
    std::cout << std::left << std::setw(26) << op << std::setw(16) << p.label << std::setw(9)
              << config << std::setw(10) << std::fixed << std::setprecision(2) << gflops
              << speedup << "\n";
  };
  for (const Op& op : ops) {
    std::vector<Problem> problems = squares;
    for (const Layer& l : layers) problems.push_back(layer_problem(op, l));
    for (const Problem& p : problems) {
      Rng rng(0xBE7CULL + p.n);
      Tensor a(op.a_transposed ? Shape{p.k, p.m} : Shape{p.m, p.k});
      Tensor b(op.b_transposed ? Shape{p.n, p.k} : Shape{p.k, p.n});
      for (float& v : a.flat()) v = static_cast<float>(rng.normal());
      for (float& v : b.flat()) v = static_cast<float>(rng.normal());
      const double flops = 2.0 * static_cast<double>(p.m) * p.k * p.n;
      const std::size_t iters =
          std::max<std::size_t>(1, static_cast<std::size_t>(2e8 / flops));

      Tensor want({p.m, p.n});
      const double ref_dt =
          time_best_seconds(iters, [&] { op.ref(a, b, want); });
      report(op.name, p, "ref", flops / ref_dt / 1e9, 1.0);

      // The blocked tier.
      KernelConfig cfg;
      cfg.min_blocked_flops = 0;
      KernelConfigGuard guard(cfg);
      Tensor got({p.m, p.n});
      op.kernel(a, b, got);
      if (!bytes_equal(want, got)) {
        std::cerr << "BIT MISMATCH: " << op.name << " " << p.label << "\n";
        bits_ok = false;
        continue;
      }
      const double dt = time_best_seconds(iters, [&] { op.kernel(a, b, got); });
      report(op.name, p, "t1", flops / dt / 1e9, ref_dt / dt);
      if (std::string(op.name) == "gemm" && p.square && p.n == largest) gate_speedup = ref_dt / dt;
    }
  }

  // The controller's raw-buffer products.
  std::vector<ControllerProduct> products;
  for (const auto& [sp, batch] : {std::pair{ncnas::space::nt3_small_space(), 1UL},
                                  std::pair{ncnas::space::combo_small_space(), 4UL}}) {
    const std::vector<std::size_t> arities = sp.arities();
    const std::vector<ControllerProduct> more = controller_products(
        *std::max_element(arities.begin(), arities.end()), arities.size(), batch);
    products.insert(products.end(), more.begin(), more.end());
  }
  for (const ControllerProduct& c : products) {
    std::string label =
        std::to_string(c.m) + "x" + std::to_string(c.k) + "x" + std::to_string(c.n);
    if (c.steps != 0) label = std::to_string(c.steps) + "x" + label;
    const std::string op = c.steps == 0 ? "gemm_rows" : "accumulate_gemm_tn_steps";
    const Problem p{c.m, c.k, c.n, label, false};
    const double flops = 2.0 * static_cast<double>(std::max<std::size_t>(1, c.steps)) *
                         static_cast<double>(c.m) * c.k * c.n;
    const std::size_t iters = std::max<std::size_t>(1, static_cast<std::size_t>(2e8 / flops));
    Rng rng(0xC7A1ULL + c.steps * 1000 + c.m * 100 + c.n);
    std::function<void()> ref, kernel;
    Tensor want({c.m, c.n}), got({c.m, c.n});
    if (c.steps == 0) {
      const Tensor a = random_tensor({c.m, c.k}, rng), b = random_tensor({c.k, c.n}, rng);
      ref = [&want, a, b] { ncnas::tensor::gemm_ref(a, b, want); };
      kernel = [&got, a, b, c] {
        ncnas::tensor::gemm_rows(a.data(), b.data(), got.data(), c.m, c.k, c.n);
      };
    } else {
      // Step s reads a_s(k, m) and b_s(k, n), stored back to back; the
      // reference slices them out once, outside the timed loop.
      const Tensor a = random_tensor({c.steps * c.k, c.m}, rng);
      const Tensor b = random_tensor({c.steps * c.k, c.n}, rng);
      std::vector<Tensor> as, bs;
      for (std::size_t s = 0; s < c.steps; ++s) {
        as.emplace_back(Shape{c.k, c.m}, std::vector<float>(a.data() + s * c.k * c.m,
                                                             a.data() + (s + 1) * c.k * c.m));
        bs.emplace_back(Shape{c.k, c.n}, std::vector<float>(b.data() + s * c.k * c.n,
                                                             b.data() + (s + 1) * c.k * c.n));
      }
      ref = [&want, as, bs, term = Tensor({c.m, c.n})]() mutable {
        for (std::size_t s = as.size(); s-- > 0;) {
          ncnas::tensor::gemm_tn_ref(as[s], bs[s], term);
          ncnas::tensor::add_inplace(want, term);
        }
      };
      kernel = [&got, a, b, c] {
        ncnas::tensor::accumulate_gemm_tn_steps(a.data(), b.data(), got.data(), c.steps, c.k,
                                                c.m, c.n);
      };
      // Both sums start from the same g; the timed loops keep adding to it.
      want = random_tensor({c.m, c.n}, rng);
      got = want;
    }
    ref();
    kernel();
    if (!bytes_equal(want, got)) {
      std::cerr << "BIT MISMATCH: " << op << " " << label << "\n";
      bits_ok = false;
      continue;
    }
    const double ref_dt = time_best_seconds(iters, ref);
    report(op, p, "ref", flops / ref_dt / 1e9, 1.0);
    const double dt = time_best_seconds(iters, kernel);
    report(op, p, "t1", flops / dt / 1e9, ref_dt / dt);
  }

  // hardware_threads describes the machine; no measurement depends on it.
  const unsigned hw = std::thread::hardware_concurrency();
  std::ostringstream json;
  json << "{\n  \"schema_version\": 1,\n  \"hardware_threads\": " << hw
       << ",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    json << "    {\"op\": \"" << r.op << "\", ";
    if (r.problem.square) {
      json << "\"size\": " << r.problem.n;
    } else {
      json << "\"shape\": \"" << r.problem.label << "\"";
    }
    json << ", \"config\": \"" << r.config << "\", \"threads\": " << r.threads
         << ", \"gflops\": " << std::fixed << std::setprecision(3) << r.gflops
         << ", \"speedup_vs_ref\": " << std::setprecision(3) << r.speedup << "}";
    json << (i + 1 < records.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::ofstream out(json_path);
  out << json.str();
  if (!out) {
    std::cerr << "failed to write " << json_path << "\n";
    return 2;
  }
  std::cout << "wrote " << json_path << "\n";

  if (!bits_ok) {
    std::cerr << "FAIL: blocked kernels are not bit-identical to the reference\n";
    return 1;
  }
  if (gate_speedup < require_speedup) {
    std::cerr << "FAIL: blocked gemm speedup " << gate_speedup << " at n="
              << largest << " is below required " << require_speedup << "\n";
    return 1;
  }
  std::cout << "OK: blocked gemm speedup at n=" << largest << " is "
            << std::setprecision(2) << gate_speedup << "x (required "
            << require_speedup << "x)\n";
  return 0;
}
