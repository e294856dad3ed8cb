// Kernel throughput sweep with a built-in correctness gate.
//
// Measures gemm/gemm_nt/gemm_tn at several square sizes: the serial
// reference and the blocked tier, both on the calling thread (the only
// thread kernels run on). Every blocked measurement is first verified
// bitwise against the reference result — a bench that reports speed on
// wrong bits is worse than no bench.
//
// Usage:
//   bench_kernels [--json PATH] [--require-speedup X] [--max-size N]
//
// Writes a JSON record per (op, size, config) to PATH (default
// BENCH_kernels.json) and prints a GF/s + speedup table. Exits nonzero if
// any blocked result mismatches the reference, or if the blocked ("t1")
// gemm speedup at the largest size falls below --require-speedup (default
// 1.0 — "never slower than the reference"; CI passes 1.0, the acceptance
// target for sizes >= 256 is 2.0).

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

#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace {

using ncnas::tensor::KernelConfig;
using ncnas::tensor::KernelConfigGuard;
using ncnas::tensor::Rng;
using ncnas::tensor::Tensor;

using GemmFn = void (*)(const Tensor&, const Tensor&, Tensor&);

struct Op {
  const char* name;
  GemmFn kernel;  // dispatching entry point
  GemmFn ref;     // serial oracle
};

/// One JSON record, keyed (op, size, config) so two machines' BENCH files
/// diff record-for-record (see perf_diff). The config labels and the
/// `threads` field keep the file's schema from when the blocked tier also
/// ran on a kernel pool: "t1" is the blocked tier on one thread.
struct Record {
  std::string op;
  std::size_t size = 0;
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

  std::vector<std::size_t> sizes;
  for (std::size_t n : {64UL, 128UL, 256UL, 512UL}) {
    if (n <= max_size) sizes.push_back(n);
  }

  const Op ops[] = {
      {"gemm", ncnas::tensor::gemm, ncnas::tensor::gemm_ref},
      {"gemm_nt", ncnas::tensor::gemm_nt, ncnas::tensor::gemm_nt_ref},
      {"gemm_tn", ncnas::tensor::gemm_tn, ncnas::tensor::gemm_tn_ref},
  };

  std::vector<Record> records;
  bool bits_ok = true;
  double gate_speedup = 0.0;  // blocked gemm speedup at the largest size

  std::cout << std::left << std::setw(9) << "op" << std::setw(6) << "n"
            << std::setw(9) << "config" << std::setw(10) << "GF/s"
            << "speedup\n";
  for (const Op& op : ops) {
    for (std::size_t n : sizes) {
      Rng rng(0xBE7CULL + n);
      Tensor a({n, n}), b({n, n});
      for (float& v : a.flat()) v = static_cast<float>(rng.normal());
      for (float& v : b.flat()) v = static_cast<float>(rng.normal());
      const double flops = 2.0 * static_cast<double>(n) * n * n;
      const std::size_t iters =
          std::max<std::size_t>(1, static_cast<std::size_t>(2e8 / flops));

      Tensor want({n, n});
      const double ref_dt =
          time_best_seconds(iters, [&] { op.ref(a, b, want); });
      const double ref_gflops = flops / ref_dt / 1e9;
      records.push_back({op.name, n, 0, "ref", ref_gflops, 1.0});
      std::cout << std::left << std::setw(9) << op.name << std::setw(6) << n
                << std::setw(9) << "ref" << std::setw(10) << std::fixed
                << std::setprecision(2) << ref_gflops << "1.00\n";

      // The blocked tier.
      KernelConfig cfg;
      cfg.min_blocked_flops = 0;
      KernelConfigGuard guard(cfg);
      Tensor got({n, n});
      op.kernel(a, b, got);
      if (!bytes_equal(want, got)) {
        std::cerr << "BIT MISMATCH: " << op.name << " n=" << n << "\n";
        bits_ok = false;
        continue;
      }
      const double dt = time_best_seconds(iters, [&] { op.kernel(a, b, got); });
      const double gflops = flops / dt / 1e9;
      const double speedup = ref_dt / dt;
      records.push_back({op.name, n, 1, "t1", gflops, speedup});
      std::cout << std::left << std::setw(9) << op.name << std::setw(6) << n
                << std::setw(9) << "t1" << std::setw(10) << std::fixed
                << std::setprecision(2) << gflops << std::setprecision(2)
                << speedup << "\n";
      if (std::string(op.name) == "gemm" && n == sizes.back()) gate_speedup = speedup;
    }
  }

  // hardware_threads describes the machine; no measurement depends on it.
  const unsigned hw = std::thread::hardware_concurrency();
  std::ostringstream json;
  json << "{\n  \"schema_version\": 1,\n  \"hardware_threads\": " << hw
       << ",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    json << "    {\"op\": \"" << r.op << "\", \"size\": " << r.size
         << ", \"config\": \"" << r.config << "\", \"threads\": " << r.threads
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
              << sizes.back() << " is below required " << require_speedup << "\n";
    return 1;
  }
  std::cout << "OK: blocked gemm speedup at n=" << sizes.back() << " is "
            << std::setprecision(2) << gate_speedup << "x (required "
            << require_speedup << "x)\n";
  return 0;
}
