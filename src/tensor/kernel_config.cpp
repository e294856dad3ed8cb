#include "ncnas/tensor/kernel_config.hpp"

namespace ncnas::tensor {

const char* KernelConfig::simd_isa() noexcept {
#if defined(__AVX2__) && defined(__FMA__)
  return "avx2";
#elif defined(__aarch64__)
  return "neon";
#else
  return "";
#endif
}

}  // namespace ncnas::tensor
