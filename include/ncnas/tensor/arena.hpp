// Per-thread bump arena for kernel scratch memory (pack panels, activation
// scratch). The blocked GEMM kernels used to malloc a fresh pack buffer per
// call — on the reward-estimation hot path that is thousands of allocations
// per architecture evaluation. The arena replaces them with a thread-local
// grow-only chunk list: the first call of a given size grows a chunk (and
// counts the growth through obs::profile_alloc, so `run_report --profile`
// shows it), every later call bumps a pointer and frees nothing.
//
// Usage is strictly scoped: take an ArenaScope, alloc through it, let the
// scope rewind the bump pointer on destruction. Chunks are never returned to
// the OS during a run, so steady-state kernel calls perform zero heap
// allocations. Scopes nest (LIFO per thread), and alloc()/rewind happen on
// the owning thread. Each driver-pool worker that runs kernels has its own
// arena, so concurrent trainings never share scratch.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ncnas::tensor::detail {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// This thread's arena (thread-local, created on first use).
  [[nodiscard]] static Arena& local();

  /// `n` floats of 64-byte-aligned scratch, valid until the enclosing
  /// scope's rewind. Grows a chunk only when no chunk can hold `n`.
  [[nodiscard]] float* alloc(std::size_t n);

  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };
  [[nodiscard]] Mark mark() const noexcept { return {chunk_, used_}; }
  void rewind(Mark m) noexcept {
    chunk_ = m.chunk;
    used_ = m.used;
  }

  /// Total float capacity across all chunks (bytes = 4x); high-water marks
  /// steady-state behaviour in tests: once warm, capacity stops growing.
  [[nodiscard]] std::size_t capacity_floats() const noexcept;

 private:
  struct AlignedDelete {
    void operator()(float* p) const noexcept;
  };
  struct Chunk {
    std::unique_ptr<float[], AlignedDelete> data;
    std::size_t size = 0;  // floats
  };

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;  // index of the chunk currently bumping
  std::size_t used_ = 0;   // floats consumed in chunks_[chunk_]
};

/// RAII scope: every alloc() through it is released (pointer-bumped back,
/// not freed) when the scope dies.
class ArenaScope {
 public:
  ArenaScope() : arena_(Arena::local()), mark_(arena_.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  [[nodiscard]] float* alloc(std::size_t n) { return arena_.alloc(n); }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace ncnas::tensor::detail
