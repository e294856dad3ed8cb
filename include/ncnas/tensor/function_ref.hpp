// FunctionRef — a non-owning, non-allocating reference to a callable.
//
// The hot-path helpers that take a callback (parallel_elems, parallel_rows)
// used to take `const std::function&`, which heap-allocates whenever a
// lambda's captures outgrow std::function's small buffer — on every call.
// A FunctionRef stores a pointer to the caller's callable and a trampoline,
// so building one never allocates. It must not outlive the callable, which
// holds for its one use: a parameter bound to a lambda argument.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace ncnas::tensor {

template <class Signature>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  // NOLINTNEXTLINE(google-explicit-constructor): converts from any callable by design
  FunctionRef(F&& fn) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(obj),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace ncnas::tensor
