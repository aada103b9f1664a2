#ifndef BTRIM_COMMON_FUNCTION_REF_H_
#define BTRIM_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace btrim {

template <typename Signature>
class FunctionRef;

/// Non-owning reference to a callable: two words, no allocation. For
/// parameters that the callee invokes during the call and never stores (a
/// lambda argument lives until the end of the full expression).
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                            std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace btrim

#endif  // BTRIM_COMMON_FUNCTION_REF_H_
