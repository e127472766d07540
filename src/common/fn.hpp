// UniqueFn: a move-only callable wrapper for simulation hot paths.
//
// The event engine stores small callables inline (simulator.hpp,
// kInlineBytes); std::function defeats that by boxing captures behind its
// own type-erased allocation and by requiring copyability, which forces
// shared_ptr captures where unique ownership would do. UniqueFn is the
// replacement used across sim/core/pcie:
//
//  * move-only — closures may own buffers, gates, or other UniqueFns;
//  * 48-byte small-buffer storage, heap fallback above that. The whole
//    object is 64 bytes, chosen so the common completion pattern
//    `[this, done = std::move(done)]` (8 + 64 = 72 bytes) still fits the
//    event node's 80-byte inline payload;
//  * contextually convertible to bool, like std::function, so optional
//    completion hooks keep their `if (done) done();` call sites.
//
// Invoking an empty UniqueFn is undefined (guarded by assert), matching
// the engine's "never schedule an empty event" rule rather than
// std::function's bad_function_call.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace apn {

template <typename Sig>
class UniqueFn;

template <typename R, typename... Args>
class UniqueFn<R(Args...)> {
 public:
  UniqueFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, UniqueFn> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  UniqueFn(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      manage_ = &inline_manage<D>;
    } else {
      ::new (static_cast<void*>(storage_)) (D*)(new D(std::forward<F>(f)));
      invoke_ = &boxed_invoke<D>;
      manage_ = &boxed_manage<D>;
    }
  }

  UniqueFn(UniqueFn&& other) noexcept
      : invoke_(other.invoke_), manage_(other.manage_) {
    if (manage_ != nullptr) manage_(Op::kMove, &other, this);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      reset();
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      if (manage_ != nullptr) manage_(Op::kMove, &other, this);
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
    return *this;
  }

  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;

  ~UniqueFn() { reset(); }

  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    assert(invoke_ != nullptr && "invoking empty UniqueFn");
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  /// True if a callable of type F is stored in the small buffer rather
  /// than boxed on the heap. Hot paths static_assert this on their
  /// closures so a capture that outgrows the buffer fails to compile.
  template <class F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

 private:
  static constexpr std::size_t kSboBytes = 48;

  enum class Op { kDestroy, kMove };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kSboBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static R inline_invoke(unsigned char* s, Args&&... args) {
    return (*std::launder(reinterpret_cast<D*>(s)))(
        std::forward<Args>(args)...);
  }

  template <typename D>
  static void inline_manage(Op op, UniqueFn* from, UniqueFn* to) {
    D* f = std::launder(reinterpret_cast<D*>(from->storage_));
    if (op == Op::kMove)
      ::new (static_cast<void*>(to->storage_)) D(std::move(*f));
    f->~D();
  }

  template <typename D>
  static R boxed_invoke(unsigned char* s, Args&&... args) {
    return (**std::launder(reinterpret_cast<D**>(s)))(
        std::forward<Args>(args)...);
  }

  template <typename D>
  static void boxed_manage(Op op, UniqueFn* from, UniqueFn* to) {
    D** slot = std::launder(reinterpret_cast<D**>(from->storage_));
    if (op == Op::kMove)
      ::new (static_cast<void*>(to->storage_)) (D*)(*slot);
    else
      delete *slot;
  }

  alignas(std::max_align_t) unsigned char storage_[kSboBytes];
  R (*invoke_)(unsigned char*, Args&&...) = nullptr;
  void (*manage_)(Op, UniqueFn*, UniqueFn*) = nullptr;
};

}  // namespace apn
