// Signature-generic callable vocabulary, the event kernel's included.
//
// std::function costs what a simulator cannot pay per event: a heap
// allocation for capturing closures on libstdc++, copyability nobody uses,
// and an opaque type the hot-path lint (rule H1, tools/mcs_lint) keeps out
// of src/sim, src/graph, src/parallel and src/obs.
//
// Two types cover every callback shape in this repository:
//
//   UniqueFunction<R(Args...)> — owning, move-only, SBO. The drop-in for a
//     *stored* std::function (scheduler stages, FaaS completion callbacks,
//     task orderings); UniqueFunction<void()> is the event kernel's
//     sim::Callback, whose slots build closures in place with emplace().
//     Closures up to kInlineSize bytes live inline, and a null relocate or
//     destroy entry skips an indirect call on the kernel's hot path.
//
//   FunctionRef<R(Args...)> — borrowed, trivially copyable, two words. The
//     drop-in for a `const std::function&` *parameter* that is only
//     invoked during the call (ThreadPool::run_tasks, candidate filters).
//     Never store one beyond the call that received it.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mcs::core {

template <typename Signature>
class UniqueFunction;  // primary template; only R(Args...) is defined

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineSize = 48;

  UniqueFunction() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, UniqueFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  UniqueFunction(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    construct<D>(std::forward<F>(fn));
  }

  /// Destroys the current callable (if any) and constructs `fn` directly in
  /// this object's storage, without an intermediate UniqueFunction and
  /// relocation (the event kernel builds closures in its slots this way).
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, UniqueFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& fn) {
    reset();
    construct<D>(std::forward<F>(fn));
  }

  UniqueFunction(UniqueFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) relocate_from(other);
  }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) relocate_from(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  /// Destroys the held callable (releasing its captures immediately).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Whether the callable is stored inline (no heap allocation was made).
  // mcs-lint: allow(R1) — CallbackTest (tests/sim_test.cpp) checks which
  // closures stay inline; nothing else exposes the storage choice.
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

  /// Shallow-const like std::function: invoking through a const reference
  /// is allowed and may still mutate the closure's captured state.
  R operator()(Args... args) const {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  // A null relocate means "memcpy the buffer" (valid for trivially copyable
  // closures and the heap case, whose buffer holds one pointer); a null
  // destroy means "nothing to do". The invokers cast the result to R, which
  // discards it when R is void.
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    void (*relocate)(void* dst, void* src) noexcept;  // move + destroy src
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
  };

  template <typename D, typename F>
  void construct(F&& fn) {
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &inline_ops<D>;
    } else {
      // mcs-lint: allow(H3) — small-buffer fallback: closures that fit
      // kInlineSize (all in-tree callbacks) never reach this branch.
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(fn));
      ops_ = &heap_ops<D>;
    }
  }

  void relocate_from(UniqueFunction& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    other.ops_ = nullptr;
  }

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* s, Args&&... args) -> R {
        return static_cast<R>((*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...));
      },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              D* from = std::launder(reinterpret_cast<D*>(src));
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* s) noexcept {
              std::launder(reinterpret_cast<D*>(s))->~D();
            },
      true};

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* s, Args&&... args) -> R {
        return static_cast<R>((**std::launder(reinterpret_cast<D**>(s)))(
            std::forward<Args>(args)...));
      },
      nullptr,  // the buffer holds one pointer; memcpy relocates it
      [](void* s) noexcept { delete *std::launder(reinterpret_cast<D**>(s)); },
      false};

  alignas(std::max_align_t) mutable unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

template <typename Signature>
class FunctionRef;  // primary template; only R(Args...) is defined

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() noexcept = default;

  template <typename F,
            typename D = std::remove_reference_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  FunctionRef(F&& fn) noexcept  // NOLINT(google-explicit-constructor): view type
      : target_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        invoke_([](void* target, Args&&... args) -> R {
          return (*static_cast<D*>(target))(std::forward<Args>(args)...);
        }) {}

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  R operator()(Args... args) const {
    return invoke_(target_, std::forward<Args>(args)...);
  }

 private:
  void* target_ = nullptr;
  R (*invoke_)(void* target, Args&&... args) = nullptr;
};

}  // namespace mcs::core
