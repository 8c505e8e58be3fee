// Small-buffer-optimized move-only callable: the simulator's one
// type-erased callback type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace cd::sim {

template <typename Signature>
class SmallFn;

/// Move-only type-erased `R(Args...)` callable with inline storage sized for
/// the simulator's per-event and per-message capture lists: the event core's
/// drain and timeout closures (sim::Network's [this, host], sim::Host's
/// [this, ConnKey]), deferred TCP replies, resolver continuations, UDP and
/// TCP service handlers and authoritative observers. Callables that fit —
/// sizeof(F) <= kInlineSize and nothrow-move-constructible — live entirely
/// inside the object that carries them: storing or moving one costs zero
/// heap allocations. Oversized or throwing-move callables (e.g. a resolver
/// continuation that captures a whole DnsMessage) fall back to one heap
/// allocation.
///
/// Move-only means single ownership: a deferred reply or continuation can be
/// handed on but never duplicated, so it cannot run twice by accident.
/// Invocation touches nothing of the SmallFn after the callable returns, so
/// a callable may destroy the object that stores it (a UDP handler that
/// unbinds its own port).
template <typename R, typename... Args>
class SmallFn<R(Args...)> {
 public:
  /// Inline capacity. 48 bytes holds every steady-state closure in the tree
  /// with room for an IpAddr-keyed capture; the callable's address is
  /// max_align_t-aligned either way.
  static constexpr std::size_t kInlineSize = 48;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert
                    // implicitly at every schedule_* and handler call site.
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = heap_ops<Fn>();
    }
  }

  SmallFn(SmallFn&& other) noexcept { steal(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Invokes the stored callable; requires a non-empty SmallFn.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Whether the stored callable lives in the inline buffer (introspection
  /// for the allocation-regression tests; empty reports true).
  [[nodiscard]] bool is_inline() const {
    return ops_ == nullptr || ops_->inline_storage;
  }

  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    /// Moves the callable from `from` into `to` and destroys the source.
    void (*relocate)(unsigned char* from, unsigned char* to);
    void (*destroy)(unsigned char*);
    bool inline_storage;
  };

  template <typename Fn>
  static R call(Fn& fn, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      fn(std::forward<Args>(args)...);
    } else {
      return fn(std::forward<Args>(args)...);
    }
  }

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](unsigned char* b, Args&&... args) -> R {
          return call(*std::launder(reinterpret_cast<Fn*>(b)),
                      std::forward<Args>(args)...);
        },
        [](unsigned char* from, unsigned char* to) {
          Fn* f = std::launder(reinterpret_cast<Fn*>(from));
          ::new (static_cast<void*>(to)) Fn(std::move(*f));
          f->~Fn();
        },
        [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
        true};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](unsigned char* b, Args&&... args) -> R {
          return call(**reinterpret_cast<Fn**>(b),
                      std::forward<Args>(args)...);
        },
        [](unsigned char* from, unsigned char* to) {
          *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
        },
        [](unsigned char* b) { delete *reinterpret_cast<Fn**>(b); }, false};
    return &ops;
  }

  void steal(SmallFn& other) {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.buf_, buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace cd::sim
