// Small-buffer-optimized move-only callable for the event core and the CPU model.
//
// The discrete-event hot path schedules millions of short-lived callbacks. `std::function`
// heap-allocates for any capture beyond its (implementation-defined) tiny inline buffer and
// drags along copyability machinery the queue never uses. BasicInlineFunction<N> stores
// captures up to N bytes in place and falls back to one heap allocation only for oversized
// or throwing-move captures. A capture that holds a `const` member (a lambda capturing a
// `const Packet&` by copy) moves through that member's copy constructor, so it stays inline
// only if that copy constructor is noexcept too.
//
// InlineFunction is the event core's instance: 48 bytes, which covers every closure the
// stack schedules on the event queue (a `this` pointer plus a few scalars or refs). CPU step
// actions use a larger instance sized for a `this` plus a Packet (Cpu::Action).

#ifndef SRC_SIM_INLINE_FUNCTION_H_
#define SRC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ctms {

template <size_t kCapacity>
class BasicInlineFunction {
 public:
  static constexpr size_t kInlineBytes = kCapacity;

  BasicInlineFunction() = default;
  BasicInlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, BasicInlineFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  BasicInlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  BasicInlineFunction(BasicInlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  BasicInlineFunction& operator=(BasicInlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  BasicInlineFunction(const BasicInlineFunction&) = delete;
  BasicInlineFunction& operator=(const BasicInlineFunction&) = delete;

  ~BasicInlineFunction() { Reset(); }

  // Requires an engaged function (operator bool).
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Destroys the stored callable (releasing its captures) and disengages.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Replaces the stored callable with one built directly in this object's storage from
  // `f`: a callable passed as an rvalue is moved exactly once, where assigning a temporary
  // BasicInlineFunction would move it twice (into the temporary, then relocated here).
  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, BasicInlineFunction>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>);
      Reset();
      Construct(std::forward<F>(f));
    }
  }

 private:
  // Requires a disengaged object.
  template <typename F, typename D = std::decay_t<F>>
  void Construct(F&& f) {
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to);  // move-construct into `to`, destroy `from`
    void (*destroy)(void* storage);
  };

  template <typename D>
  struct InlineOps {
    static D* Get(void* s) { return std::launder(reinterpret_cast<D*>(s)); }
    static void Invoke(void* s) { (*Get(s))(); }
    static void Relocate(void* from, void* to) {
      D* src = Get(from);
      ::new (to) D(std::move(*src));
      src->~D();
    }
    static void Destroy(void* s) { Get(s)->~D(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* Get(void* s) { return *std::launder(reinterpret_cast<D**>(s)); }
    static void Invoke(void* s) { (*Get(s))(); }
    static void Relocate(void* from, void* to) {
      ::new (to) D*(Get(from));  // the heap object itself does not move
    }
    static void Destroy(void* s) { delete Get(s); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

using InlineFunction = BasicInlineFunction<48>;

}  // namespace ctms

#endif  // SRC_SIM_INLINE_FUNCTION_H_
