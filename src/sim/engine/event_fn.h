// Fixed-capacity inline callback for the event engine's hot path.
//
// EventFn is the engine's replacement for std::function<void()>: the callable
// lives inline in the object (small-buffer storage, no heap fallback), so
// scheduling an event never allocates. Oversized captures fail to compile via
// static_assert - the fix is to restructure the call site (move bulky state
// into a member or a pending queue), never to grow an allocation.
#ifndef DAREDEVIL_SRC_SIM_ENGINE_EVENT_FN_H_
#define DAREDEVIL_SRC_SIM_ENGINE_EVENT_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace daredevil {

class EventFn {
 public:
  // Inline capture budget. The engine contract (DESIGN §9) guarantees at
  // least 48 bytes; 64 covers every scheduling lambda in the tree with room
  // for a this-pointer plus a small struct or a std::vector handle.
  static constexpr std::size_t kInlineBytes = 64;
  static_assert(kInlineBytes >= 48, "engine contract: SBO capacity >= 48");

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  // Constructs the callable straight into this EventFn, which must be empty.
  // The engine schedules every event this way, building the callable in its
  // arena record: no temporary EventFn, no relocation.
  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(!std::is_same_v<D, EventFn>,
                  "schedule the callable itself, not an EventFn wrapping it");
    static_assert(sizeof(D) <= kInlineBytes,
                  "capture too large for EventFn's inline storage: move bulky "
                  "state into a member or pending queue at the call site");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "EventFn requires nothrow-movable callables");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &OpsFor<D>::kOps;
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      Relocate(other);
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        Relocate(other);
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into dst from src, then destroy src (one indirect call
    // for the whole transfer).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    // Trivially copyable callable: relocation is a straight memcpy and
    // destruction a no-op, so moves skip the indirect calls entirely. Most
    // scheduling lambdas ([this] plus a few scalars) qualify; wrapped
    // std::functions take the out-of-line path.
    bool trivial;
  };

  template <typename D>
  struct OpsFor {
    static void Invoke(void* storage) { (*static_cast<D*>(storage))(); }
    static void Relocate(void* dst, void* src) {
      D* from = static_cast<D*>(src);
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void Destroy(void* storage) { static_cast<D*>(storage)->~D(); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy,
                                 std::is_trivially_copyable_v<D>};
  };

  // Takes this->ops_'s callable out of `other` (ops_ already copied).
  void Relocate(EventFn& other) noexcept {
    if (ops_->trivial) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_ENGINE_EVENT_FN_H_
