// Growable FIFO ring, the simulator's one queue type on the per-I/O path
// (CPU run queues, cross-core posts, NVMe queue rings, the device's
// completion-post staging, the block-layer I/O schedulers' queues) and the
// store of the capped observer logs (TraceLog, RequestTimelineLog), which
// drop their oldest entry at capacity.
//
// A power-of-two array of slots addressed head + i (mod capacity). push_back
// doubles the array when it is full and nothing ever shrinks it, so once a
// queue has reached its high-water mark, pushing and popping allocate
// nothing. A std::deque instead frees and re-allocates a block every few
// hundred elements as a queue slides along.
#ifndef DAREDEVIL_SRC_SIM_RING_FIFO_H_
#define DAREDEVIL_SRC_SIM_RING_FIFO_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "src/core/invariant.h"

namespace daredevil {

template <typename T>
class RingFifo {
 public:
  RingFifo() = default;
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;
  ~RingFifo() {
    clear();
    Deallocate(slots_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // The i-th element from the front (0 = front).
  T& operator[](size_t i) { return slots_[Index(i)]; }
  const T& operator[](size_t i) const { return slots_[Index(i)]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  // `value` must not be an element of this ring: growth moves the elements.
  void push_back(T&& value) { Append(std::move(value)); }
  void push_back(const T& value) { Append(value); }

  void pop_front() {
    DD_CHECK(size_ > 0) << "pop_front on an empty RingFifo";
    std::destroy_at(&slots_[head_]);
    head_ = Index(1);
    --size_;
  }

  // Destroys every element; the array is kept.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
  }

  // Removes the i-th element, shifting the ones behind it forward: the
  // remaining elements keep their FIFO order. O(size - i).
  void erase_at(size_t i) {
    DD_CHECK(i < size_) << "erase_at(" << i << ") past size " << size_;
    for (; i + 1 < size_; ++i) {
      (*this)[i] = std::move((*this)[i + 1]);
    }
    std::destroy_at(&(*this)[size_ - 1]);
    --size_;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t Index(size_t i) const { return (head_ + i) & (capacity_ - 1); }

  template <typename U>
  void Append(U&& value) {
    if (size_ == capacity_) {
      Grow();
    }
    std::construct_at(&slots_[Index(size_)], std::forward<U>(value));
    ++size_;
  }

  static void Deallocate(T* slots, size_t capacity) {
    if (slots != nullptr) {
      std::allocator<T>().deallocate(slots, capacity);
    }
  }

  // Doubles the array, moving the elements to its start in FIFO order.
  void Grow() {
    const size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* slots = std::allocator<T>().allocate(capacity);
    for (size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      std::construct_at(&slots[i], std::move(from));
      std::destroy_at(&from);
    }
    Deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  size_t capacity_ = 0;  // 0 or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_RING_FIFO_H_
