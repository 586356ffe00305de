// Small-buffer-optimized message payload.
//
// Every quantity the paper's protocols exchange per message — ids, random
// draws, TTLs, (arc, color) pairs — is a handful of int64 words, so the
// std::vector the Message type used to carry heap-allocated on virtually
// every send. SmallPayload stores up to kInlineCapacity words inline and
// only spills to the heap for the rare large payload (knowledge floods,
// reliable-wrapper frames), making the common send/deliver path
// allocation-free. The API is the subset of std::vector<std::int64_t> the
// protocols actually use, so call sites are unchanged.
//
// clear() keeps a spilled buffer (reset, not freed): a payload object that
// is reused round after round — the engines' message slabs — settles into a
// steady state with zero allocator traffic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "support/check.h"

namespace fdlsp {

/// Inline-first sequence of int64 payload words (see header comment).
class SmallPayload {
 public:
  using value_type = std::int64_t;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  /// Words stored without heap allocation. Four covers every tag the
  /// built-in protocols send outside bulk knowledge floods.
  static constexpr std::size_t kInlineCapacity = 4;

  SmallPayload() noexcept = default;

  SmallPayload(std::initializer_list<value_type> init) {
    assign(init.begin(), init.end());
  }

  /// Implicit on purpose: protocols build bulk payloads in a plain vector
  /// and hand it over with `message.data = std::move(pairs)`.
  SmallPayload(const std::vector<value_type>& values) {  // NOLINT
    assign(values.begin(), values.end());
  }

  SmallPayload(const SmallPayload& other) {
    assign(other.begin(), other.end());
  }

  SmallPayload(SmallPayload&& other) noexcept { steal(other); }

  SmallPayload& operator=(const SmallPayload& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  /// Move-assignment SWAPS buffers instead of freeing the destination's:
  /// the moved-from payload walks away with our old capacity, so in the
  /// engines' recycling loops (message slabs, scratch messages) spilled
  /// buffers circulate between slots instead of being freed and
  /// reallocated — the steady state allocates nothing. The moved-from
  /// object is still valid-but-unspecified, exactly as std::vector's.
  ///
  /// One refinement on the plain swap: an inline source never takes a
  /// spilled destination's buffer. The source is usually a dying temporary
  /// (a two-word ack posted into a recycled slab slot), and a swap would
  /// ship the slot's hard-won capacity to the grave with it — the next
  /// large payload into that slot would have to reallocate.
  SmallPayload& operator=(SmallPayload&& other) noexcept {
    if (this == &other) return *this;
    if (other.heap_ == nullptr && heap_ != nullptr) {
      // Spilled capacity is always > kInlineCapacity, so the copy fits.
      std::copy(other.inline_, other.inline_ + other.size_, heap_);
      size_ = other.size_;
      other.size_ = 0;
      return *this;
    }
    swap(other);
    return *this;
  }

  SmallPayload& operator=(std::initializer_list<value_type> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  SmallPayload& operator=(const std::vector<value_type>& values) {
    assign(values.begin(), values.end());
    return *this;
  }

  ~SmallPayload() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// True when the payload lives on the heap (diagnostics/tests only).
  bool spilled() const noexcept { return heap_ != nullptr; }

  value_type* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  const value_type* data() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  value_type& operator[](std::size_t i) {
    FDLSP_ASSERT(i < size_, "payload index out of range");
    return data()[i];
  }
  const value_type& operator[](std::size_t i) const {
    FDLSP_ASSERT(i < size_, "payload index out of range");
    return data()[i];
  }

  value_type& front() { return (*this)[0]; }
  const value_type& front() const { return (*this)[0]; }
  value_type& back() { return (*this)[size_ - 1]; }
  const value_type& back() const { return (*this)[size_ - 1]; }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) grow(wanted);
  }

  /// Drops the contents but keeps any spilled buffer for reuse.
  void clear() noexcept { size_ = 0; }

  /// Swaps contents and capacities with `other`; never allocates.
  void swap(SmallPayload& other) noexcept {
    if (heap_ == nullptr && other.heap_ == nullptr) {
      // Words past both sizes are dead storage; swapping only the live
      // prefix keeps the engines' one-word control frames cheap.
      const std::size_t live = size_ > other.size_ ? size_ : other.size_;
      for (std::size_t i = 0; i < live; ++i)
        std::swap(inline_[i], other.inline_[i]);
      std::swap(size_, other.size_);
      return;
    }
    if (heap_ != nullptr && other.heap_ != nullptr) {
      std::swap(heap_, other.heap_);
      std::swap(capacity_, other.capacity_);
      std::swap(size_, other.size_);
      return;
    }
    // Mixed: the inline side's words move into the spilled side's inline
    // array (dead storage while it owned a heap buffer), then the heap
    // buffer changes hands.
    SmallPayload* spilled = heap_ != nullptr ? this : &other;
    SmallPayload* local = heap_ != nullptr ? &other : this;
    std::copy(local->inline_, local->inline_ + local->size_, spilled->inline_);
    local->heap_ = spilled->heap_;
    local->capacity_ = spilled->capacity_;
    spilled->heap_ = nullptr;
    spilled->capacity_ = kInlineCapacity;
    std::swap(size_, other.size_);
  }

  void push_back(value_type value) {
    if (size_ == capacity_) grow(size_ + 1);
    data()[size_++] = value;
  }

  void pop_back() {
    FDLSP_ASSERT(size_ > 0, "pop_back on empty payload");
    --size_;
  }

  template <typename InputIt>
  void assign(InputIt first, InputIt last) {
    const auto count =
        static_cast<std::size_t>(std::distance(first, last));
    if (count > capacity_) grow_discard(count);
    std::copy(first, last, data());
    size_ = count;
  }

  /// Inserts [first, last) before `pos`. Only forward iterators are
  /// supported (every call site inserts from arrays or vectors).
  template <typename InputIt>
  iterator insert(const_iterator pos, InputIt first, InputIt last) {
    const auto index = static_cast<std::size_t>(pos - begin());
    FDLSP_ASSERT(index <= size_, "insert position out of range");
    const auto count =
        static_cast<std::size_t>(std::distance(first, last));
    if (count == 0) return begin() + index;
    if (size_ + count > capacity_) grow(size_ + count);
    value_type* base = data();
    std::copy_backward(base + index, base + size_, base + size_ + count);
    std::copy(first, last, base + index);
    size_ += count;
    return base + index;
  }

  friend bool operator==(const SmallPayload& a, const SmallPayload& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  /// Moves other's contents into *this (assumes *this owns no heap buffer).
  void steal(SmallPayload& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
      other.capacity_ = kInlineCapacity;
    } else {
      heap_ = nullptr;
      capacity_ = kInlineCapacity;
      std::copy(other.inline_, other.inline_ + other.size_, inline_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void release() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = kInlineCapacity;
  }

  /// Grows to at least `wanted`, preserving contents. Doubles so repeated
  /// push_back stays amortized O(1).
  void grow(std::size_t wanted) {
    const std::size_t target = std::max(wanted, capacity_ * 2);
    auto* fresh = new value_type[target];
    std::copy(data(), data() + size_, fresh);
    delete[] heap_;
    heap_ = fresh;
    capacity_ = target;
  }

  /// Grows to at least `wanted` without preserving contents (assign path).
  void grow_discard(std::size_t wanted) {
    const std::size_t target = std::max(wanted, capacity_ * 2);
    auto* fresh = new value_type[target];
    delete[] heap_;
    heap_ = fresh;
    capacity_ = target;
  }

  value_type inline_[kInlineCapacity] = {};
  value_type* heap_ = nullptr;  // non-null once spilled; owns capacity_ words
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineCapacity;
};

}  // namespace fdlsp
