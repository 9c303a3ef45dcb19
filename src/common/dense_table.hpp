#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cash {

// Dense tables over small non-negative ids (registers, slots, blocks,
// symbols), for the compiler passes' per-thread scratch (DESIGN.md §7).
// Storage only grows: a table kept across calls stops allocating once it
// has seen the largest function, so no per-instruction path builds
// std::set/std::map nodes.

// A set of ids that empties in O(1): an id is present only while its stamp
// equals the current epoch, so clear() just advances the epoch.
class StampedSet {
 public:
  // Empties the set and makes ids [0, ids) insertable.
  void clear(std::size_t ids) {
    if (stamps_.size() < ids) {
      stamps_.resize(ids, 0);
    }
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }
  // Any id may be asked about; ids outside the insertable range are absent.
  bool contains(std::int32_t id) const {
    const auto i = static_cast<std::size_t>(id);
    return id >= 0 && i < stamps_.size() && stamps_[i] == epoch_;
  }
  void insert(std::int32_t id) { stamps_[static_cast<std::size_t>(id)] = epoch_; }
  // Inserts and reports whether the id was new.
  bool add(std::int32_t id) {
    std::uint32_t& stamp = stamps_[static_cast<std::size_t>(id)];
    const bool fresh = stamp != epoch_;
    stamp = epoch_;
    return fresh;
  }
  void erase(std::int32_t id) { stamps_[static_cast<std::size_t>(id)] = 0; }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_{0};
};

// A StampedSet with a value per id.
template <typename T>
class StampedMap {
 public:
  void clear(std::size_t ids) {
    keys_.clear(ids);
    if (values_.size() < ids) {
      values_.resize(ids);
    }
  }
  bool contains(std::int32_t id) const { return keys_.contains(id); }
  const T* find(std::int32_t id) const {
    return contains(id) ? &values_[static_cast<std::size_t>(id)] : nullptr;
  }
  void set(std::int32_t id, T value) {
    keys_.insert(id);
    values_[static_cast<std::size_t>(id)] = std::move(value);
  }
  // The value for `id`, default-constructed-on-first-use in this epoch.
  // Earlier epochs' values are reset with `fresh` so their storage (a
  // vector's capacity, say) is reused.
  template <typename Reset>
  T& get(std::int32_t id, const Reset& fresh) {
    T& value = values_[static_cast<std::size_t>(id)];
    if (keys_.add(id)) {
      fresh(value);
    }
    return value;
  }
  void erase(std::int32_t id) { keys_.erase(id); }

 private:
  StampedSet keys_;
  std::vector<T> values_;
};

// A scratch list whose elements keep their storage when it is cleared:
// claim() hands back an element an earlier use left (the caller resets
// what it reads) before it constructs a new one. For lists of objects that
// own vectors.
template <typename T>
class ReuseList {
 public:
  void clear() { size_ = 0; }
  // Drops all elements from index `n` on, keeping their storage.
  void truncate(std::size_t n) { size_ = n; }
  T& claim() {
    if (size_ == items_.size()) {
      items_.emplace_back();
    }
    return items_[size_++];
  }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }

 private:
  std::vector<T> items_;
  std::size_t size_{0};
};

} // namespace cash
