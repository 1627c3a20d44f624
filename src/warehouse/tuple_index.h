// Fixed-width word tuples to dense ids: the one hash table behind the
// time-partitioned aggregation (query.cpp), the shard executor's rollup
// reader and the coordinator's partial merge (partial.cpp). Keys are words
// — dictionary codes, raw int64 bits or a double's exact bit pattern — never
// strings, so no tuple allocates.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace supremm::warehouse {

/// splitmix64 finalizer chained over a word tuple.
[[nodiscard]] inline std::uint64_t hash_words(const std::uint64_t* words, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t z = h ^ words[i];
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h = z ^ (z >> 31);
  }
  return h;
}

/// Flat open-addressing index from fixed-width word tuples to dense ids,
/// handed out in insertion order. Tuples live id-major in one array and
/// slots hold ids; the table doubles at half load, so probes stay short
/// and nothing is allocated per tuple. A width of zero is legal: every key
/// is the empty tuple, id 0.
class TupleIndex {
 public:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  explicit TupleIndex(std::size_t width) : width_(width), slots_(kInitialSlots, kNone) {}

  /// Sizes the table for `n` keys up front, so inserting them never
  /// rehashes.
  void reserve(std::size_t n) {
    keys_.reserve(n * width_);
    if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n));
  }

  /// Id of the `width` words at `key`, which becomes the next id if new
  /// (the key is new exactly when the returned id equals the old size()).
  std::uint32_t insert(const std::uint64_t* key) {
    std::size_t i = probe(key);
    if (slots_[i] != kNone) return slots_[i];
    const auto id = static_cast<std::uint32_t>(size_++);
    keys_.insert(keys_.end(), key, key + width_);
    slots_[i] = id;
    if (2 * size_ > slots_.size()) rehash(2 * slots_.size());
    return id;
  }

  /// Id of `key`, or kNone when it was never inserted.
  [[nodiscard]] std::uint32_t find(const std::uint64_t* key) const { return slots_[probe(key)]; }

  [[nodiscard]] const std::uint64_t* key(std::uint32_t id) const {
    return keys_.data() + std::size_t{id} * width_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void rehash(std::size_t nslots) {
    slots_.assign(nslots, kNone);
    const std::size_t mask = nslots - 1;
    for (std::uint32_t t = 0; t < size_; ++t) {
      std::size_t j = hash_words(key(t), width_) & mask;
      while (slots_[j] != kNone) j = (j + 1) & mask;
      slots_[j] = t;
    }
  }

  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(const std::uint64_t* key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_words(key, width_) & mask;
    while (slots_[i] != kNone && !std::equal(key, key + width_, this->key(slots_[i]))) {
      i = (i + 1) & mask;
    }
    return i;
  }

  static constexpr std::size_t kInitialSlots = 1024;
  std::size_t width_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> keys_;  // [id * width + word]
  std::vector<std::uint32_t> slots_;
};

}  // namespace supremm::warehouse
