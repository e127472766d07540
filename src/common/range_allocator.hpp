// First-fit free-list allocator over a simulated address range: GPU
// memory at CUDA's 256 B alignment, host memory in 4 KB pages. Addresses
// depend only on the order of the calls, never on the process heap.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <new>
#include <optional>
#include <stdexcept>

namespace apn {

class RangeAllocator {
 public:
  /// Hands out `align`-aligned blocks of [base, base + size).
  RangeAllocator(std::uint64_t base, std::uint64_t size, std::uint64_t align)
      : align_(align) {
    free_[base] = size;
  }

  /// Returns the block's address; throws std::bad_alloc when full.
  std::uint64_t allocate(std::uint64_t size) {
    const std::uint64_t need = rounded(size);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second < need) continue;
      // Blocks move between the maps with their nodes, so an allocation
      // allocates at most the remainder's node and a free allocates none.
      auto block = free_.extract(it);
      const std::uint64_t base = block.key();
      if (block.mapped() > need)
        free_.emplace(base + need, block.mapped() - need);
      block.mapped() = size;
      live_.insert(std::move(block));
      used_ += need;
      return base;
    }
    throw std::bad_alloc();
  }

  void deallocate(std::uint64_t base) {
    auto it = live_.find(base);
    if (it == live_.end())
      throw std::invalid_argument("deallocate: unknown block");
    auto block = live_.extract(it);
    block.mapped() = rounded(block.mapped());
    used_ -= block.mapped();
    // Insert and coalesce with neighbors.
    auto ins = free_.insert(std::move(block)).position;
    if (ins != free_.begin()) {
      auto prev = std::prev(ins);
      if (prev->first + prev->second == ins->first) {
        prev->second += ins->second;
        free_.erase(ins);
        ins = prev;
      }
    }
    auto next = std::next(ins);
    if (next != free_.end() && ins->first + ins->second == next->first) {
      ins->second += next->second;
      free_.erase(next);
    }
  }

  /// Base of the live block whose requested size covers [addr, addr+len),
  /// or nullopt.
  std::optional<std::uint64_t> owner(std::uint64_t addr,
                                     std::uint64_t len) const {
    auto it = live_.upper_bound(addr);
    if (it == live_.begin()) return std::nullopt;
    --it;
    if (addr + len <= it->first + it->second) return it->first;
    return std::nullopt;
  }

  /// Requested size of the live block at `base`.
  std::uint64_t size_of(std::uint64_t base) const { return live_.at(base); }

  std::uint64_t used_bytes() const { return used_; }
  std::size_t live_blocks() const { return live_.size(); }

 private:
  std::uint64_t rounded(std::uint64_t size) const {
    const std::uint64_t need = (size + align_ - 1) / align_ * align_;
    return need == 0 ? align_ : need;
  }

  std::uint64_t align_;
  std::map<std::uint64_t, std::uint64_t> free_;  // base -> size
  std::map<std::uint64_t, std::uint64_t> live_;  // base -> requested size
  std::uint64_t used_ = 0;
};

}  // namespace apn
