// 4-level virtual-to-physical page table — the HOST_V2P / GPU_V2P
// structures the APEnet+ firmware maintains (paper §III-B/§IV: "a 4-level
// GPU V2P page table is maintained, which resolves virtual addresses to
// GPU page descriptors", with "constant traversal time thanks to the
// 4-level page table").
//
// A radix tree with 9 translation bits per level covers page_shift+36 bits
// of virtual address space (48 bits for 4 KB host pages, 52 for 64 KB GPU
// pages). Lookup walks exactly four nodes, which is why the firmware's
// translation cost is constant regardless of how much memory is mapped.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

namespace apn::core {

class PageTable {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kBitsPerLevel = 9;
  static constexpr std::size_t kFanout = 1u << kBitsPerLevel;

  /// `page_shift`: 12 for 4 KB host pages, 16 for 64 KB GPU pages.
  explicit PageTable(int page_shift) : page_shift_(page_shift) {}

  std::uint64_t page_bytes() const { return 1ull << page_shift_; }

  /// Map [vaddr, vaddr+len) to physical addresses starting at `phys`.
  /// Both addresses are truncated to page alignment; every covered page
  /// gets one descriptor. Remapping an existing page overwrites it.
  void map(std::uint64_t vaddr, std::uint64_t phys, std::uint64_t len) {
    if (len == 0) return;
    std::uint64_t first = vaddr >> page_shift_;
    std::uint64_t last = (vaddr + len - 1) >> page_shift_;
    std::uint64_t phys_page = phys >> page_shift_;
    for (std::uint64_t p = first; p <= last; ++p, ++phys_page)
      insert(p, phys_page << page_shift_);
  }

  /// Remove the descriptors covering [vaddr, vaddr+len).
  void unmap(std::uint64_t vaddr, std::uint64_t len) {
    if (len == 0) return;
    std::uint64_t first = vaddr >> page_shift_;
    std::uint64_t last = (vaddr + len - 1) >> page_shift_;
    for (std::uint64_t p = first; p <= last; ++p) erase(p);
  }

  /// Translate a virtual address; nullopt if the page is not mapped.
  std::optional<std::uint64_t> lookup(std::uint64_t vaddr) const {
    std::uint64_t page = vaddr >> page_shift_;
    const Node* node = &root_;
    for (int level = kLevels - 1; level > 0; --level) {
      const auto& slot = node->children[index(page, level)];
      if (!slot) return std::nullopt;
      node = slot.get();
    }
    const Leaf& leaf = node->leaves[index(page, 0)];
    if (!leaf.valid) return std::nullopt;
    return leaf.phys | (vaddr & (page_bytes() - 1));
  }

  bool is_mapped(std::uint64_t vaddr) const {
    return lookup(vaddr).has_value();
  }

  std::size_t mapped_pages() const { return mapped_; }
  /// Interior nodes allocated — the firmware-memory footprint proxy.
  std::size_t resident_nodes() const { return nodes_; }

 private:
  struct Leaf {
    std::uint64_t phys = 0;
    bool valid = false;
  };
  struct Node {
    // Level >0 nodes use children; level-0 nodes use leaves. Allocating
    // both arrays per node would be wasteful; a union of vectors keeps it
    // simple and safe.
    std::array<std::unique_ptr<Node>, kFanout> children{};
    std::array<Leaf, kFanout> leaves{};
  };

  static std::size_t index(std::uint64_t page, int level) {
    return static_cast<std::size_t>((page >> (kBitsPerLevel * level)) &
                                    (kFanout - 1));
  }

  void insert(std::uint64_t page, std::uint64_t phys) {
    Node* node = &root_;
    for (int level = kLevels - 1; level > 0; --level) {
      auto& slot = node->children[index(page, level)];
      if (!slot) {
        slot = std::make_unique<Node>();
        ++nodes_;
      }
      node = slot.get();
    }
    Leaf& leaf = node->leaves[index(page, 0)];
    if (!leaf.valid) ++mapped_;
    leaf = Leaf{phys, true};
  }

  void erase(std::uint64_t page) {
    Node* node = &root_;
    for (int level = kLevels - 1; level > 0; --level) {
      auto& slot = node->children[index(page, level)];
      if (!slot) return;
      node = slot.get();
    }
    Leaf& leaf = node->leaves[index(page, 0)];
    if (leaf.valid) {
      leaf.valid = false;
      --mapped_;
    }
  }

  int page_shift_;
  Node root_;
  std::size_t mapped_ = 0;
  std::size_t nodes_ = 0;
};

}  // namespace apn::core
