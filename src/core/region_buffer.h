#ifndef BENU_CORE_REGION_BUFFER_H_
#define BENU_CORE_REGION_BUFFER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.h"

namespace benu {

class MemoryGovernor;

/// Region (bump-pointer) allocator for frontier batches: the hybrid ENU
/// path materializes candidate slices into one of these per executor.
/// Allocation is a pointer bump within the current block; blocks are
/// sized geometrically and their *capacity* is pinned against the memory
/// governor the moment they are reserved, so the governor sees frontier
/// pressure before the bytes are filled in.
///
/// Reclamation is stack-disciplined, matching the backtracking search:
/// `mark()` snapshots the allocation point before a batch, `PopTo`
/// releases everything allocated since (freeing — and unpinning — whole
/// blocks past the mark). One spare block is kept across PopTo so the
/// steady-state batch→drain→pop loop reuses memory instead of hitting
/// the allocator every ENU.
///
/// Not thread-safe: one RegionBuffer belongs to one executor (one OS
/// thread), like every other executor scratch buffer.
class RegionBuffer {
 public:
  /// Default block capacity, in VertexId entries (64 KiB).
  static constexpr size_t kDefaultBlockIds = 16384;

  struct Mark {
    size_t block = 0;   ///< index of the block that was current
    size_t used = 0;    ///< entries used in that block
  };

  explicit RegionBuffer(MemoryGovernor* governor = nullptr)
      : governor_(governor) {}
  ~RegionBuffer();

  RegionBuffer(const RegionBuffer&) = delete;
  RegionBuffer& operator=(const RegionBuffer&) = delete;

  /// Re-binds the governor. Only legal while the region is empty (the
  /// executor wires the governor in after construction).
  void BindGovernor(MemoryGovernor* governor);

  /// Contiguous uninitialized array of `count` vertex ids, valid until
  /// the enclosing mark is popped (or the region is destroyed). Never
  /// spans blocks; a request larger than the default block gets a
  /// dedicated block of exactly its size.
  VertexId* AllocateArray(size_t count);

  Mark mark() const { return Mark{current_, used_}; }

  /// Releases everything allocated since `m` (stack discipline: marks
  /// must be popped in reverse order of taking them). Frees and unpins
  /// whole blocks past the mark, keeping at most one spare.
  void PopTo(const Mark& m);

  /// Releases everything, including the spare block.
  void Reset();

  /// Block capacity bytes currently pinned (what the governor was told).
  size_t pinned_bytes() const { return pinned_bytes_; }

 private:
  struct Block {
    std::unique_ptr<VertexId[]> data;
    size_t capacity = 0;
  };

  /// Appends (or reuses the spare as) a block holding >= `count` entries.
  void PushBlock(size_t count);
  void Unpin(size_t bytes);

  MemoryGovernor* governor_;
  std::vector<Block> blocks_;
  size_t current_ = 0;       ///< index of the block being bumped
  size_t used_ = 0;          ///< entries used in blocks_[current_]
  size_t pinned_bytes_ = 0;
  Block spare_;              ///< one freed block kept for reuse
};

}  // namespace benu

#endif  // BENU_CORE_REGION_BUFFER_H_
