// Allocation tally for the traced pass.  alloc_count.cpp replaces the global
// operator new/delete and is linked into perfbench_traced only, so the
// untraced binary runs on the toolchain's allocator entry points unchanged.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

/// Zero the tally and count every operator new until stopAllocCounting().
void startAllocCounting();
AllocTally stopAllocCounting();

/// Keeps the benchmark's own bookkeeping inside a counting window out of the
/// tally: nothing allocated while an instance lives is counted.
class Uncounted {
 public:
  Uncounted();
  ~Uncounted();
  Uncounted(const Uncounted&) = delete;
  Uncounted& operator=(const Uncounted&) = delete;
};

}  // namespace perfbench
