// Fixture: src/vm is under cost-no-charge too (the shared syscall skeleton
// lives there). A raw page copy with no reachable charge: expect one
// finding on the memcpy.
#include <cstddef>
#include <cstring>

namespace kern {

constexpr std::size_t kPageSize = 4096;

void UnchargedSharedCopy(unsigned char* dst, const unsigned char* src) {
  std::memcpy(dst, src, kPageSize);  // LINE-VM-MEMCPY
}

}  // namespace kern
