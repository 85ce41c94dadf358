// Fixture: the same src/vm page copy, charged. Expect zero findings.
#include <cstddef>
#include <cstring>

namespace kern {

constexpr std::size_t kPageSize = 4096;

struct VmClock {
  void Advance(long ns) { now += ns; }
  long now = 0;
};

void ChargedSharedCopy(VmClock& clock, unsigned char* dst, const unsigned char* src) {
  clock.Advance(12000);
  std::memcpy(dst, src, kPageSize);
}

}  // namespace kern
