// Fixture: map use the map-raw-clip rule must accept — a range op written
// as a walker visit, a helper whose name merely starts with ClipStart, a
// comment that mentions ClipEnd(, and an annotated raw clip.
#include <cstdint>

#include "src/sim/addr_map.h"

namespace core {

struct Entry {
  std::uint64_t start;
  std::uint64_t end;
  int prot;
};

int ClipStartRefCount(const Entry& e) { return e.prot; }

// The walker does the clipping; ClipEnd( in this comment is not a call.
int GoodProtect(sim::AddrMap<Entry>& map, std::uint64_t start, std::uint64_t end) {
  return map.WalkRange(
      nullptr, start, end, [](Entry&) {},
      [](Entry* it) {
        it->prot = 1;
        return 0;
      });
}

void AnnotatedClip(sim::AddrMap<Entry>& map, Entry* it, std::uint64_t va) {
  // SIM_MAP_CLIP_OK: fixture exercises the escape hatch on purpose.
  map.ClipEnd(it, va);
}

}  // namespace core
