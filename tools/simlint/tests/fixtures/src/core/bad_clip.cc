// Fixture: a hand-written clip-and-visit loop outside src/sim/addr_map.h.
// Expect one map-raw-clip finding per raw ClipStart / ClipEnd call and per
// ClipReservation use — range operations clip only through the walker.
#include <cstdint>

#include "src/sim/addr_map.h"

namespace core {

struct Entry {
  std::uint64_t start;
  std::uint64_t end;
  int prot;
};

// The pre-walker shape of mprotect: its own reservation, its own clips,
// and no split hook, so the new half never gets its reference.
void BadProtect(sim::AddrMap<Entry>& map, Entry* it, std::uint64_t start, std::uint64_t end) {
  sim::AddrMap<Entry>::ClipReservation clipres;  // LINE-RAW-RESERVATION
  clipres.Acquire(map, start, end);
  if (it->start < start) {
    it = map.ClipStart(it, start);  // LINE-RAW-CLIPSTART
  }
  if (it->end > end) {
    map.ClipEnd(it, end);  // LINE-RAW-CLIPEND
  }
  it->prot = 1;
}

}  // namespace core
