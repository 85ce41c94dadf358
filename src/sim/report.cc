#include "src/sim/report.h"

#include <iomanip>
#include <locale>
#include <sstream>

#include "src/sim/lock.h"

namespace sim {

namespace {

// All report output is formatted into a stream pinned to the classic "C"
// locale with fixed precision. Writing straight to the caller's stream
// would inherit its locale (decimal comma, digit grouping under e.g. de_DE)
// and the default 6-significant-digit double formatting — both of which
// break byte-identical output across environments.
std::ostringstream ClassicStream() {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(6);
  return os;
}

}  // namespace

std::string FormatSeconds(Nanoseconds ns) {
  std::ostringstream os = ClassicStream();
  os << static_cast<double>(ns) * 1e-9;
  return os.str();
}

void ReportCostBreakdown(std::ostream& os, const Machine& machine) {
  const CostBreakdown& b = machine.breakdown();
  std::ostringstream out = ClassicStream();
  out << "cost breakdown (virtual time by category):\n";
  for (std::size_t i = 0; i < kNumCostCats; ++i) {
    CostCat c = static_cast<CostCat>(i);
    if (b.ns_of(c) == 0 && b.charges_of(c) == 0) {
      continue;
    }
    out << "  " << std::left << std::setw(8) << CostCatName(c) << std::right
        << FormatSeconds(static_cast<Nanoseconds>(b.ns_of(c))) << " s in " << b.charges_of(c)
        << " charges\n";
  }
  out << "  total    " << FormatSeconds(static_cast<Nanoseconds>(b.total_ns())) << " s\n";
  os << out.str();
}

void ReportStats(std::ostream& os, const Machine& machine) {
  const Stats& s = machine.stats();
  std::ostringstream out = ClassicStream();
  out << "virtual time: " << FormatSeconds(machine.clock().now()) << " s\n";
  for (std::size_t i = 0; i < kNumStats; ++i) {
    out << kStatNames[i] << ' ' << s.*kStatFields[i] << '\n';
  }
  os << out.str();
  ReportCostBreakdown(os, machine);
}

void ReportLockTable(std::ostream& os, const Machine& machine) {
  std::ostringstream out = ClassicStream();
  out << "lock table (per class, registration order):\n"
      << "  " << std::left << std::setw(16) << "name" << std::setw(12) << "rank" << std::right
      << std::setw(8) << "locks" << std::setw(12) << "acquires" << std::setw(16) << "hold_ns"
      << std::setw(12) << "contended" << std::setw(16) << "wait_ns"
      << "\n";
  for (const LockClassTotals& t : LockTable(machine.locks())) {
    out << "  " << std::left << std::setw(16) << t.name << std::setw(12) << LockRankName(t.rank)
        << std::right << std::setw(8) << t.locks << std::setw(12) << t.acquisitions
        << std::setw(16) << t.hold_ns << std::setw(12) << t.contended_acquires
        << std::setw(16) << t.wait_ns << "\n";
  }
  os << out.str();
}

}  // namespace sim
