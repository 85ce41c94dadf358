// Human-readable reporting of a machine's statistics counters — the
// simulator's equivalent of vmstat(1). Used by examples and benches and
// handy when debugging a failing scenario.
#ifndef SRC_SIM_REPORT_H_
#define SRC_SIM_REPORT_H_

#include <ostream>
#include <string>

#include "src/sim/machine.h"

namespace sim {

// All report output is locale-independent (classic "C" locale) and
// fixed-precision, so it is byte-identical regardless of the host
// environment or any std::locale::global() the embedding program set.

// Virtual nanoseconds as fixed-precision seconds ("1.234567").
std::string FormatSeconds(Nanoseconds ns);

// The virtual time, then one "name value" line for every Stats counter in
// SIM_STATS order (zeros included, so two runs diff line by line), then the
// per-category cost breakdown.
void ReportStats(std::ostream& os, const Machine& machine);

// Just the per-category virtual-time breakdown.
void ReportCostBreakdown(std::ostream& os, const Machine& machine);

// Per-lock-class attribution table (DESIGN.md §15): every lock class ever
// registered with the machine's LockRegistry, in first-registration order,
// with instance counts, acquisitions, and virtual hold time. Not part of
// ReportStats; callers opt in (e.g. `bench_fleet --locks`).
void ReportLockTable(std::ostream& os, const Machine& machine);

}  // namespace sim

#endif  // SRC_SIM_REPORT_H_
