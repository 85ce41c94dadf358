#!/usr/bin/env python3
"""Fleet host-time benchmark: kernel ops per host second on three traffic mixes.

Builds fleet_bench (this directory's CMake package, which compiles the
repository's src/ from source), runs one workload on both VM systems, checks
every deterministic result against the other repetitions and the recorded
fingerprints, and prints the metrics. See README.md.

  python3 fleetbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0
  python3 fleetbench/run.py --workload all      # every workload, both modes, as tables
  python3 fleetbench/run.py --selftest          # decorator-fidelity tests
  python3 fleetbench/run.py --record            # rewrite expected.json (model changes only)

The last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics from untraced runs;
--trace 1 the per-layer metrics from runs whose kernel goes through the
timing decorator. Exit status is 1 when a fingerprint check fails and 2 when
the benchmark cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("fleet", "fleet_pressure", "fleet_smp_shared")
VMS = ("uvm", "bsdvm")
OPS = 1_000_000  # kernel ops per VM in every repetition (fleet_bench's kOps)
# Seeds with recorded full-budget fingerprints: the default, and one held
# out of every run that set the benchmark's bounds.
RECORDED_SEEDS = (1, 9001)
BUILD_JOBS = 2
# fleet_bench's reference loop time on the development host (README.md).
# End-to-end timings are scaled by REF_NOMINAL_S / (the reference time
# measured around each repetition): host seconds at that nominal speed.
REF_NOMINAL_S = 0.05

CALL_CLASSES = ("fault_write", "fault_read", "fork", "unmap", "exit", "map", "msync",
                "proc_alloc")
# Fingerprint counts reported as per-layer metrics.
COUNTS = (
    "phys.pages_zeroed",
    "phys.pages_copied",
    "mmu.pte_cache_hits",
    "sim.map_lookup_probes",
    "sim.map_hint_hits",
    "sim.lock_acquisitions",
    "sim.lock_contended",
    "sim.pool_allocs",
    "sim.pool_high_water",
    "vm.faults",
    "vm.fault_neighbor_maps",
    "vm.anons_allocated",
    "vm.shadows_created",
    "vfs.disk_pages_read",
    "vfs.vnode_recycles",
    "swap.pages_out",
    "swap.pages_in",
)
VTIME_CATS = ("fault", "pagein", "pageout", "pmap", "copy", "lock", "alloc", "fork", "map")


class BenchError(Exception):
    """The benchmark could not be built or run (exit status 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build -----------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "fleetbench"


def build(target):
    if not (ROOT / "src" / "kern" / "fleet.h").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / target


# --- One benchmark process ---------------------------------------------------

def run_bench(exe, workload, seed, seconds, trace):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * seconds + 90)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"fleet_bench timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        raise BenchError(f"fleet_bench exited {proc.returncode}: {' '.join(cmd)}")
    reps = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if not reps or reps[-1].get("phase") != "end":
        raise BenchError("fleet_bench output is truncated")
    return reps[:-1], reps[-1]["peak_rss_kb"]


# --- Fingerprint checks ------------------------------------------------------

def fp_diff(what, want, got):
    errors = []
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            errors.append(f"{what}: {key} expected {want.get(key)} got {got.get(key)}")
    return errors


def load_expected():
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED, encoding="utf-8") as f:
        return json.load(f)


def check_fingerprints(workload, seed, reps, recorded):
    """Every repetition of a VM agrees, and, unless `recorded` is None (while
    recording), the canary and any recorded seed match their fingerprints."""
    errors = []
    for vm in VMS:
        mine = [r for r in reps if r["vm"] == vm]
        full = [r for r in mine if r["phase"] != "canary"]
        base = next(r for r in full if r["phase"] == "timed")
        for r in full:
            if r["phase"] == "traced":
                errors += fp_diff(f"{workload}/{vm} traced vs untraced", base["fp"], r["fp"])
            else:
                errors += fp_diff(f"{workload}/{vm} across repetitions", base["fp"], r["fp"])
        if base["fp"]["fleet.ops"] < OPS:
            errors.append(f"{workload}/{vm}: ran {base['fp']['fleet.ops']} of {OPS} ops")
        if recorded is None:
            continue
        for r in (r for r in mine if r["phase"] == "canary"):
            want = recorded.get("canary", {}).get(vm)
            if want is None:
                errors.append(f"{workload}/{vm}: no recorded canary fingerprint")
            else:
                errors += fp_diff(f"{workload}/{vm} canary (seed 1)",
                                  want, r["fp"])
        want = recorded.get("seeds", {}).get(str(seed), {}).get(vm)
        if want is not None:
            errors += fp_diff(f"{workload}/{vm} recorded seed {seed}", want, base["fp"])
    return errors


# --- Metrics -----------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def nominal(r, key):
    """Host time `key` of repetition `r`, scaled to the nominal host speed."""
    return r[key] * REF_NOMINAL_S / r["ref_s"]


def end_to_end(reps, peak_rss_kb):
    timed = {vm: [r for r in reps if r["phase"] == "timed" and r["vm"] == vm] for vm in VMS}
    m = {}
    for vm in VMS:
        m[f"{vm}.kops_per_s"] = metric(
            median([r["fp"]["fleet.ops"] / nominal(r, "run_s") / 1e3 for r in timed[vm]]),
            "kops/s")
    # One set-up sample per round: both VMs' World + FleetWorkload builds.
    rounds = zip(*(timed[vm] for vm in VMS))
    m["setup_s"] = metric(median([sum(nominal(r, "setup_s") for r in rnd) for rnd in rounds]),
                          "s")
    m["peak_rss_mb"] = metric(peak_rss_kb / 1024.0, "MB")
    ops = sum(timed[vm][0]["fp"]["fleet.ops"] for vm in VMS)
    lost = sum(timed[vm][0]["fp"]["fleet.soft_errors"] +
               timed[vm][0]["fp"]["fleet.workers_respawned"] for vm in VMS)
    m["ok_ratio"] = metric(1.0 - lost / ops, "fraction")
    return m


def per_layer(reps):
    m = {}
    run_s = {}
    for vm in VMS:
        traced = [r for r in reps if r["phase"] == "traced" and r["vm"] == vm]
        untraced = [r for r in reps if r["phase"] == "timed" and r["vm"] == vm]
        run_s[vm] = (median([r["run_s"] for r in traced]), median([r["run_s"] for r in untraced]))
        fp = traced[0]["fp"]
        ops = fp["fleet.ops"]

        def vm_ns(r):
            return sum(c["ns"] for c in r["calls"].values())

        m[f"{vm}.kern.self_ns_per_op"] = metric(
            median([(r["run_s"] * 1e9 - vm_ns(r)) / ops for r in traced]), "ns")
        m[f"{vm}.vm.share"] = metric(median([vm_ns(r) / (r["run_s"] * 1e9) for r in traced]),
                                     "fraction")
        for c in CALL_CLASSES:
            calls = [r["calls"][c] for r in traced]
            m[f"{vm}.vm.{c}.calls"] = metric(calls[0]["calls"], "count")
            m[f"{vm}.vm.{c}.p50_ns"] = metric(median([x["p50_ns"] for x in calls]), "ns")
            m[f"{vm}.vm.{c}.p99_ns"] = metric(median([x["p99_ns"] for x in calls]), "ns")
            m[f"{vm}.vm.{c}.ms"] = metric(median([x["ns"] / 1e6 for x in calls]), "ms")
        m[f"{vm}.vm.other.ms"] = metric(median([r["calls"]["other"]["ns"] / 1e6 for r in traced]),
                                        "ms")
        for name in COUNTS:
            m[f"{vm}.{name}"] = metric(fp[name], "count")
        for cat in VTIME_CATS:
            m[f"{vm}.vtime.{cat}_ms"] = metric(fp[f"vtime.{cat}_ns"] / 1e6, "ms")
        total = sum(v for k, v in fp.items() if k.startswith("vtime.") and k != "vtime.now_ns")
        m[f"{vm}.vtime.total_ms"] = metric(total / 1e6, "ms")
    traced_s = sum(t for t, _ in run_s.values())
    untraced_s = sum(u for _, u in run_s.values())
    m["trace_overhead_pct"] = metric(100.0 * (traced_s / untraced_s - 1.0), "%")
    m["ref_loop_ms"] = metric(median([r["ref_s"] * 1e3 for r in reps if r["phase"] == "timed"]),
                              "ms")
    return m


def measure(exe, workload, seed, seconds, trace, expected):
    reps, peak_rss_kb = run_bench(exe, workload, seed, seconds, trace)
    errors = check_fingerprints(workload, seed, reps, expected.get(workload, {}))
    counted = [r for r in reps if r["phase"] in ("timed", "traced")]
    result = {
        "correct": not errors,
        "attempted": sum(r["fp"]["fleet.ops"] for r in counted),
        "failed": sum(r["fp"]["fleet.soft_errors"] + r["fp"]["fleet.workers_respawned"]
                      for r in counted),
        "metrics": per_layer(reps) if trace else end_to_end(reps, peak_rss_kb),
    }
    return result, errors


# --- Modes -------------------------------------------------------------------

def record(exe):
    """Rewrite expected.json. Only a change that sets out to alter the cost
    model may do this; a host-only change must pass against the old file."""
    def first_fp(reps, vm, phase):
        return next(r["fp"] for r in reps if r["vm"] == vm and r["phase"] == phase)

    expected = {}
    for workload in WORKLOADS:
        entry = {"seeds": {}}
        for seed in RECORDED_SEEDS:
            reps, _ = run_bench(exe, workload, seed, 0, False)
            errors = check_fingerprints(workload, seed, reps, None)
            if errors:
                raise BenchError("; ".join(errors))
            entry["seeds"][str(seed)] = {vm: first_fp(reps, vm, "timed") for vm in VMS}
            entry["canary"] = {vm: first_fp(reps, vm, "canary") for vm in VMS}
        expected[workload] = entry
        log(f"recorded {workload}")
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def report(exe, seed, seconds, expected):
    """Every workload in both modes, as readable tables."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, errors = measure(exe, workload, seed, seconds, trace, expected)
            ok = ok and not errors
            for e in errors:
                log("FINGERPRINT " + e)
            kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
            print(f"\n== {workload}: {kind}, seed {seed}, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}")
            for name, v in result["metrics"].items():
                print(f"  {name:<34} {v['value']:>16.6g} {v['unit']}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (args.selftest or args.record or args.workload):
        ap.error("one of --workload, --selftest or --record is required")
    try:
        if args.selftest:
            return subprocess.run([str(build("fleetbench_tests"))]).returncode
        exe = build("fleet_bench")
        if args.record:
            record(exe)
            return 0
        expected = load_expected()
        if args.workload == "all":
            return 0 if report(exe, args.seed, args.seconds, expected) else 1
        result, errors = measure(exe, args.workload, args.seed, args.seconds, bool(args.trace),
                                 expected)
    except BenchError as e:
        log(f"fleetbench: {e}")
        return 2
    for e in errors:
        log("FINGERPRINT " + e)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
