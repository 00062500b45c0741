#!/usr/bin/env python3
"""Host-cost benchmark of the P3 simulator.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds the `perfbench` cargo
package (into $CARGO_TARGET_DIR, default `.bench_build`), then:

* `--trace 0` repeats end-to-end runs of the workload, each in a fresh
  process and bracketed by `ClusterSim::new` timing processes, for about
  `--seconds` seconds (at least MIN_REPS runs), and reports the end-to-end
  metrics of BENCHMARK.json as medians over the runs; `setup_s` is the
  median of the setup samples, each the median of the SETUP_REPS
  `ClusterSim::new` calls of one process (src/main.rs). Host times are
  scaled to a reference host speed (see `scaled` below);
* `--trace 1` runs the per-layer ledger once and reports the per-layer
  metrics of BENCHMARK.json.

Every metric is printed by name with its unit. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`. A run fails when it errors, a check inside it fails (audit,
Omega-bound, engine ledger, traced/untraced event hash, replay band), or
its event hash differs from the other runs of the same workload and seed.
Why each workload exists, the replay's accepted band and the held-out seed
are recorded in perfbench/workloads.json.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
RECORD = ROOT / "perfbench" / "workloads.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# End-to-end runs per invocation, whatever --seconds says: the event-hash
# check needs two, and a median wants more.
MIN_REPS = 3
# Host seconds of one calibration pass (src/calib.rs) on the reference host.
# Every host time is reported as it would read on a host this fast.
REFERENCE_CALIB_S = 0.1
# No end-to-end run is started that would end past this many seconds, so an
# invocation stays well inside three minutes.
HARD_STOP_S = 140.0
# CPU seconds after which a measuring process is killed.
CHILD_CPU_LIMIT_S = 170
# Seconds the build may take (the first run in a fresh checkout builds).
BUILD_TIMEOUT_S = 850


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "p3-perfbench"
    if done.returncode != 0 or not binary.exists():
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def child(binary, mode, workload, seed):
    """Runs one measuring process to its end. Returns its report (None if
    it crashed or printed no report) and its peak resident memory in MiB."""
    proc = subprocess.Popen([str(binary), mode, workload, str(seed)],
                            stdout=subprocess.PIPE, text=True, preexec_fn=limit_cpu)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reaps this one process and returns its own resource usage.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mib = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if proc.returncode != 0:
        return None, rss_mib
    try:
        return json.loads(out.strip().splitlines()[-1]), rss_mib
    except (ValueError, IndexError):
        return None, rss_mib


def scaled(seconds, rep):
    """`seconds` measured in the process that reported `rep`, scaled to the
    reference host speed.

    A shared virtual machine's vCPU runs the same code up to 1.5x slower
    from one minute to the next, without the process ever being
    descheduled; that drift, not the program, set the spread of unscaled
    times between invocations. Each measuring process times a frozen
    calibration kernel, which calls no simulator code, right before and
    right after its measurement and reports the mean as `calib_s`; the
    measured time is divided by calib_s / REFERENCE_CALIB_S. A change to
    the simulator moves the measured time and not calib_s."""
    return seconds * REFERENCE_CALIB_S / rep["calib_s"]


def deterministic_line(rep):
    keys = ["events", "event_hash", "sim_seconds", "throughput_img_s", "omega_ratio"]
    return "  simulated: " + ", ".join(f"{k} {rep[k]}" for k in keys if k in rep)


def end_to_end(binary, workload, seed, seconds, metrics):
    """Repeats end-to-end runs for about `seconds`, each in a fresh process.
    A `ClusterSim::new` timing process runs before the first run and after
    every run, so the setup samples spread over the whole invocation.
    Returns (correct, attempted, failed, measured metrics)."""
    began = time.monotonic()
    runs, setups, failed, first_hash = [], [], 0, None

    def time_setup():
        rep, _ = child(binary, "setup", workload, seed)
        if rep is not None and rep["ok"]:
            setups.append((scaled(rep["setup_s"], rep), rep["setup_s"]))
            return True
        return False

    setup_crashed = not time_setup()
    while True:
        started = time.monotonic()
        rep, rss_mib = child(binary, "e2e", workload, seed)
        setup_crashed = not time_setup() or setup_crashed
        took = time.monotonic() - started
        n = len(runs) + failed + 1
        if rep is None or setup_crashed:
            failed += 1
            print(f"  run {n}: a measuring process crashed or printed no report")
        elif not rep["ok"]:
            failed += 1
            print(f"  run {n}: " + "; ".join(rep["errors"]))
        elif first_hash is not None and rep["event_hash"] != first_hash:
            failed += 1
            print(f"  run {n}: event hash {rep['event_hash']} differs from {first_hash}")
        else:
            if first_hash is None:
                first_hash = rep["event_hash"]
                print(deterministic_line(rep))
            runs.append({
                "wall_s": scaled(rep["wall_s"], rep),
                # Iterations per second: 1 / time, so scaled by the inverse.
                "sim_iters_per_s": 1.0 / scaled(1.0 / rep["sim_iters_per_s"], rep),
                "peak_rss_mib": rss_mib,
                "raw_wall_s": rep["wall_s"],
                "calib_s": rep["calib_s"],
            })
            r = runs[-1]
            print(f"  run {n}: wall_s {r['wall_s']:.6g} s ({rep['wall_s']:.6g} s unscaled,"
                  f" calib_s {rep['calib_s']:.6g} s), sim_iters_per_s"
                  f" {r['sim_iters_per_s']:.6g} 1/s, peak_rss_mib {rss_mib:.6g} MiB")
        setup_crashed = False
        attempted = len(runs) + failed
        next_end = time.monotonic() - began + took
        if attempted >= MIN_REPS and (next_end > seconds or next_end > HARD_STOP_S):
            break
    measured = {}
    if runs:
        for m in metrics:
            if m["name"] == "setup_s":
                # Each sample is already a median over SETUP_REPS calls (see
                # src/main.rs).
                measured["setup_s"] = statistics.median(x for x, _ in setups)
            else:
                measured[m["name"]] = statistics.median(r[m["name"]] for r in runs)
        print(f"  unscaled medians: wall_s"
              f" {statistics.median(r['raw_wall_s'] for r in runs):.6g} s, calib_s"
              f" {statistics.median(r['calib_s'] for r in runs):.6g} s, setup_s"
              f" {statistics.median(raw for _, raw in setups):.6g} s")
    print(f"  {attempted} runs, {failed} failed (fail_frac {failed / attempted:.4f});"
          " scaled setup samples " + ", ".join(f"{x:.6g}" for x, _ in setups) + " s")
    return failed == 0, attempted, failed, measured


def per_layer(binary, workload, seed, band):
    """Runs the per-layer ledger once; returns (correct, 1, failed,
    measured metrics, reasons for absent metrics)."""
    rep, _ = child(binary, "layers", workload, seed)
    if rep is None:
        print("  ledger run crashed or printed no report")
        return False, 1, 1, {}, {}
    errors = list(rep["errors"])
    dev, exact = rep.get("net.replay_max_dev_ns"), rep.get("net.replay_exact_frac")
    if dev is not None and dev > band["max_dev_ns"]:
        errors.append(f"replay deviates {dev} ns, beyond the accepted {band['max_dev_ns']} ns")
    if exact is not None and exact < band["min_exact_frac"]:
        errors.append(f"replay exact on {exact} of deliveries, below the accepted"
                      f" {band['min_exact_frac']}")
    for e in errors:
        print(f"  check failed: {e}")
    print(deterministic_line(rep))
    return not errors, 1, int(bool(errors)), rep, rep["absent"]


def absent_reason(name, absent):
    for key, why in absent.items():
        if key == name or (key.endswith(".*") and name.startswith(key[:-1])):
            return why
    return "not reported by the ledger run"


def run_workload(binary, spec, record, workload, seed, seconds, trace):
    print(f"workload {workload} (seed {seed}, trace {trace})")
    if trace:
        metrics = spec["per_layer"]
        band = record["workloads"][workload]["replay_band"]
        correct, attempted, failed, rep, absent = per_layer(binary, workload, seed, band)
    else:
        metrics = spec["end_to_end"]
        correct, attempted, failed, rep = end_to_end(binary, workload, seed, seconds, metrics)
        absent = {}
    out = {}
    for m in metrics:
        name, unit = m["name"], m["unit"]
        value = rep.get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = {"value": value, "unit": unit}
            print(f"  {name:<24} {value:>16.6g} {unit}")
        else:
            print(f"  {name:<24} {'absent':>16} ({absent_reason(name, absent)})")
    return {"correct": bool(correct and rep), "attempted": attempted,
            "failed": failed, "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    record = json.loads(RECORD.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload}; choose from {', '.join(names)}")
    if args.seed < 0:
        ap.error("the seed must not be negative")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build()
    if binary is None:
        sys.exit(1)

    if args.workload != "all":
        result = run_workload(binary, spec, record, args.workload, args.seed,
                              seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            r = run_workload(binary, spec, record, name, args.seed, seconds, args.trace)
            print(json.dumps(r))
            result["correct"] &= r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                result["metrics"][f"{name}.{k}"] = v
    print(json.dumps(result))


if __name__ == "__main__":
    main()
