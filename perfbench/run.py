#!/usr/bin/env python3
"""Repository benchmark: build the program, run one workload, report metrics.

    python3 perfbench/run.py --workload kron-g500 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is built from source with
CMake into .bench_build/ (or $CARGO_TARGET_DIR when set) on first use.  The
command prints every metric by name with its unit, the run's seeds, host
noise and build manifest, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced mode
and reports the per-layer metrics, and also writes a Chrome trace.  The
exit code is non-zero when any validation, spot check or repair check
failed, or when the run could not complete.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("kron-g500", "grid-road", "serve-mutate")
PROGRAM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    if not path.is_absolute():
        path = root / path
    return path / "perfbench"


def build(root, out_dir):
    """Configure (once) and build the program; returns the binary path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no library sources at %s/src" % root)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out_dir), "--target",
                  "g500_perfbench", "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            left = max(1.0, deadline - time.monotonic())
            result = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    timeout=left)
            if result.returncode != 0:
                raise RuntimeError("build failed (%s); see %s"
                                   % (" ".join(cmd[:2]), log))
    binary = out_dir / "g500_perfbench"
    if not binary.is_file():
        raise RuntimeError("build produced no benchmark binary")
    return binary


def host_sample():
    """(steal jiffies, total jiffies, 1-minute load average) from /proc."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
        ticks = [int(x) for x in fields]
        steal = ticks[7] if len(ticks) > 7 else 0
        # guest time is already counted in user time
        total = sum(ticks[:8])
        with open("/proc/loadavg") as f:
            load1 = float(f.read().split()[0])
        return steal, total, load1
    except (OSError, ValueError, IndexError):
        return 0, 0, 0.0


def host_noise(before, after):
    steal = after[0] - before[0]
    total = after[1] - before[1]
    return {"steal_frac": steal / total if total > 0 else 0.0,
            "load1_delta": after[2] - before[2],
            "load1_end": after[2]}


def fmt(value):
    return "%.6g" % value


def report(doc, host, rows, values, notes):
    print("workload %s  seed %d  seconds %g  trace %d  ranks %d"
          % (doc["workload"], doc["seed"], doc["seconds"], doc["trace"],
             doc["ranks"]))
    print("seeds: " + json.dumps(doc["seeds"], sort_keys=True))
    print("manifest: " + json.dumps(doc["manifest"], sort_keys=True))
    print("host: steal %.4f of CPU time, load1 %+.2f to %.2f"
          % (host["steal_frac"], host["load1_delta"], host["load1_end"]))
    print("%-30s %14s  %-8s" % ("metric", "value", "unit"))
    for name, unit, _ in rows:
        extra = ""
        if name in notes:
            pct, n = notes[name]
            extra = "  (p%.1f of %d samples)" % (pct, n)
        print("%-30s %14s  %-8s%s" % (name, fmt(values[name]), unit, extra))
    if rows is metrics.END_TO_END:
        for name, unit, _ in metrics.PRINTED_ONLY:
            pct, n = notes[name]
            print("%-30s %14s  %-8s  (p%.1f of %d samples; not gated)"
                  % (name, fmt(values[name]), unit, pct, n))
    attempted = doc["attempted"]
    failed = doc["failed"]
    print("fail_frac %s (%d failed of %d attempted)"
          % (fmt(failed / attempted if attempted else 1.0), failed, attempted))
    for err in doc.get("errors", []):
        print("error: " + err)
    for p in doc.get("passes", []):
        for r in p["roots"]:
            if not r["valid"]:
                print("error: root %d: %s" % (r["root"], r["error"]))
    for r in doc.get("checks", []):
        if not r["valid"]:
            print("error: check solve from %d: %s" % (r["root"], r["error"]))


def print_self_times(doc):
    spans = metrics.flatten_spans(doc["spans"])
    by_name, wall = metrics.self_time_by_name(
        metrics.critical_lane_spans(spans))
    print("self time by span (main thread and rank 0), traced wall %.4f s:" % wall)
    for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print("  %-32s %10.4f s  %6.2f%%" % (name, t, 100.0 * t / wall))
    print("  %-32s %10.4f s" % ("sum of self times", sum(by_name.values())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = HERE.parent
    out_dir = build_dir(root)
    try:
        binary = build(root, out_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw = results / (stem + ".raw.json")
    if raw.exists():
        raw.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(raw)]
    before = host_sample()
    try:
        status = subprocess.run(cmd, timeout=PROGRAM_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: program exceeded %d s" % PROGRAM_TIMEOUT_S,
              file=sys.stderr)
        return 2
    host = host_noise(before, host_sample())
    if status not in (0, 1) or not raw.is_file():
        print("perfbench: program failed with status %d" % status,
              file=sys.stderr)
        return 2

    with open(raw) as f:
        doc = json.load(f)
    try:
        e2e, layers, notes = metrics.reduce(doc, host)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
        print("perfbench: cannot reduce the run: %r" % e, file=sys.stderr)
        return 2
    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = layers if args.trace else e2e
    report(doc, host, names, values, notes)
    if args.trace:
        trace_path = results / (stem + ".trace.json")
        with open(trace_path, "w") as f:
            json.dump(metrics.chrome_trace(metrics.flatten_spans(doc["spans"]),
                                           args.workload, args.seed), f)
        print_self_times(doc)
        print("chrome trace: %s" % trace_path)

    correct = status == 0 and doc["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in names},
    }
    with open(results / (stem + ".result.json"), "w") as f:
        json.dump({"result": result, "host": host, "seeds": doc["seeds"],
                   "manifest": doc["manifest"], "notes": notes}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
