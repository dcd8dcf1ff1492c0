#!/usr/bin/env python3
"""Build and run the burtree benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload track_mem --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --workload query_mem --seconds 10 --repeat 10 [--overhead]

The first form builds the benchmark program (CMake + Ninja, Release) into
$CARGO_TARGET_DIR or .bench_build, runs one workload and passes its
output through: the last stdout line is the result object.
--repeat N runs the workload N times on seeds seed..seed+N-1, prints
the median, IQR, min and max of every end-to-end metric and keeps every
run's report in <build>/work/reports-<workload>.jsonl; --overhead also
makes N traced runs on the same seeds and compares their end-to-end
metrics with the untraced ones (the tracing overhead).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_once(exe, workload, seed, seconds, trace):
    """Runs perfbench, capturing stdout; returns (code, report, result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    report = result = None
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("# report "):
            report = json.loads(line[len("# report "):])
    if lines:
        result = json.loads(lines[-1])
    return proc.returncode, report, result


def spread_table(runs):
    """runs: list of {metric: value}; returns printable rows."""
    rows = []
    for name in runs[0]:
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        rel = (q3 - q1) / med if med else 0.0
        rows.append((name, med, q3 - q1, rel, min(vals), max(vals)))
    return rows


def print_rows(title, rows, units):
    print(title)
    print("  %-24s %14s %12s %8s %14s %14s" %
          ("metric", "median", "IQR", "IQR/med", "min", "max"))
    for name, med, iqr, rel, lo, hi in rows:
        print("  %-24s %14.6g %12.4g %8.4f %14.6g %14.6g  %s" %
              (name, med, iqr, rel, lo, hi, units.get(name, "")))


def repeat(exe, args):
    runs = {0: [], 1: []}
    units = {}
    modes = [0, 1] if args.overhead else [0]
    # Every run's full report, per-slice values included, for later study.
    log_path = os.path.join(build_dir(), "work",
                            "reports-%s.jsonl" % args.workload)
    log = open(log_path, "w")
    for i in range(args.repeat):
        seed = args.seed + i
        for trace in modes:
            code, report, result = run_once(exe, args.workload, seed,
                                            args.seconds, trace)
            if code != 0 or report is None or not result["correct"]:
                print("run.py: seed %d trace %d failed (exit %d)" %
                      (seed, trace, code), file=sys.stderr)
                log.close()
                return 1
            log.write(json.dumps(report) + "\n")
            log.flush()
            e2e = report["end_to_end"]
            units.update({k: v["unit"] for k, v in e2e.items()})
            runs[trace].append({k: v["value"] for k, v in e2e.items()})
            print("seed %d trace %d: %s" % (seed, trace, " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in e2e.items())),
                file=sys.stderr)
    log.close()
    print("reports: " + log_path)
    print_rows("%s untraced, n=%d, seeds %d..%d, %ss windows" %
               (args.workload, args.repeat, args.seed,
                args.seed + args.repeat - 1, args.seconds),
               spread_table(runs[0]), units)
    if args.overhead:
        print_rows("%s traced, n=%d" % (args.workload, args.repeat),
                   spread_table(runs[1]), units)
        print("tracing overhead (traced median / untraced median - 1):")
        for name in runs[0][0]:
            plain = statistics.median(r[name] for r in runs[0])
            traced = statistics.median(r[name] for r in runs[1])
            print("  %-24s %+8.2f%%" %
                  (name, 100.0 * (traced / plain - 1.0) if plain else 0.0))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--overhead", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.self_test:
        return subprocess.run(
            [exe, "--self-test", "--work-dir",
             os.path.join(build_dir(), "work")]).returncode
    if args.repeat > 0:
        return repeat(exe, args)
    return subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", os.path.join(build_dir(), "work")]).returncode


if __name__ == "__main__":
    sys.exit(main())
