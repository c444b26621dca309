#!/usr/bin/env python3
"""End-to-end host-cost and virtual-result benchmark of esperf.

Usage (from the repository root):

  python3 hostbench/run.py --workload online_spc --seed 1 --seconds 20 --trace 0
  python3 hostbench/run.py --workload trace_spd --seed 1 --smoke
  python3 hostbench/run.py --diff RECORD_A.json RECORD_B.json

Builds hostbench_driver (CMake, RelWithDebInfo) under $CARGO_TARGET_DIR
(default .bench_build), runs the workload's uninstrumented reference once,
then repeats the measured program in fresh processes until --seconds have
passed, and prints every metric by name with its unit. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics, including the
tracing overhead (traced minus untraced host_s). Every run writes a result
record (fingerprint, metrics, simulated statistics, checks) under
<build>/records/; --diff compares two of them. See hostbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("online_spc", "stream_bulk", "trace_spd")
MIN_REPS = 3          # measured repetitions per kind, even past --seconds
CHILD_TIMEOUT_S = 150
# A repetition during which the hypervisor took more than this share of
# the host's CPU time (steal, /proc/stat) measured the neighbours, not
# esperf: its host metrics are left out of the medians when enough others
# remain. Correctness checks still count every repetition.
MAX_STEAL = 0.02
# The benchmark runs on this many of the CPUs it may use. On a shared
# 4-vCPU VM, keeping all vCPUs busy drew hypervisor steal that made
# host_s vary by 30% between runs; on two CPUs, steal stayed under 1% and
# repetitions varied by ~5%.
BENCH_CPUS = 2
# Virtual times repeat only to ~5 significant digits across runs of one
# seed (rank-thread races reach the virtual clocks); counts repeat exactly.
VIRT_TIME_RTOL = 1e-3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code):
    log(f"hostbench: {msg}")
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "hostbench"


def build():
    """Configure once, then (re)build only the driver and its libraries."""
    out = build_dir()
    driver = out / "hostbench_driver"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "hostbench_driver",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)
    return driver


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def cpu_ticks():
    """(steal, total) CPU ticks of the host since boot, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_driver(driver, workload, seed, ref, trace, smoke, out_dir):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--out-dir", str(out_dir)]
    cmd += ["--ref"] if ref else []
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    t0 = cpu_ticks()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=CHILD_TIMEOUT_S)
    t1 = cpu_ticks()
    lines = p.stdout.strip().splitlines()
    if not lines:
        log(p.stderr[-4000:])
        fail(f"driver printed nothing (exit {p.returncode}): {' '.join(cmd)}", 4)
    rec = json.loads(lines[-1])
    rec["exit_code"] = p.returncode
    ticks = t1 and t0 and t1[1] - t0[1]
    rec["steal"] = (t1[0] - t0[0]) / ticks if ticks else 0.0
    return rec


def least_stolen(recs, min_reps):
    """The repetitions whose host metrics count: those under MAX_STEAL, or
    the min_reps least-stolen ones when fewer qualify."""
    kept = [r for r in recs if r["steal"] <= MAX_STEAL]
    return kept if len(kept) >= min_reps else sorted(recs, key=lambda r: r["steal"])[:min_reps]


def first_difference(a, b):
    """First field of two simulated-statistics records that differs, or None.
    Counts (ints) compare exactly, virtual times within VIRT_TIME_RTOL."""
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            return key, va, vb
        if isinstance(va, int) and isinstance(vb, int):
            if va != vb:
                return key, va, vb
        elif abs(va - vb) > VIRT_TIME_RTOL * max(abs(va), abs(vb)):
            return key, va, vb
    return None


def virt_metrics(workload, main, ref):
    """Virtual-time results of one measured repetition, given the reference.
    Per workload (README.md): online_spc = Fig. 15 overhead and the event
    stream's rate; stream_bulk = ratio 8 over ratio 1 (Fig. 14's ratio
    penalty) and Fig. 14's rate; trace_spd = the network model's share of the reference
    SP.D run (the comparator's own overhead is the per-layer
    baseline.virt_overhead_pct)."""
    v, r = main["virt"], ref["virt"]
    if workload == "trace_spd":
        return {
            "virt_overhead_pct": (r["ref_walltime_s"] - r["compute_s"]) / r["compute_s"] * 100,
            "virt_stream_gbs": r["p2p_bytes"] / r["ref_walltime_s"] / 1e9,
            "baseline.virt_overhead_pct":
                (v["walltime_s"] - r["ref_walltime_s"]) / r["ref_walltime_s"] * 100,
        }
    return {
        "virt_overhead_pct": (v["walltime_s"] - r["ref_walltime_s"]) / r["ref_walltime_s"] * 100,
        "virt_stream_gbs": v["streamed_bytes"] / v["walltime_s"] / 1e9,
    }


def median_of(recs, get):
    return statistics.median(get(r) for r in recs)


def measure(args):
    driver = build()
    cpus = sorted(os.sched_getaffinity(0))[:BENCH_CPUS]
    os.sched_setaffinity(0, cpus)  # inherited by every driver process
    out_dir = build_dir() / "out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    smoke = args.smoke
    try:
        t0 = time.monotonic()
        if not smoke:
            # Discarded: the first run after an idle spell is slow while
            # the host's cores wake up.
            run_driver(driver, args.workload, args.seed, False, False, smoke, out_dir)
        ref = run_driver(driver, args.workload, args.seed, True, False, smoke, out_dir)
        kinds = [False, True] if args.trace else [False]
        reps = {k: [] for k in kinds}
        min_reps = 1 if smoke else MIN_REPS
        i = 0
        while True:
            trace = kinds[i % len(kinds)]
            rec = run_driver(driver, args.workload, args.seed, False, trace, smoke, out_dir)
            reps[trace].append(rec)
            i += 1
            if rec["exit_code"] != 0:
                break  # a failed output check fails the run
            done = all(len(reps[k]) >= min_reps for k in kinds)
            if done and (smoke or time.monotonic() - t0 >= args.seconds):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return ref, reps


def summarize(args, spec, ref, reps):
    min_reps = 1 if args.smoke else MIN_REPS
    untraced = least_stolen(reps[False], min_reps)
    all_main = [r for k in reps for r in reps[k]]
    problems = []
    for r in [ref] + all_main:
        for c in r["checks"]:
            if not c["ok"]:
                problems.append(f"check failed: {c['name']} ({c['detail']})")
        if r["exit_code"] != 0 and not problems:
            problems.append(f"driver exited with {r['exit_code']}")

    # Simulated statistics must repeat for one seed; name the first field
    # that does not.
    sim = dict(all_main[0]["simstats"])
    sim.update({"ref." + k: v for k, v in ref["simstats"].items()})
    for r in all_main[1:]:
        diff = first_difference(all_main[0]["simstats"], r["simstats"])
        if diff:
            print("simstats: repetitions differ, first field %s: %r vs %r" % diff)
            break

    values = {}
    if not args.trace:
        for m in ("setup_s", "host_s", "host_cpu_s", "peak_rss_mb"):
            values[m] = median_of(untraced, lambda r: r["e2e"][m])
        for m in ("virt_overhead_pct", "virt_stream_gbs"):
            values[m] = median_of(untraced, lambda r: virt_metrics(args.workload, r, ref)[m])
        wanted = spec["end_to_end"]
    else:
        traced = least_stolen(reps[True], min_reps)
        names = {m["name"] for m in spec["per_layer"]}
        for name in names:
            vals = [r["layers"].get(name) for r in traced]
            if all(v is not None for v in vals):
                values[name] = statistics.median(vals)
        if args.workload == "trace_spd":
            values["baseline.virt_overhead_pct"] = median_of(
                traced, lambda r: virt_metrics(args.workload, r, ref)["baseline.virt_overhead_pct"])
        values["simmpi.ref_host_s"] = ref["e2e"]["host_s"]
        values["simmpi.ref_cpu_s"] = ref["e2e"]["host_cpu_s"]
        t_host = median_of(traced, lambda r: r["e2e"]["host_s"])
        u_host = median_of(untraced, lambda r: r["e2e"]["host_s"])
        values["trace.overhead_s"] = t_host - u_host
        values["trace.overhead_pct"] = (t_host - u_host) / u_host * 100
        # A layer that does no work on this workload reports 0.
        for name in names:
            values.setdefault(name, 0)
        wanted = spec["per_layer"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    fingerprint = untraced[0]["fingerprint"]
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, medians of "
          f"{len(untraced)}/{len(reps[False])} untraced" +
          (f" + {len(traced)}/{len(reps[True])} traced" if args.trace else "") +
          f" repetitions (the rest had hypervisor steal > {MAX_STEAL:.0%}); " + ", ".join(
              f"{c['name']}: {'ok' if c['ok'] else 'FAILED'}"
              for c in untraced[0]["checks"]))
    for name, m in metrics.items():
        v = m["value"]
        shown = f"{v:.0f}" if float(v).is_integer() else f"{v:.6g}"
        print(f"  {name:<28} {shown} {m['unit']}")
    for p in problems[:5]:
        print(p)

    attempted = sum(r["attempted"] for r in all_main)
    failed = sum(r["failed"] for r in all_main)
    correct = not problems and attempted >= 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": fingerprint, "metrics": metrics, "simstats": sim,
              "checks": all_main[0]["checks"] +
              [dict(c, name="reference: " + c["name"]) for c in ref["checks"]],
              "correct": correct, "attempted": attempted, "failed": failed}
    rec_dir = build_dir() / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    rec_path = rec_dir / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}{smoke}.json"
    if rec_path.is_file():
        with open(rec_path) as f:
            previous = json.load(f)
        diff = first_difference(previous["simstats"], sim)
        print("simstats vs previous record: " +
              ("identical" if not diff else "first differing field %s: %r vs %r" % diff))
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def diff_records(path_a, path_b, spec):
    """Compare two result records: fingerprint, simulated statistics, and
    each metric's change against its bound. Differing fingerprints make
    the host metrics a mismatch, never a regression."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    rc = 0
    for k in ("workload", "seed", "trace"):
        if a.get(k) != b.get(k):
            print(f"records differ in {k}: {a.get(k)!r} vs {b.get(k)!r}")
    fp_diff = [k for k in sorted(set(a["fingerprint"]) | set(b["fingerprint"]))
               if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    for k in fp_diff:
        print(f"fingerprint mismatch: {k}: {a['fingerprint'].get(k)!r} vs "
              f"{b['fingerprint'].get(k)!r}")
    diff = first_difference(a["simstats"], b["simstats"])
    if diff:
        print("simstats: first differing field %s: %r vs %r" % diff)
        rc = 1
    else:
        print("simstats: identical")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name, mb in b["metrics"].items():
        ma = a["metrics"].get(name)
        if ma is None or not ma["value"]:
            continue
        change = mb["value"] / ma["value"] - 1
        verdict = ""
        host = not name.startswith("virt_")
        if name in bounds:
            m = bounds[name]
            worse = change if m["better"] == "lower" else -change
            if host and fp_diff:
                verdict = "mismatch (different hosts/builds, not compared)"
            elif worse > m["bound"]:
                verdict = f"REGRESSION (bound {m['bound']:.0%})"
                rc = 1
            else:
                verdict = "within bound"
        print(f"  {name:<28} {ma['value']:.6g} -> {mb['value']:.6g} "
              f"{mb['unit']} ({change:+.2%}) {verdict}")
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few iterations, one repetition of each kind")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"),
                    help="compare two result records and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT}/src", 2)
    spec = load_spec()
    if args.diff:
        return diff_records(args.diff[0], args.diff[1], spec)
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    ref, reps = measure(args)
    return summarize(args, spec, ref, reps)


if __name__ == "__main__":
    sys.exit(main())
