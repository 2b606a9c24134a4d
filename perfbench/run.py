#!/usr/bin/env python3
"""Wall-clock end-to-end benchmark of the hypercube keyword index.

Builds the library with the repository's own build files and installs it
into .bench_build/ at the checkout root, builds perfbench/ (hkbench and
friends) against it, runs one workload per hkbench process, checks its
answers, and prints every metric by name with its unit. See
perfbench/README.md.

  run.py --workload W --seed S [--seconds T] [--trace 0|1]
      One run. The last stdout line is the JSON result:
      {"correct", "attempted", "failed", "metrics": {name: {value, unit}}},
      holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
      per-layer metrics (--trace 1, which also writes a Chrome trace).
  run.py --reps N [--workload W ...] [--seed S] [--trace 1] [--out F.json]
      N untraced runs per workload on seeds S..S+N-1, the workloads taken
      in turn (plus one traced run each with --trace 1); prints
      `workload metric median [q1,q3] unit` lines.
  run.py --compare A.json B.json
      Applies the BENCHMARK.json bounds to two --reps results.
  run.py --smoke [--build-dir DIR]
      Every workload at --quick scale, plain and traced; exit 0 only if
      every run is correct, every metric is present and traces balance.

Exit status is nonzero when a run fails, an answer is wrong, or (with
--compare) a metric regressed beyond its bound.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- Build --------------------------------------------------------------------

def build_dir(override=None):
    if override:
        return os.path.abspath(override)
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


# Under the build directory: the repository's own build, its installed
# `hyperkws` package, and this benchmark package built against it.
def lib_dir(bdir):
    return os.path.join(bdir, "hyperkws")


def prefix_dir(bdir):
    return os.path.join(bdir, "prefix")


def bench_dir(bdir):
    return os.path.join(bdir, "perfbench")


def build(bdir):
    """Builds and installs the library with the repository's build files,
    then builds this package against it; output goes to stderr."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    release = "-DCMAKE_BUILD_TYPE=RelWithDebInfo"
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(lib_dir(bdir), "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", lib_dir(bdir), release,
                          "-DHYPERKWS_BUILD_TESTS=OFF",
                          "-DHYPERKWS_BUILD_BENCH=OFF",
                          "-DHYPERKWS_BUILD_EXAMPLES=OFF",
                          "-DCMAKE_INSTALL_PREFIX=" + prefix_dir(bdir)])
        steps += [["cmake", "--build", lib_dir(bdir), "-j", jobs],
                  ["cmake", "--install", lib_dir(bdir)]]
        if not os.path.exists(os.path.join(bench_dir(bdir), "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bench_dir(bdir), release,
                          "-DCMAKE_PREFIX_PATH=" + prefix_dir(bdir)])
        steps.append(["cmake", "--build", bench_dir(bdir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                raise SystemExit("build failed: " + " ".join(cmd))


# --- One run ------------------------------------------------------------------

def run_once(bdir, workload, seed, seconds, trace, quick=False):
    """Runs hkbench once; returns its parsed result (raises on failure)."""
    cmd = [os.path.join(bench_dir(bdir), "hkbench"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--quick"] if quick else ["--seconds", f"{seconds:g}"]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_path = os.path.join(bdir, "traces", f"{workload}-{seed}.json")
        cmd += ["--trace", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"hkbench {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["trace_ok"] = True
    if trace_path:
        check = subprocess.run([os.path.join(lib_dir(bdir), "tools", "traceview"),
                                trace_path, "--check"], stdout=sys.stderr,
                               stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        result["trace_ok"] = check.returncode == 0
        result["trace_path"] = os.path.relpath(trace_path, ROOT)
    return result


def select(result, wanted):
    """The wanted metrics as {name: {value, unit}}; raises if one is missing
    or carries another unit than BENCHMARK.json declares."""
    out = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"metric {m['name']} missing")
        if got[1] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} in {got[1]}, not {m['unit']}")
        out[m["name"]] = {"value": got[0], "unit": got[1]}
    return out


def verdict(result):
    return (result["correct"] and result["failed"] == 0 and
            result.get("trace_ok", True))


def single(args, spec):
    bdir = build_dir()
    build(bdir)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = run_once(bdir, args.workload, args.seed, args.seconds, args.trace)
    metrics = select(result, wanted)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    for name, v in result.get("info", {}).items():
        print(f"{args.workload} info.{name} {v!r}")
    if result["failed"]:
        print(f"{args.workload} failures {result['reasons']}")
    late = result.get("info", {}).get("gen.late_p99_us", 0)
    if late > 500:
        print(f"{args.workload} WARNING generator p99 lateness {late:.0f} us "
              "> 500 us: this run's timings are not comparable")
    ok = verdict(result)
    print(json.dumps({"correct": ok, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if ok else 1


# --- Repetitions and comparison -------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values, unit):
    q1, med, q3 = quartiles(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "unit": unit,
            "spread": (q3 - q1) / med if med else 0.0}


def reps(args, spec):
    bdir = build_dir()
    build(bdir)
    names = args.workload_list or [w["name"] for w in spec["workloads"]]
    out = {"seconds": args.seconds, "reps": args.reps, "workloads": {}}
    failed = False
    # Round-robin over the workloads, so that a slow spell of the host lands
    # on runs of every workload instead of on consecutive runs of one.
    samples = {w: {} for w in names}
    units = {}
    for r in range(args.reps):
        for w in names:
            res = run_once(bdir, w, args.seed + r, args.seconds, False)
            if not verdict(res):
                failed = True
                log(f"{w} seed {args.seed + r}: FAILED {res['reasons']}")
            for name, (value, unit) in res["metrics"].items():
                samples[w].setdefault(name, []).append(value)
                units[name] = unit
            for name, value in res["info"].items():
                samples[w].setdefault("info." + name, []).append(value)
                units["info." + name] = ""
            log(f"{w} seed {args.seed + r}: " + " ".join(
                f"{m['name']}={res['metrics'][m['name']][0]:.4g}"
                for m in spec["end_to_end"] if m["name"] in res["metrics"]))
    for w in names:
        entry = {name: summarize(v, units[name])
                 for name, v in samples[w].items()}
        if args.trace:
            res = run_once(bdir, w, args.seed, args.seconds, True)
            if not verdict(res):
                failed = True
                log(f"{w} traced: FAILED {res['reasons']} "
                    f"trace_ok={res['trace_ok']}")
            entry["traced"] = {k: v[0] for k, v in res["metrics"].items()}
            for k in ("cpu_us_per_op", "query_p50_ms"):
                entry["traced"]["overhead." + k] = (
                    res["metrics"][k][0] - entry[k]["median"])
        out["workloads"][w] = entry
        for m in spec["end_to_end"]:
            s = entry[m["name"]]
            print(f"{w} {m['name']} {s['median']:.6g} "
                  f"[{s['q1']:.6g},{s['q3']:.6g}] {s['unit']} "
                  f"spread={s['spread']:.3f} bound={m['bound']}")
        if args.trace:
            for m in spec["per_layer"]:
                print(f"{w} {m['name']} {entry['traced'][m['name']]:.6g} "
                      f"{m['unit']} (traced)")
            for k in ("cpu_us_per_op", "query_p50_ms"):
                print(f"{w} tracing overhead {k} "
                      f"{entry['traced']['overhead.' + k]:+.4g}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return 1 if failed else 0


def compare(args, spec):
    with open(args.compare[0]) as f:
        base = json.load(f)["workloads"]
    with open(args.compare[1]) as f:
        new = json.load(f)["workloads"]
    regressed = False
    for w in base:
        if w not in new:
            continue
        for m in spec["end_to_end"]:
            a, b = base[w][m["name"]], new[w][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            beats = (max(b["values"]) < min(a["values"]) if sign > 0 else
                     min(b["values"]) > max(a["values"]))
            if a["spread"] > m["bound"] and not beats:
                status = "unresolved"
            elif worse > m["bound"]:
                status = "REGRESSED"
                regressed = True
            else:
                status = "ok"
            print(f"{w} {m['name']} {a['median']:.6g} -> {b['median']:.6g} "
                  f"{m['unit']} worse={worse:+.3f} bound={m['bound']} "
                  f"spread={a['spread']:.3f} {status}")
    return 1 if regressed else 0


def smoke(args, spec):
    bdir = build_dir(args.build_dir)
    build(bdir)
    bad = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (False, True):
            label = f"{w} {'traced' if trace else 'plain'}"
            try:
                res = run_once(bdir, w, 1, 2, trace, quick=True)
                select(res, spec["per_layer"] if trace else spec["end_to_end"])
                if not verdict(res):
                    raise RuntimeError(f"failed checks: {res['reasons']}, "
                                       f"trace_ok={res['trace_ok']}")
                print(f"ok   {label}: {res['attempted']} ops checked")
            except Exception as e:  # report every workload, then fail
                bad.append(label)
                print(f"FAIL {label}: {e}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", dest="workload_list")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--build-dir")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(args, spec)
    if args.smoke:
        return smoke(args, spec)
    if args.reps:
        return reps(args, spec)
    if not args.workload_list or len(args.workload_list) != 1:
        p.error("one --workload is required for a single run")
    args.workload = args.workload_list[0]
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        p.error(f"unknown workload {args.workload}; one of {known}")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
