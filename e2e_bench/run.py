#!/usr/bin/env python3
"""End-to-end verification benchmark: the one command (see README.md here).

    python3 e2e_bench/run.py --workload sweeps_ab|schema_c|service_mix \
        --seed N --seconds S --trace 0|1

Builds the harness (e2e_bench/CMakeLists.txt, compiling the library sources
under src/) into $CARGO_TARGET_DIR (default .bench_build) of the checkout,
runs the workload in a fresh process, checks the exact counts against earlier
runs of the same seed and the same code, records host diagnostics, and prints
as its last line one JSON object: correct, attempted, failed and metrics
(end-to-end with --trace 0, per-layer with --trace 1).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweeps_ab", "schema_c", "service_mix")
CHILD_TIMEOUT_S = 170


def die(msg):
    print("e2e_bench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def tree_hash(dirs):
    """sha256 over the relative paths and contents of every file under dirs
    but the Markdown notes, which cannot change a count."""
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".md"):
                    continue
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(build_dir):
    """Configures once, then (re)builds incrementally; output goes to stderr.
    build_dir is named after the checkout, so a build root shared by two
    checkouts never builds one checkout's sources for the other."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            die("cmake configure failed")
    rc = subprocess.run(["cmake", "--build", build_dir, "-j", "3"],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        die("build failed")
    return os.path.join(build_dir, "bench_e2e")


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def loadavg_1m():
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def check_counts(path, counts):
    """Exact-count self-check: every count must equal what earlier runs of the
    same workload, seed and code recorded (traced and untraced alike). Returns
    the mismatches; records counts not seen before."""
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    defects = ["nondeterminism defect: %s was %d, now %d" % (k, seen[k], v)
               for k, v in sorted(counts.items()) if k in seen and seen[k] != v]
    merged = dict(counts)
    merged.update(seen)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(merged, f, sort_keys=True)
    os.replace(tmp, path)
    return defects


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    for need in ("src/verify/pipeline.h", "src/svc/server.h", "specs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from a checkout of the repository" % need)

    out_root = build_root()
    checkout = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    binary = build(os.path.join(out_root, "e2e_bench-" + checkout))
    # Counts are compared only between runs of the same code: a change that
    # moves a count on purpose starts a fresh record instead of a defect.
    code = tree_hash(("src", "specs", "e2e_bench"))[:16]
    tag = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(out_root, "e2e_work", "%s-%d" % (tag, os.getpid()))
    trace_out = os.path.join(out_root, "e2e_traces", tag + ".trace.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT, "--work-dir", work,
           "--expect", os.path.join(HERE, "expected_verdicts.json")]
    if args.trace:
        cmd += ["--trace-out", trace_out]

    stat0, load0 = cpu_times(), loadavg_1m()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stat1, load1 = cpu_times(), loadavg_1m()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("harness exited with code %d" % proc.returncode)
    res = json.loads(lines[-1])

    defects = check_counts(
        os.path.join(out_root, "e2e_counts", "%s-code%s.json" % (tag, code)),
        res["counts"])
    correct = res["correct"] and not defects
    steal = None
    if stat0 and stat1 and stat1[1] > stat0[1]:
        steal = (stat1[0] - stat0[0]) / (stat1[1] - stat0[1])
    diag = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_steal_share": steal,
        "loadavg_1m_before": load0, "loadavg_1m_after": load1,
        "failed_share": res["failed"] / max(1, res["attempted"]),
        "code_sha256": code, "counts": res["counts"],
        "errors": res["errors"] + defects,
    }
    diag.update(res["diag"])
    if args.trace:
        diag["chrome_trace"] = os.path.relpath(trace_out, ROOT)
    print(json.dumps({"diagnostics": diag}, sort_keys=True))
    for e in diag["errors"]:
        print("e2e_bench: " + e, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
