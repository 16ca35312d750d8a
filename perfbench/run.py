#!/usr/bin/env python3
"""Lancet benchmark: four JIT workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kmeans-tiered --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

The first form builds perfbench/bench.exe with dune (into _build/, dune's
shared cache disabled), runs the workload in its own process and prints a
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
same ops twice, untraced and then with the per-layer probes installed, and
gives the per-layer metrics, including the tracing overhead (traced minus
untraced op_p50_ref).  Each report carries a context line: OCaml version,
domain count, nproc and git commit, so runs compare like with like.

Op times are in "ref": multiples of the time a fixed plain-OCaml reference
kernel takes when run right after the op, which cancels the drift of a shared
host's speed (bench.ml says how).  The report also prints the raw times.

Without --workload, every workload runs both ways and the metrics are printed
side by side, with the kmeans-bgjit minus kmeans-tiered gap.

--smoke is the benchmark's own test: every workload at a tiny size, both
trace modes, checking outputs and that every metric BENCHMARK.json names is
printed with its unit; then one run with a corrupted reference, which must be
counted as a failed op.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["kmeans-tiered", "kmeans-bgjit", "csv-schemas", "loop-once"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 80


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(f"no dune-project in {ROOT}: run from a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled", "-j", "2",
             "--display", "quiet", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def git_commit():
    """The checked-out commit, read from .git when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def bench(workload, seed, seconds, traced, extra=()):
    """Run bench.exe once; returns (report lines, result object)."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if traced else "0",
            *extra]
    # its own process group, so a timeout also stops the part processes
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: bench.exe exited with {proc.returncode}")
    report = []
    for line in lines[:-1]:
        if line.startswith("context: "):
            # the comparability record: what the program ran on
            context = json.loads(line[len("context: "):])
            context.update(nproc=os.cpu_count(), commit=git_commit(),
                           seconds=seconds)
            line = "context: " + json.dumps(context)
        report.append(line)
    return report, json.loads(lines[-1])


def measure(workload, seed, seconds, trace, extra=()):
    """Run one workload; prints its report, returns the result object."""
    report, result = bench(workload, seed, seconds, False, extra)
    if trace:
        base = result
        report_t, result = bench(workload, seed, seconds, True, extra)
        report += report_t
        traced_p50 = result["metrics"]["trace.op_p50_ref"]["value"]
        untraced_p50 = base["metrics"]["op_p50_ref"]["value"]
        # the untraced tail is a report line of the untraced run
        tail = next(float(line.split()[1]) for line in report
                    if line.split()[:1] == ["op_tail_ref"])
        overhead = {"trace.untraced_op_p50_ref": untraced_p50,
                    "trace.untraced_op_tail_ref": tail,
                    "trace.overhead_ref": traced_p50 - untraced_p50}
        for name, value in overhead.items():
            result["metrics"][name] = {"value": value, "unit": "ref"}
            report.append(f"  {name:26s} {value:18.6f} ref")
        result["correct"] = base["correct"] and result["correct"]
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
    for line in report:
        print(line)
    return result


def report(seed, seconds):
    """Every workload, untraced and traced, side by side."""
    spec = load_spec()
    cols = {w: (measure(w, seed, seconds, 0), measure(w, seed, seconds, 1))
            for w in WORKLOADS}
    gap = ("kmeans-tiered", "kmeans-bgjit")
    print(f"\n{'metric':28s} {'unit':8s}" +
          "".join(f"{w:>16s}" for w in WORKLOADS) + f"{'bgjit-tiered':>16s}")
    names = [(m["name"], 0) for m in spec["end_to_end"]] + \
            [("error_rate", 0)] + [(m["name"], 1) for m in spec["per_layer"]]
    for name, traced in names:
        vals = []
        for w in WORKLOADS:
            r = cols[w][traced]
            if name == "error_rate":
                vals.append((r["failed"] / r["attempted"], "fraction"))
            else:
                vals.append((r["metrics"][name]["value"],
                             r["metrics"][name]["unit"]))
        by = dict(zip(WORKLOADS, vals))
        diff = by[gap[1]][0] - by[gap[0]][0]
        print(f"{name:28s} {vals[0][1]:8s}" +
              "".join(f"{v:16.4f}" for v, _ in vals) + f"{diff:16.4f}")
    return 0 if all(r["correct"] for c in cols.values() for r in c) else 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    spec = load_spec()
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = measure(w, 1, 1, trace, ["--smoke"])
            print(json.dumps(r))
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w} trace {trace}: wrong output")
            for m in spec[key]:
                got = r["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w} trace {trace}: {m['name']} missing")
    r = measure("csv-schemas", 1, 1, 0, ["--smoke", "--corrupt-reference"])
    if r["correct"] or r["failed"] != 1:
        problems.append("a corrupted reference was not counted as a failure")
    for p in problems:
        print("smoke: " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    build()
    if a.smoke:
        sys.exit(smoke())
    if a.workload is None:
        sys.exit(report(a.seed, a.seconds))
    result = measure(a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
