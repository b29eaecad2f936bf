#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `perfbench` crate
beside it and the workspace's `experiments` binary (into
$CARGO_TARGET_DIR, default `.bench_build`), then for one workload:

1. runs `perfbench measure` (the untraced timed run) and `perfbench trace`
   (the traced run), each in its own process; the one that produces the
   requested metrics runs for `--seconds`, the other runs the minimum the
   identity gate needs;
2. runs the same first spec line through `experiments worker --exact`
   (or, for `mcheck-bd2`, the same capped search through
   `experiments model-check`), and refuses to report unless all three
   agree exactly;
3. prints a provenance line, then one JSON result line:
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

It exits 1 when a correctness check or the identity gate fails, and 2
when the checkout cannot be built. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("coin-noise", "committee-sync", "bd-storm", "mcheck-bd2")
STEP_THREADS = "1"
MCHECK_CAP = "40000"
# One process may run this long; the whole benchmark run stays well
# inside the 180-second limit.
PROCESS_TIMEOUT_S = 150


def metric_units(kind):
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchError(Exception):
    """A failure that leaves nothing to report."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def child_env(target):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target
    # Explicit thread counts: nothing inherited from the caller.
    env["BYZCLOCK_STEP_THREADS"] = STEP_THREADS
    env["BYZCLOCK_THREADS"] = STEP_THREADS
    return env


def build(env):
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        raise BenchError(f"{ROOT} is not a checkout of the byzclock workspace", 2)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "byzclock-bench", "--bin", "experiments"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}", 2)


def run_lines(cmd, env, stdin=None):
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, input=stdin, capture_output=True, text=True,
            timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {PROCESS_TIMEOUT_S}s: {' '.join(cmd)}")
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise BenchError(f"exit {done.returncode}: {' '.join(cmd)}")
    return done.stdout.strip().splitlines()


def perfbench(mode, args, env, minimal):
    target = env["CARGO_TARGET_DIR"]
    cmd = [os.path.join(target, "release", "perfbench"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if minimal:
        cmd.append("--min")
    elif mode == "trace":
        cmd += ["--spans", os.path.join(target, f"perfbench-spans-{args.workload}.jsonl")]
    return json.loads(run_lines(cmd, env)[-1])


def reference(args, env, gate):
    """What the workspace's own CLI reports for the gated spec/search."""
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "experiments")
    if args.workload == "mcheck-bd2":
        lines = run_lines([exe, "--jsonl", "model-check", "bd-clock", "--window=2",
                           f"--max-states={MCHECK_CAP}"], env)
        extras = json.loads(lines[0])["extras"]
        return {"states": int(extras["states"]), "edges": int(extras["edges"])}
    spec = json.loads(gate)["spec"]
    return run_lines([exe, "worker", "--exact"], env, stdin=spec + "\n")[0]


def identity_gate(args, env, measured, traced):
    ref = reference(args, env, measured["gate"])
    if not (measured["gate"] == traced["gate"] == ref):
        raise BenchError(
            "identity gate: untraced, traced and `experiments` reports differ\n"
            f"  untraced: {measured['gate']}\n  traced:   {traced['gate']}\n"
            f"  experiments: {ref}"
        )


def provenance(args, env, measured):
    def first(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
            return out.stdout.strip() if out.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": first(["rustc", "--version"]),
        "commit": first(["git", "rev-parse", "HEAD"]),
        "step_threads": int(STEP_THREADS),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_samples": measured["samples"],
        "timed_episodes": measured["episodes"],
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = child_env(os.path.join(ROOT, target))
    try:
        build(env)
        traced_run = args.trace == 1
        measured = perfbench("measure", args, env, minimal=traced_run)
        traced = perfbench("trace", args, env, minimal=not traced_run)
        identity_gate(args, env, measured, traced)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return e.code

    failures = measured["failures"] + traced["failures"]
    attempted = measured["attempted"] + traced["attempted"] + 1
    if traced_run:
        values = dict(traced["per_layer"])
        values["trace.overhead_ratio"] = measured["metrics"]["beats_per_s"] / traced["beats_per_s"]
        units = metric_units("per_layer")
    else:
        values = dict(measured["metrics"])
        if args.workload == "mcheck-bd2":
            values["converge_beats"] = traced["depth_beats"]
        units = metric_units("end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, env, measured)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
