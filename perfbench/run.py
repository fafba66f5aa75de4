"""Time-to-verdict benchmark for phwc-lab.

Usage (from the repository root):

    python3 perfbench/run.py --workload killing-s5 --seed 1 --seconds 60 --trace 0

``--trace 0`` runs one untimed warm-up set-up, then untraced passes of the
workload, each in a fresh process, for up to ``--seconds`` (at least one
pass), with the workload's extra cold set-ups spread between them, and
reports the medians of the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics, with the
tracing overhead as ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the full record (environment, every metric the workload defines with its
sample count, report-body hashes, failures), also written to
``perfbench/out/<workload>-trace<0|1>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "checks_s": "s", "peak_rss_mb": "MiB"}

# BLAS runs single-threaded, so a pass measures the library's own work and
# not how many cores a shared machine happens to have free.
BLAS_THREADS = 1
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD_TIMEOUT_S = 170


class PassError(RuntimeError):
    """A pass process ended without a record."""


def _child_env():
    env = dict(os.environ)
    for var in PIN_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload, seed, mode, spans=None):
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass of {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{mode} pass of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values, unit):
    """Median and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    out = {"value": statistics.median(v), "unit": unit, "median": statistics.median(v), "n": n,
           "samples": list(values)}
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        out["high"], out["high_is"] = statistics.quantiles(v, n=100)[q - 1], f"p{q}"
    else:
        out["high"], out["high_is"] = v[-1], "max"
    return out


def _attempted(rec):
    return len(rec["setup_s"]) + len(rec["checks"]) + sum(i["suites"] for i in rec["identities"])


def pass_metrics(workload, passes, setups, scaled=True):
    """Every end-to-end metric the workload defines, summarized over its samples.

    Times are in reference seconds: each process's seconds times the
    ``speed.scale`` of the kernel it timed before, during and after its
    work.  With
    ``scaled=False`` they are the seconds as measured.
    """
    def k(r):
        return speed.scale(r["kernel_s"]) if scaled else 1.0

    series = {
        "wall_s": ([r["wall_s"] * k(r) for r in passes], "s"),
        "setup_s": ([sum(r["setup_s"]) * k(r) for r in passes + setups], "s"),
        "checks_s": ([sum(c["s"] for c in r["checks"]) * k(r) for r in passes], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in passes], "MiB"),
    }
    for name in workload.named_checks:
        series[f"check.{name}_s"] = (
            [sum(c["s"] for c in r["checks"] if c["check"] == name) * k(r) for r in passes], "s")
    if workload.identities:
        series["identities_s"] = (
            [sum(i["s"] for i in r["identities"]) * k(r) for r in passes], "s")
    metrics = {name: summarize(vals, unit) for name, (vals, unit) in series.items()}
    records = passes + setups
    attempted = sum(_attempted(r) for r in records)
    failed = sum(len(r["failures"]) for r in records)
    metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    return metrics


def _body_hashes(records):
    """sha256 of each report body, per scenario/check; two values would mean a nondeterministic body."""
    hashes = {}
    for r in records:
        for c in r["checks"]:
            seen = hashes.setdefault(f"{c['scenario']}/{c['check']}", [])
            if c.get("body_sha256") not in seen:
                seen.append(c.get("body_sha256"))
    return {k: v[0] if len(v) == 1 else v for k, v in hashes.items()}


def environment(seed):
    import numpy as np

    env = {
        "git_commit": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pins": {var: str(BLAS_THREADS) for var in PIN_VARS},
        "seed": seed,
        "machine": platform.machine(),
    }
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description="phwc-lab time-to-verdict benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "phwc_lab" / "__init__.py").is_file():
        print(f"phwc_lab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    import workloads  # imports the library, so only after the check above

    workload = workloads.get(args.workload)
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            plain = run_child(workload.name, args.seed, "pass")
            spans_file = OUT / f"spans-{workload.name}.npz"
            traced = run_child(workload.name, args.seed, "traced", spans=spans_file)
            passes, setups = [plain, traced], []
            layers = dict(traced.pop("layers"))
            # in reference seconds: unscaled, the two passes' difference is
            # mostly the machine's change of speed between them
            layers["trace.overhead_s"] = (traced["wall_s"] * speed.scale(traced["kernel_s"])
                                          - plain["wall_s"] * speed.scale(plain["kernel_s"]))
            from spans import metric_units

            units = metric_units()
            reported = {k: {"value": layers[k], "unit": units[k]} for k in units}
            extra = {"spans_file": str(spans_file.relative_to(ROOT)),
                     "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
        else:
            # Untimed warm-up: byte-compiles and pages in the library, so the
            # first timed pass is not the only one that pays for it.
            run_child(workload.name, args.seed, "setup")
            passes, setups, begin = [], [], time.perf_counter()
            setup_dt = 0.0

            def add_setup():
                nonlocal setup_dt
                t = time.perf_counter()
                setups.append(run_child(workload.name, args.seed, "setup"))
                setup_dt = time.perf_counter() - t

            while True:  # rounds that fit in --seconds, at least one
                t = time.perf_counter()
                passes.append(run_child(workload.name, args.seed, "pass"))
                # extra cold set-ups are spread over the run, one per round
                if len(passes) + len(setups) < workload.setup_repeats:
                    add_setup()
                now = time.perf_counter()
                if now - begin + (now - t) > args.seconds:
                    break
            # at least setup_repeats set-ups; the time no further round fits in goes to more
            while (len(passes) + len(setups) < workload.setup_repeats
                   or time.perf_counter() - begin + setup_dt <= args.seconds):
                add_setup()
            detail = pass_metrics(workload, passes, setups)
            reported = {k: {"value": detail[k]["value"], "unit": unit}
                        for k, unit in END_TO_END.items()}
            kernel = [statistics.median(r["kernel_s"]) for r in passes + setups]
            extra = {"metrics": detail,
                     "unscaled_metrics": pass_metrics(workload, passes, setups, scaled=False),
                     "reference_kernel_s": speed.REFERENCE_S,
                     "kernel_s": summarize(kernel, "s")}
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = passes + setups
    attempted = sum(_attempted(r) for r in records)
    failed = sum(len(r["failures"]) for r in records)
    full = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "scenarios": passes[0]["scenarios"],
        "passes": len(passes),
        "setup_only_processes": len(setups),
        "body_sha256": _body_hashes(records),
        "failures": [f for r in records for f in r["failures"]],
        **extra,
    }
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(full))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
