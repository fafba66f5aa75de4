"""One pass of a workload in a fresh process; prints its record as one JSON line.

Usage: python3 perfbench/onepass.py --workload NAME --seed N --mode MODE [--spans FILE]

Modes: ``pass`` runs the whole workload untraced, ``traced`` runs it with
the layer tracer installed and writes the span table to ``--spans``,
``setup`` only builds (and validates) the workload's scenarios.

A fresh process per pass keeps set-up cold (``scenarios`` memoizes built
scenarios) and makes the peak resident memory a per-pass figure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402


def _timed(fn):
    start = time.perf_counter()
    try:
        return fn(), time.perf_counter() - start, None
    except Exception:  # a failing operation is a counted sample, not a crash
        return None, time.perf_counter() - start, traceback.format_exc(limit=3)


def run_pass(workload, seed, setup_only=False):
    """Run the workload once in this process and return its record."""
    from phwc_lab import report, scenarios

    rec = {"scenarios": [], "setup_s": [], "checks": [], "identities": [], "failures": []}
    for sid in workload.scenarios:
        sc, dt, err = _timed(lambda: scenarios.build_scenario(sid, validate=True))
        rec["setup_s"].append(dt)
        if err:
            # the checks below still run, and fail or pass on their own
            rec["failures"].append({"op": f"setup {sid}", "error": err})
        else:
            rec["scenarios"].append({
                "id": sid,
                "quadrature_orders": _plain(sc.domain.quad_orders),
                "nodes": int(sc.domain.quadrature.nodes.shape[0]),
            })
        if setup_only:
            continue
        for check in workload.checks:
            cfg = report.RunConfig(
                sid, checks=(check,), seed=seed,
                hessian_generators=workload.hessian_generators,
            )
            body, dt, err = _timed(lambda: report.run_checks(cfg))
            entry = {"scenario": sid, "check": check, "s": dt, "ok": False}
            if body is not None:
                entry["ok"] = bool(body.get("all_verdicts_match"))
                entry["body_sha256"] = hashlib.sha256(
                    report.report_json(body).encode()).hexdigest()
            if not entry["ok"]:
                rec["failures"].append({"op": f"check {sid}/{check}", "error": err or "verdict mismatch"})
            rec["checks"].append(entry)
        if workload.identities:
            rows, dt, err = _timed(
                lambda: report.run_identities(sid, n_points=workload.identity_points, seed=seed))
            rec["identities"].append({"scenario": sid, "s": dt, "suites": 1 if err else len(rows)})
            if err:
                rec["failures"].append({"op": f"identities {sid}", "error": err})
            for row in rows or []:
                if not row["passed"]:
                    rec["failures"].append({"op": f"identity {sid}/{row['suite']}",
                                            "error": f"residual {row['max_residual']!r}"})
    return rec


def _plain(orders):
    try:
        return [int(o) for o in orders]
    except TypeError:
        return int(orders)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "traced", "setup"), required=True)
    ap.add_argument("--spans", help="span table output (.npz), traced mode")
    args = ap.parse_args(argv)
    workload = workloads.get(args.workload)

    speed.pin_to_one_cpu()
    kernel_s = speed.kernel_times()  # the machine's speed just before the work
    start = time.perf_counter()
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        # ... while it runs, except under the tracer, which would count the
        # kernel's numpy.linalg calls
        with speed.Sampler() if tracer is None else contextlib.nullcontext() as sampler:
            rec = run_pass(workload, args.seed, setup_only=args.mode == "setup")
    finally:
        if tracer is not None:
            tracer.remove()
    rec["wall_s"] = time.perf_counter() - start
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    during = sampler.times if sampler is not None else []
    rec["kernel_s"] = kernel_s + during + speed.kernel_times()  # ... and after it
    if tracer is not None:
        table = tracer.spans()
        rec["layers"] = tracer.layer_metrics(table)
        if args.spans:
            tracer.write(args.spans, table)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
