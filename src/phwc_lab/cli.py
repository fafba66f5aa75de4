"""Command-line front door.

Subcommands:
  list        catalog contents
  run         check suites on one scenario, JSON/CSV reports
  identities  the two-route identity suites only

Exit codes: 0 success / verdicts match, 1 verdict mismatch, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import ConfigError, PhwcLabError, UnknownScenario
from .report import (
    CHECK_NAMES,
    RunConfig,
    report_csv,
    report_document,
    report_json,
    run_checks,
    run_identities,
)
from .scenarios import build_scenario, scenario_ids
from .validation import ScenarioValidationError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parser():
    p = argparse.ArgumentParser(
        prog="phwc-lab",
        description="Residual checks for pseudo horizontally weakly conformal "
        "maps and Faddeev-Hopf energies on built-in geometries.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog scenarios")

    run = sub.add_parser("run", help="run check suites on a scenario")
    run.add_argument("--scenario", required=True, help="catalog id (see `list`)")
    run.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of: " + ",".join(CHECK_NAMES) + " (default all)",
    )
    run.add_argument("--alpha", type=float, default=None, help="coupling constant")
    run.add_argument("--p", type=float, default=None, help="p-energy exponent")
    run.add_argument("--order", type=int, default=None, help="quadrature nodes per axis")
    run.add_argument("--seed", type=int, default=None, help="RNG seed for sample points")
    run.add_argument("--sample-points", type=int, default=None)
    run.add_argument(
        "--tol", action="append", default=[], metavar="NAME=VALUE",
        help="tolerance override (repeatable)",
    )
    run.add_argument("--config", help="JSON config file (flags override file values)")
    run.add_argument("--json", dest="json_path", help="write the JSON report here")
    run.add_argument("--csv", dest="csv_path", help="write the CSV residual table here")

    ident = sub.add_parser("identities", help="run only the identity suites")
    ident.add_argument("--scenario", default=None, help="restrict to one scenario")
    ident.add_argument("--points", type=int, default=100)
    ident.add_argument("--seed", type=int, default=0)
    ident.add_argument("--json", dest="json_path", help="write rows as JSON here")
    return p


def _cmd_list():
    for sid in scenario_ids():
        sc = build_scenario(sid, validate=False)
        props = ", ".join(f"{k}={v}" for k, v in sc.expected.items())
        print(f"{sid:14s} {sc.domain.name} -> {sc.codomain.name}: {sc.description}")
        print(f"{'':14s}   expected: {props}")
    return EXIT_OK


def _build_config(args):
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    data["scenario_id"] = args.scenario
    if args.checks and args.checks != "all":
        data["checks"] = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    for flag, key in [
        ("alpha", "alpha"),
        ("p", "p"),
        ("order", "quadrature_order"),
        ("seed", "seed"),
        ("sample_points", "sample_points"),
    ]:
        val = getattr(args, flag)
        if val is not None:
            data[key] = val
    tols = {}
    for item in args.tol:
        if "=" not in item:
            raise ConfigError(f"bad --tol {item!r}, expected NAME=VALUE")
        name, value = item.split("=", 1)
        try:
            tols[name] = float(value)
        except ValueError:
            raise ConfigError(f"bad --tol {item!r}: tolerance {name} must be a number") from None
    if tols:
        # flags override the file's values; a file value that is not a mapping
        # stays for RunConfig to reject
        file_tols = data.get("tolerances", {})
        data["tolerances"] = {**file_tols, **tols} if isinstance(file_tols, dict) else file_tols
    return RunConfig.from_mapping(data)


def _print_run_summary(body):
    print(f"scenario {body['scenario']}: {body['description']}")
    print(f"conventions: {body['conventions']['two_form_inner_product']}")
    header = f"{'check':14s} {'residual':32s} {'max':>12s} {'tol':>9s} verdict"
    print(header)
    print("-" * len(header))
    for check, data in body["checks"].items():
        for name, ent in data["residuals"].items():
            mark = "ok " if ent["pass"] else "XX "
            print(
                f"{check:14s} {name:32s} {ent['max']:12.3e} {ent['tolerance']:9.0e} {mark}"
            )
        verd = data["verdicts"]
        extra = {k: v for k, v in verd.items() if k != "matches_expected"}
        line = ", ".join(f"{k}={_short(v)}" for k, v in extra.items())
        match = "MATCH" if verd.get("matches_expected", True) else "MISMATCH"
        print(f"{check:14s} -> {match}  {line}")
    print(
        "all verdicts match expectations"
        if body["all_verdicts_match"]
        else "VERDICT MISMATCH (see above)"
    )


def _short(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, list):
        return "[" + ", ".join(_short(x) for x in v) + "]"
    return str(v)


def _cmd_run(args):
    cfg = _build_config(args)
    t0 = time.perf_counter()
    body = run_checks(cfg)
    doc = report_document(body, wall_time=time.perf_counter() - t0)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(report_json(doc))
    if args.csv_path:
        with open(args.csv_path, "w") as fh:
            fh.write(report_csv(body))
    _print_run_summary(body)
    return EXIT_OK if body["all_verdicts_match"] else EXIT_MISMATCH


def _cmd_identities(args):
    rows = run_identities(args.scenario, n_points=args.points, seed=args.seed)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(rows, fh, sort_keys=True, indent=1)
            fh.write("\n")
    width = max(len(r["suite"]) for r in rows)
    ok = True
    for r in rows:
        mark = "ok " if r["passed"] else "XX "
        ok = ok and r["passed"]
        print(
            f"{mark}{r['scenario']:14s} {r['suite']:{width}s} n={r['points']:4d} "
            f"max={r['max_residual']:.3e} tol={r['tolerance']:g} {r['note']}"
        )
    return EXIT_OK if ok else EXIT_MISMATCH


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "identities":
            return _cmd_identities(args)
    except (
        ConfigError,
        UnknownScenario,
        ScenarioValidationError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhwcLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # e.g. the full rule of a chart without periodic axes, the only chart
        # that still builds one, too large for this machine (--order)
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
