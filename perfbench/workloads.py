"""The benchmark's workloads: which scenarios a pass builds and which checks it runs.

Every workload runs at the catalog's default quadrature orders, so each
verdict is the one a user of ``phwc-lab run`` gets.  The reasons for each
choice are in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

from phwc_lab.report import CHECK_NAMES as ALL_CHECKS


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple
    checks: tuple
    # Checks slow enough (> 0.5 s) to repeat within a tenth get their own
    # ``check.<name>_s`` metric; the rest count only toward ``checks_s``.
    named_checks: tuple
    identities: bool
    hessian_generators: int = 2  # RunConfig default; 0 runs every generator
    identity_points: int = 100
    # Cold set-ups per run, the pass's own included; the extra ones run in
    # set-up-only processes, so only cheap set-ups are repeated.
    setup_repeats: int = 1


KILLING_S5 = Workload(
    name="killing-s5",
    scenarios=("hopf-s5",),
    checks=("hessian",),
    named_checks=("hessian",),
    identities=False,
    hessian_generators=0,
    setup_repeats=8,
)

CATALOG_SWEEP = Workload(
    name="catalog-sweep",
    scenarios=("flat-holo", "hopf-s3", "hopf-s3-s2", "product-proj", "warped-hopf"),
    checks=ALL_CHECKS,
    named_checks=("hessian", "stability"),
    identities=True,
    setup_repeats=8,
)

# The workloads in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (KILLING_S5, CATALOG_SWEEP)}

# Run by hand, not in BENCHMARK.json: one pass takes ~35 s, so a run of
# ``run_seconds`` holds a single sample and cannot take a median.  It is the
# big-array workload (Jet2 outputs beyond L3, ~1.5 GB peak); run it, with
# interleaved parent/change runs, for a change to big-array paths.
POINTWISE_S7 = Workload(
    name="pointwise-s7",
    scenarios=("hopf-s7",),
    checks=tuple(c for c in ALL_CHECKS if c != "hessian"),
    named_checks=("criticality", "tension", "energy"),
    identities=False,
)

# A seconds-long configuration for the benchmark's own tests.  It names every
# per-check metric, so one smoke run emits every metric name the real
# workloads use; it is not listed in BENCHMARK.json.
SMOKE = Workload(
    name="smoke",
    scenarios=("flat-holo",),
    checks=ALL_CHECKS,
    named_checks=("hessian", "stability", "criticality", "tension", "energy"),
    identities=True,
    identity_points=8,
    setup_repeats=2,
)


# Every workload ``--workload`` accepts.
ALL = {**WORKLOADS, POINTWISE_S7.name: POINTWISE_S7, SMOKE.name: SMOKE}


def get(name):
    try:
        return ALL[name]
    except KeyError:
        known = ", ".join(sorted(ALL))
        raise SystemExit(f"unknown workload {name!r}; known: {known}") from None
