"""Numerical calculus for pseudo horizontally weakly conformal maps,
metric f-structures and Faddeev-Hopf energies on coordinate-chart manifolds.

Layering: `autodiff` (dual numbers / second-order jets) feeds `geometry`
(charts, connection, quadrature), which feeds `maps` (jets, tension, fibre
geometry), `structures` (almost Hermitian / f-structures, PHWC),
`variational` (energies, criticality, Weyl connections) and `stability`
(second variation, Killing fields).  `scenarios` holds the validated
built-in geometries the checks run against; `report`/`cli` wrap everything
for the command line.
"""

from .autodiff import Dual, Jet2
from .errors import (
    ComplexChartMissing,
    ConfigError,
    DegenerateMetric,
    DifferentiationFailure,
    DimensionTooSmall,
    EigenframeDegenerate,
    IsotropyFailure,
    NonFiniteIntegrand,
    NotCritical,
    NotPHWC,
    NotSasakianScenario,
    NotSemiconformal,
    OutOfChart,
    PhwcLabError,
    RankDeficient,
    UnknownScenario,
)
from .geometry import Box, ChartManifold, QuadratureRule, TangentVector
from .maps import FibreSplitting, MapJet, SmoothMap
from .scenarios import Scenario, build_scenario, scenario_ids
from .structures import (
    AlmostHermitianStructure,
    ContactMetricStructure,
    MetricFStructure,
)
from .stability import VariationField
from .variational import EnergyReport

__all__ = [
    "Dual",
    "Jet2",
    "Box",
    "ChartManifold",
    "QuadratureRule",
    "TangentVector",
    "SmoothMap",
    "MapJet",
    "FibreSplitting",
    "AlmostHermitianStructure",
    "MetricFStructure",
    "ContactMetricStructure",
    "VariationField",
    "EnergyReport",
    "Scenario",
    "build_scenario",
    "scenario_ids",
    "PhwcLabError",
    "OutOfChart",
    "DegenerateMetric",
    "DifferentiationFailure",
    "NonFiniteIntegrand",
    "RankDeficient",
    "NotPHWC",
    "IsotropyFailure",
    "ComplexChartMissing",
    "NotSemiconformal",
    "NotCritical",
    "NotSasakianScenario",
    "EigenframeDegenerate",
    "DimensionTooSmall",
    "UnknownScenario",
    "ConfigError",
]

__version__ = "0.1.0"
