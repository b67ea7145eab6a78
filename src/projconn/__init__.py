"""Tensor calculus for projective semi-symmetric connections on Riemannian
charts, with a verification suite that certifies curvature identities
numerically at sampled points using exact symbolic differentiation of the
metric data."""

from .expr import Expr, ParseError, diff, evaluate, parse, to_text
from .geometry import (
    GateError,
    ManifoldSpec,
    MetricValue,
    NotSPDError,
    SampleSet,
    SpecError,
    load_spec,
    metric_at,
    sample,
)
from .connections import ConnectionCoeffs, connection_at
from .curvature import (
    Jet,
    NullityFit,
    QuasiEinsteinFit,
    jet,
    nullity_fit,
    quasi_einstein_fit,
    rtilde_closed_form,
    theta_beta,
)
from .report import CheckReport
from .theorems import (
    CHECK_IDS,
    run_checks,
)
from .catalog import CatalogEntry, builtin, catalog_names

__version__ = "0.1.0"
