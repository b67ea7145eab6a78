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
    pi_at,
    sample,
)
from .connections import (
    ConnectionCoeffs,
    TensorField,
    TensorValue,
    check_parallel_unit_xi,
    covariant_derivative,
    levi_civita_at,
    nonmetricity_at,
    projective_coeffs_at,
    torsion_at,
)
from .curvature import (
    CurvatureValue,
    NullityFit,
    QuasiEinsteinFit,
    RicciValue,
    derivation_apply,
    nullity_fit,
    projective_at,
    quasi_einstein_fit,
    ricci_at,
    riemann_at,
    rtilde_closed_form,
    theta_beta_at,
)
from .report import CheckReport
from .theorems import (
    CHECK_IDS,
    run_checks,
)
from .catalog import CatalogEntry, builtin, catalog_names, write_catalog_files

__version__ = "0.1.0"
