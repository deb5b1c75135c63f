"""Exact and numerical tools for U(2)-invariant 4-metrics.

A metric is described by a profile F and a conformal factor C on a z-interval;
the package evaluates its curvature, classifies its special-geometry
properties, analyzes bolts and ends, integrates the B^t-flat flow, and ships a
catalog of the classic closed-form examples.
"""
from .exppoly import EvalOverflowError, ExpPoly, ExpPolyError
from .profiles import (
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    OutOfDomainError,
    RatioFactor,
    SingularConformalFactorError,
    canonical,
)
from .operators import b_op, l_compose, l_op
from .curvature import (
    CurvatureSample,
    curvature_sample,
    kahler_scalar_curvature,
    ricci_form_kahler,
    scalar_curvature,
    weyl_energy,
)
from .classify import ClassificationReport, PredicateResult, classify
from .btflat import (
    BtSample,
    BtState,
    BtTrajectory,
    bt_csc_seed,
    bt_integrate,
    bt_nonextremal_search,
    bt_residuals,
)
from .geometry import (
    Bolt,
    EndReport,
    ambikahler_transform,
    classify_end,
    distance,
    find_bolts,
    fit_exp_family,
    transcribe_classic,
)
from .catalog import (
    CatalogEntry,
    catalog_get,
    catalog_list,
    catalog_names,
    hirzebruch_bachflat_k,
    page_constants,
)
from .metricfile import MetricFileError, emit_metric, parse_metric

__version__ = "0.1.0"
