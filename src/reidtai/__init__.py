"""Exact age sweeps over boundary-chart spectra of degenerating abelian
varieties, with a numeric eigenvalue oracle and a reporting CLI."""

from .criterion import (
    ExceptionRecord,
    InteriorSummary,
    PropositionViolation,
    SweepResult,
    TorusSummary,
    Verdict,
    ViolationRecord,
    boundary_moved_count,
    check_exception_catalog,
    dedupe_exceptions,
    fold_chart,
    interior_verdict,
    reduction_support,
    rst_verdict,
    sweep_sym2,
    sweep_v,
    torus_summary,
)
from .enumeration import (
    CONSTRAINT_MODES,
    ElementClass,
    EnumerationConfig,
    element_classes,
    lattice_classes,
    ppav_classes,
)
from .functors import (
    age,
    direct_sum,
    fixed_multiplicity,
    forms_spectrum,
    power,
    sym2,
    tensor,
    v_spectrum,
)
from .rotations import (
    MAX_DENOMINATOR,
    OrbitSignature,
    RotationNumber,
    Spectrum,
    divisors,
    element_order,
    galois_orbit,
    parse_spectrum,
    rot,
    rot_from_str,
    totient,
)

__version__ = "0.1.0"
