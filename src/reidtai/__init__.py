"""Exact age sweeps over boundary-chart spectra of degenerating abelian
varieties, with a numeric eigenvalue oracle and a reporting CLI.

Every public name below is re-exported from its home module, which is
imported on the name's first use (PEP 562), so ``import reidtai.cli``
loads only the modules the command runs: the oracle loads neither the
chart sweeps (``criterion``) nor the class streams (``enumeration``).
"""

__version__ = "0.1.0"

# each re-exported name -> the module that defines it
_HOMES = {
    **dict.fromkeys(
        (
            "ExceptionRecord", "InteriorSummary", "PropositionViolation", "SweepResult",
            "TorusSummary", "Verdict", "ViolationRecord", "boundary_moved_count",
            "check_exception_catalog", "dedupe_exceptions", "fold_chart",
            "interior_verdict", "reduction_support", "rst_verdict", "sweep_sym2",
            "sweep_v", "torus_summary",
        ),
        "criterion",
    ),
    **dict.fromkeys(
        (
            "ElementClass", "EnumerationConfig", "element_classes", "lattice_classes",
            "ppav_classes",
        ),
        "enumeration",
    ),
    **dict.fromkeys(
        (
            "age", "direct_sum", "fixed_multiplicity", "forms_spectrum", "power", "sym2",
            "tensor", "v_spectrum",
        ),
        "functors",
    ),
    **dict.fromkeys(
        (
            "CONSTRAINT_MODES", "MAX_DENOMINATOR", "OrbitSignature", "RotationNumber",
            "Spectrum", "divisors", "element_order", "galois_orbit", "parse_spectrum",
            "rot", "rot_from_str", "totient",
        ),
        "rotations",
    ),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
