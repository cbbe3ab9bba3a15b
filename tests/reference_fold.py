"""The object-level chart fold, kept as the reference for the integer fold.

It builds a class, the symmetric-square and tensor spectra and their
Fraction ages for every (W, Lambda) pair: slow, but a direct reading of
V = Sym^2 W + W (x) Lambda.  ``reidtai.criterion.fold_chart`` must agree
with it result for result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from reidtai.criterion import (
    ONE,
    ExceptionRecord,
    SweepResult,
    ViolationRecord,
    exceptional_shape,
)
from reidtai.enumeration import ElementClass, EnumerationConfig, lattice_factor_classes
from reidtai.functors import age, sym2, tensor
from reidtai.rotations import Spectrum, element_order


def classes_for(
    w_subset: Iterable[Spectrum], cfg: EnumerationConfig
) -> list[ElementClass]:
    """The classes of the chart whose W lies in w_subset, with every Lambda
    of the config's lattice stream; the identity pair is skipped."""
    lams = list(lattice_factor_classes(cfg))
    return [
        ElementClass.build(w, b)
        for w in w_subset
        for b in lams
        if not (w.is_identity() and b.is_identity())
    ]


def sweep_over(
    h: int,
    r: int,
    classes: Iterable[ElementClass],
    include_age_one: bool = False,
) -> SweepResult:
    """Fold ages over an explicit class stream.

    Kernel-flagged classes are skipped.  Violations are collected, not
    raised.
    """
    min_age: Fraction | None = None
    witnesses: list[ElementClass] = []
    exceptions: list[ExceptionRecord] = []
    violations: list[ViolationRecord] = []
    seen = 0
    for c in classes:
        seen += 1
        if c.kernel_on_v:
            continue
        sym2_spec = sym2(c.w_spec)
        tensor_spec = tensor(c.w_spec, c.lambda_spec)
        a2 = age(sym2_spec)
        at = age(tensor_spec)
        av = a2 + at
        if min_age is None or av < min_age:
            min_age = av
            witnesses = [c]
        elif av == min_age:
            witnesses.append(c)
        if av < ONE or (include_age_one and av == ONE):
            exceptions.append(
                ExceptionRecord(c, a2, at, av, exceptional_shape(c))
            )
        if av < ONE:
            v_order = math.lcm(element_order(sym2_spec), element_order(tensor_spec))
            if v_order != 2:
                violations.append(ViolationRecord("order-2", c, av, v_order))
    return SweepResult(
        h,
        r,
        seen,
        min_age,
        tuple(sorted(witnesses, key=lambda c: c.sort_key)),
        tuple(sorted(exceptions, key=lambda e: e.element.sort_key)),
        tuple(sorted(violations, key=lambda v: (v.rule, v.element.sort_key))),
    )
