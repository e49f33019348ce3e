"""Method routing: pick a closed form or table when one applies.

``method="auto"`` recognizes the graph's family and answers by its
constant-time evaluator: the path, cycle and linear-forest formulas, or
the one- and two-arm unicyclic tables (total, so they never search). The
degree criterion (b = 2 iff some vertex has degree n-2 or more) applies
to every family without an evaluator of its own: linear forests with four
or more components, unicyclic graphs with three or more arms, generalized
stars and everything unrecognized. What it does not settle goes to the
exact solver, the only route the node budget limits. ``method="formula"``
raises NoClosedForm for those instead, and ``method="exact"`` always
searches.
"""

from __future__ import annotations

from typing import Optional

from . import formulas, tables
from .graphs import (
    Cycle,
    FamilyDescriptor,
    Graph,
    LinearForest,
    Path,
    TUnicyclic,
    recognize_family,
)
from .solver import BurnResult, burning_number_exact

METHODS = ("auto", "exact", "formula")


class NoClosedForm(ValueError):
    """No formula or table covers this graph family."""


def _exact_value(value: int, method: str) -> BurnResult:
    return BurnResult(value=value, method=method, lower_bound=value, upper_bound=value)


def _formula_route(g: Graph, family: FamilyDescriptor) -> Optional[BurnResult]:
    if isinstance(family, Path):
        return _exact_value(formulas.b_path(family.n), "formula-path")
    if isinstance(family, Cycle):
        return _exact_value(formulas.b_cycle(family.g), "formula-cycle")
    if isinstance(family, LinearForest):
        parts = family.parts
        if len(parts) == 1:
            return _exact_value(formulas.b_path(parts[0]), "formula-path")
        if len(parts) == 2:
            return _exact_value(formulas.b_two_paths(*parts), "formula-forest2")
        if len(parts) == 3:
            return _exact_value(formulas.b_three_paths(*parts), "formula-forest3")
    if isinstance(family, TUnicyclic):
        if family.t == 1:
            return tables.b_unicyclic_t1(family.g, family.arms[0])
        if family.t == 2:
            return tables.b_unicyclic_t2(family.g, *family.arms)
    # every family without an evaluator of its own
    by_degree = formulas.b2_by_degree(g)
    if by_degree is not None:
        return _exact_value(by_degree, tables.DEGREE_B2)
    return None


def compute(g: Graph, method: str = "auto", budget: Optional[int] = None) -> BurnResult:
    """Burning number of ``g`` by the requested method.

    Raises NoClosedForm when ``method="formula"`` and no evaluator covers
    the graph's family, and propagates Inconclusive from budgeted exact
    searches.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "exact":
        return burning_number_exact(g, budget=budget)
    family = recognize_family(g)
    routed = _formula_route(g, family)
    if routed is not None:
        return routed
    if method == "formula":
        raise NoClosedForm(f"no closed form for family {family!r}")
    return burning_number_exact(g, budget=budget)
