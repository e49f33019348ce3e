"""Build graphs from family parameters and enumerate sweep instances.

The textual spec grammar mirrors the recognizer's descriptors:

    path:n | cycle:g | forest:a1,a2,... | star:l1,l2,... | uni:g;a1,a2,...

Vertex numbering is frozen so that certificates are comparable across runs:
paths and cycles are numbered along the walk; forests place their parts
(descending order) in consecutive blocks; stars put the hub at 0; for
uni:g;a1,... the cycle occupies ids 0..g-1 with the attachment vertex at
g-1, followed by the arms in descending order, each numbered outward.
"""

from __future__ import annotations

from typing import Iterator, Union

from .graphs import (
    Cycle,
    FamilyDescriptor,
    GeneralizedStar,
    Graph,
    LinearForest,
    Path,
    TUnicyclic,
)

SWEEP_CLASSES = ("path", "cycle", "forest2", "forest3", "uni1", "uni2")


class SpecError(ValueError):
    """Raised for malformed family specs or invalid parameters."""


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(f) for f in text.split(","))
    except ValueError:
        raise SpecError(f"non-integer {what} in {text!r}") from None
    if not values:
        raise SpecError(f"empty {what} list")
    return values


def _parse_int(text: str, what: str) -> int:
    values = _parse_ints(text, what)
    if len(values) != 1:
        raise SpecError(f"expected one {what}, got {text!r}")
    return values[0]


def parse_spec(text: str) -> FamilyDescriptor:
    """Parse a family spec string into a canonical descriptor."""
    head, sep, rest = text.strip().partition(":")
    if not sep or not rest:
        raise SpecError(f"malformed family spec {text!r}")
    kind = head.strip().lower()
    if kind == "path":
        n = _parse_int(rest, "order")
        return _checked(Path(n))
    if kind == "cycle":
        g = _parse_int(rest, "order")
        return _checked(Cycle(g))
    if kind == "forest":
        parts = _parse_ints(rest, "part")
        return _checked(LinearForest(tuple(sorted(parts, reverse=True))))
    if kind == "star":
        arms = _parse_ints(rest, "arm")
        return _checked(GeneralizedStar(tuple(sorted(arms, reverse=True))))
    if kind == "uni":
        g_text, sep, arms_text = rest.partition(";")
        if not sep:
            raise SpecError(f"uni spec needs 'g;a1,...', got {text!r}")
        g = _parse_int(g_text, "cycle length")
        arms = _parse_ints(arms_text, "arm")
        return _checked(TUnicyclic(g=g, arms=tuple(sorted(arms, reverse=True))))
    raise SpecError(f"unknown family {head!r}")


def _checked(desc: FamilyDescriptor) -> FamilyDescriptor:
    """Validate descriptor parameters, raising SpecError on violations."""
    if isinstance(desc, Path):
        if desc.n < 1:
            raise SpecError(f"path order must be >= 1, got {desc.n}")
    elif isinstance(desc, Cycle):
        if desc.g < 3:
            raise SpecError(f"cycle length must be >= 3, got {desc.g}")
    elif isinstance(desc, LinearForest):
        if any(p < 1 for p in desc.parts):
            raise SpecError(f"forest parts must be >= 1, got {desc.parts}")
    elif isinstance(desc, GeneralizedStar):
        if len(desc.arms) < 3:
            raise SpecError(f"star needs >= 3 arms, got {len(desc.arms)}")
        if any(a < 1 for a in desc.arms):
            raise SpecError(f"star arms must be >= 1, got {desc.arms}")
    elif isinstance(desc, TUnicyclic):
        if desc.g < 3:
            raise SpecError(f"cycle length must be >= 3, got {desc.g}")
        if not desc.arms or any(a < 1 for a in desc.arms):
            raise SpecError(f"arms must be >= 1, got {desc.arms}")
    else:
        raise SpecError(f"cannot build {desc!r}")
    return desc


def format_spec(desc: FamilyDescriptor) -> str:
    """Canonical spec string for a descriptor (inverse of parse_spec)."""
    if isinstance(desc, Path):
        return f"path:{desc.n}"
    if isinstance(desc, Cycle):
        return f"cycle:{desc.g}"
    if isinstance(desc, LinearForest):
        return "forest:" + ",".join(map(str, desc.parts))
    if isinstance(desc, GeneralizedStar):
        return "star:" + ",".join(map(str, desc.arms))
    if isinstance(desc, TUnicyclic):
        return f"uni:{desc.g};" + ",".join(map(str, desc.arms))
    return "other"


def _path_edges(ids: list[int]) -> list[tuple[int, int]]:
    return [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]


def build(spec: Union[str, FamilyDescriptor]) -> Graph:
    """Construct the graph for a family spec; identical spec, identical graph."""
    desc = parse_spec(spec) if isinstance(spec, str) else _checked(spec)
    if isinstance(desc, Path):
        return Graph(desc.n, _path_edges(list(range(desc.n))))
    if isinstance(desc, Cycle):
        g = desc.g
        return Graph(g, [(i, (i + 1) % g) for i in range(g)])
    if isinstance(desc, LinearForest):
        edges = []
        start = 0
        for p in desc.parts:
            edges.extend(_path_edges(list(range(start, start + p))))
            start += p
        return Graph(sum(desc.parts), edges)
    if isinstance(desc, GeneralizedStar):
        return _attach_arms(hub_edges=[], hub=0, n_core=1, arms=desc.arms)
    if isinstance(desc, TUnicyclic):
        g = desc.g
        cycle_edges = [(i, (i + 1) % g) for i in range(g)]
        return _attach_arms(hub_edges=cycle_edges, hub=g - 1, n_core=g, arms=desc.arms)
    raise SpecError(f"cannot build {desc!r}")


def _attach_arms(hub_edges, hub, n_core, arms) -> Graph:
    edges = list(hub_edges)
    nxt = n_core
    for a in arms:
        prev = hub
        for _ in range(a):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def enumerate_sweep(family_class: str, max_n: int) -> Iterator[FamilyDescriptor]:
    """Exhaustive, duplicate-free canonical specs with total order n <= max_n.

    Enumeration order is lexicographic on (n, g, a1, ...), so sweep logs are
    deterministic. Parts and arms are emitted in descending order only.
    """
    if family_class == "path":
        if max_n < 1:
            raise SpecError("path sweep needs max_n >= 1")
        for n in range(1, max_n + 1):
            yield Path(n)
    elif family_class == "cycle":
        if max_n < 3:
            raise SpecError("cycle sweep needs max_n >= 3")
        for g in range(3, max_n + 1):
            yield Cycle(g)
    elif family_class == "forest2":
        if max_n < 2:
            raise SpecError("forest2 sweep needs max_n >= 2")
        for n in range(2, max_n + 1):
            for a1 in range(-(-n // 2), n):
                yield LinearForest((a1, n - a1))
    elif family_class == "forest3":
        if max_n < 3:
            raise SpecError("forest3 sweep needs max_n >= 3")
        for n in range(3, max_n + 1):
            for a1 in range(-(-n // 3), n - 1):
                rest = n - a1
                for a2 in range(-(-rest // 2), min(a1, rest - 1) + 1):
                    yield LinearForest((a1, a2, rest - a2))
    elif family_class == "uni1":
        if max_n < 4:
            raise SpecError("uni1 sweep needs max_n >= 4")
        for n in range(4, max_n + 1):
            for g in range(3, n):
                yield TUnicyclic(g=g, arms=(n - g,))
    elif family_class == "uni2":
        if max_n < 5:
            raise SpecError("uni2 sweep needs max_n >= 5")
        for n in range(5, max_n + 1):
            for g in range(3, n - 1):
                total = n - g
                for a1 in range(-(-total // 2), total):
                    yield TUnicyclic(g=g, arms=(a1, total - a1))
    else:
        raise SpecError(f"unknown sweep class {family_class!r}")
