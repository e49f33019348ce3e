"""Build graphs from family parameters and enumerate sweep instances.

The textual spec grammar mirrors the recognizer's descriptors:

    path:n | cycle:g | forest:a1,a2,... | star:l1,l2,... | uni:g;a1,a2,...

Vertex numbering is frozen so that certificates are comparable across runs:
paths and cycles are numbered along the walk; forests place their parts
(descending order) in consecutive blocks; stars put the hub at 0; for
uni:g;a1,... the cycle occupies ids 0..g-1 with the attachment vertex at
g-1, followed by the arms in descending order, each numbered outward.
A descriptor passed to :func:`build` is first made canonical (parts and
arms sorted descending), so it builds the graph of its spec string.

:func:`build` writes each vertex's sorted neighbour tuple directly, with
no edge list, and wraps them in a :class:`Graph` unchecked. The tests
hold it equal (vertex count, adjacency, ``==`` and hash) to the checked
``Graph(n, edges)`` construction over the edges of the same numbering.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .graphs import (
    MAX_VERTICES,
    Cycle,
    FamilyDescriptor,
    GeneralizedStar,
    Graph,
    LinearForest,
    Path,
    TUnicyclic,
)

# smallest order of each sweep class's members
SWEEP_MIN_ORDER = {"path": 1, "cycle": 3, "forest2": 2, "forest3": 3, "uni1": 4, "uni2": 5}
SWEEP_CLASSES = tuple(SWEEP_MIN_ORDER)


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
        return _checked(LinearForest(parts))
    if kind == "star":
        arms = _parse_ints(rest, "arm")
        return _checked(GeneralizedStar(arms))
    if kind == "uni":
        g_text, sep, arms_text = rest.partition(";")
        if not sep:
            raise SpecError(f"uni spec needs 'g;a1,...', got {text!r}")
        g = _parse_int(g_text, "cycle length")
        arms = _parse_ints(arms_text, "arm")
        return _checked(TUnicyclic(g=g, arms=arms))
    raise SpecError(f"unknown family {head!r}")


def _checked(desc: FamilyDescriptor) -> FamilyDescriptor:
    """The canonical form of a descriptor, its parts or arms sorted
    descending; raises SpecError on invalid parameters.

    An order above ``MAX_VERTICES``, the limit on graph file headers, is
    rejected here, before anything is built.
    """
    if isinstance(desc, Path):
        if desc.n < 1:
            raise SpecError(f"path order must be >= 1, got {desc.n}")
        n = desc.n
    elif isinstance(desc, Cycle):
        if desc.g < 3:
            raise SpecError(f"cycle length must be >= 3, got {desc.g}")
        n = desc.g
    elif isinstance(desc, LinearForest):
        if any(p < 1 for p in desc.parts):
            raise SpecError(f"forest parts must be >= 1, got {desc.parts}")
        n = sum(desc.parts)
        desc = LinearForest(tuple(sorted(desc.parts, reverse=True)))
    elif isinstance(desc, GeneralizedStar):
        if len(desc.arms) < 3:
            raise SpecError(f"star needs >= 3 arms, got {len(desc.arms)}")
        if any(a < 1 for a in desc.arms):
            raise SpecError(f"star arms must be >= 1, got {desc.arms}")
        n = 1 + sum(desc.arms)
        desc = GeneralizedStar(tuple(sorted(desc.arms, reverse=True)))
    elif isinstance(desc, TUnicyclic):
        if desc.g < 3:
            raise SpecError(f"cycle length must be >= 3, got {desc.g}")
        if not desc.arms or any(a < 1 for a in desc.arms):
            raise SpecError(f"arms must be >= 1, got {desc.arms}")
        n = desc.g + sum(desc.arms)
        desc = TUnicyclic(desc.g, tuple(sorted(desc.arms, reverse=True)))
    else:
        raise SpecError(f"cannot build {desc!r}")
    if n > MAX_VERTICES:
        raise SpecError(f"family has {n} vertices, more than {MAX_VERTICES}")
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


def _lay_path(adjacency: list[tuple[int, ...]], count: int, hub: Optional[int] = None) -> None:
    """Append the neighbour tuples of a path of ``count`` vertices, numbered
    on from ``len(adjacency)``, its first vertex joined to ``hub`` (a lower
    id, whose own tuple the caller extends) when one is given."""
    start = len(adjacency)
    end = start + count - 1
    first = () if hub is None else (hub,)
    if count == 1:
        adjacency.append(first)
        return
    adjacency.append(first + (start + 1,))
    adjacency.extend(zip(range(start, end - 1), range(start + 2, end + 1)))
    adjacency.append((end - 1,))


def build(spec: Union[str, FamilyDescriptor]) -> Graph:
    """Construct the graph for a family spec; identical spec, identical graph.

    The sorted neighbour tuples are written directly in the frozen
    numbering (module docstring), with no edge list and no second check:
    the builder makes a simple graph by construction. Tests compare every
    sweep instance with the checked ``Graph(n, edges)`` construction.
    """
    desc = parse_spec(spec) if isinstance(spec, str) else _checked(spec)
    adjacency: list[tuple[int, ...]] = []
    if isinstance(desc, (Path, LinearForest)):
        for p in desc.parts if isinstance(desc, LinearForest) else (desc.n,):
            _lay_path(adjacency, p)
        return Graph._from_adjacency(tuple(adjacency))
    if isinstance(desc, GeneralizedStar):
        hub, arms = 0, desc.arms
        adjacency.append(())
    else:  # a cycle, or the cycle of a t-unicyclic graph, on ids 0..g-1
        hub, arms = desc.g - 1, desc.arms if isinstance(desc, TUnicyclic) else ()
        _lay_path(adjacency, desc.g)
        adjacency[0] = (1, hub)
        adjacency[hub] = (0, hub - 1)
    starts = []
    for a in arms:
        starts.append(len(adjacency))
        _lay_path(adjacency, a, hub)
    adjacency[hub] += tuple(starts)
    return Graph._from_adjacency(tuple(adjacency))


def enumerate_sweep(family_class: str, max_n: int) -> Iterator[FamilyDescriptor]:
    """Exhaustive, duplicate-free canonical specs with total order n <= max_n.

    Enumeration order is lexicographic on (n, g, a1, ...), so sweep logs are
    deterministic. Parts and arms are emitted in descending order only.
    Every class has an instance of order ``max_n``, so a ``max_n`` above
    ``MAX_VERTICES`` is rejected before the first instance.
    """
    if family_class not in SWEEP_MIN_ORDER:
        raise SpecError(f"unknown sweep class {family_class!r}")
    least = SWEEP_MIN_ORDER[family_class]
    if max_n < least:
        raise SpecError(f"{family_class} sweep needs max_n >= {least}")
    if max_n > MAX_VERTICES:
        raise SpecError(f"{family_class} sweep needs max_n <= {MAX_VERTICES}, got {max_n}")
    for n in range(least, max_n + 1):
        if family_class == "path":
            yield Path(n)
        elif family_class == "cycle":
            yield Cycle(n)
        elif family_class == "forest2":
            for a1 in range(-(-n // 2), n):
                yield LinearForest((a1, n - a1))
        elif family_class == "forest3":
            for a1 in range(-(-n // 3), n - 1):
                rest = n - a1
                for a2 in range(-(-rest // 2), min(a1, rest - 1) + 1):
                    yield LinearForest((a1, a2, rest - a2))
        elif family_class == "uni1":
            for g in range(3, n):
                yield TUnicyclic(g=g, arms=(n - g,))
        else:
            for g in range(3, n - 1):
                total = n - g
                for a1 in range(-(-total // 2), total):
                    yield TUnicyclic(g=g, arms=(a1, total - a1))
