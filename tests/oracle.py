"""Independent brute-force burning-number oracle for tests.

Enumerates every source sequence of length k (recursion filtered only by
the pairwise distance condition, which is part of the definition) and
checks the coverage condition at the leaves. Deliberately shares no code
with the solver: it reads adjacency lists directly and does its own BFS.
Only usable at small sizes.
"""

from collections import deque
from itertools import count

_INF = 10**9


def _bfs(adjacency, source):
    dist = [_INF] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] == _INF:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def brute_burnable(g, k: int) -> bool:
    """True iff some length-k burning sequence exists (exhaustive).

    Every component needs a source of its own, so a prefix is cut once the
    components without a source outnumber the sources still to place.
    """
    n = g.vertex_count
    dist = [_bfs(g.adjacency, s) for s in range(n)]
    # component of each vertex: the lowest vertex it reaches
    comp = [next(u for u in range(n) if row[u] < _INF) for row in dist]
    sources_in = {c: 0 for c in comp}
    unsourced = len(sources_in)
    seq: list[int] = []

    def rec(i: int) -> bool:
        nonlocal unsourced
        if unsourced > k - i:
            return False
        if i == k:
            covered = set()
            for j, x in enumerate(seq):
                radius = k - 1 - j
                covered.update(v for v in range(n) if dist[x][v] <= radius)
            return len(covered) == n
        for v in range(n):
            if v in seq:
                continue
            if all(dist[x][v] >= i - j for j, x in enumerate(seq)):
                seq.append(v)
                sources_in[comp[v]] += 1
                unsourced -= sources_in[comp[v]] == 1
                found = rec(i + 1)
                unsourced += sources_in[comp[v]] == 1
                sources_in[comp[v]] -= 1
                seq.pop()
                if found:
                    return True
        return False

    return rec(0)


def brute_burning_number(g) -> int:
    """Smallest k admitting a burning sequence, by exhaustive enumeration."""
    for k in count(1):
        if brute_burnable(g, k):
            return k
