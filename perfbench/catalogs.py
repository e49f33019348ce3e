"""Catalog members the classify and refute inputs are drawn from.

A copy of the exception catalogs of burnkit 0.1.0 (``burnkit.tables`` and
``burnkit.formulas``), the version this benchmark was defined against. The
benchmark keeps its own copy so that its inputs stay the same when a later
version derives, renames or removes the catalogs; the answers are still
checked against the library.

``T2_TEMPLATES`` and ``T1_TEMPLATES`` give the parametric members for a
given q (two-arm: the short-cycle, second, third and the three long-chain
families; one-arm: the exceptional pairs). Tuples whose cycle is shorter
than 3, whose arm is shorter than 1 or whose arms are out of order are
not members.
"""

T2_TEMPLATES = (
    lambda q: (2 * q - 2, q * q - q - 2, q + 1),
    lambda q: (2 * q - 1, q * q - q - 2, q + 1),
    lambda q: (q * q - 7, q + 2, q + 1),
    lambda q: (2 * q + 1, q * q - q - 6, q + 1),
    lambda q: (2 * q + 1, q * q - q - 7, q + 2),
    lambda q: (q * q - 3, q, q),
    lambda q: (q * q - 5, q + 1, q + 1),
    lambda q: (q * q - 6, q + 2, q + 1),
    lambda q: (q * q - 7, q + 2, q + 2),
    lambda q: (q * q - 7, q + 3, q + 1),
    lambda q: (q * q - 11, q + 4, q + 4),
    lambda q: (2 * q + 4, q * q - q - 11, q + 4),
    lambda q: (2 * q + 1, q * q - q - 5, q + 1),
    lambda q: (2 * q + 1, q * q - q - 6, q + 2),
    lambda q: (2 * q + 1, q * q - q - 7, q + 3),
    lambda q: (2 * q + 2, q * q - q - 6, q + 1),
    lambda q: (2 * q + 2, q * q - q - 7, q + 2),
    lambda q: (2 * q + 3, q * q - q - 7, q + 1),
    lambda q: (2 * q, q * q - q - 3, q),
    lambda q: (q * q - 2, q, q),
    lambda q: (q * q - 6, q + 2, q + 2),
    lambda q: (q * q - 10, q + 4, q + 4),
    lambda q: (q * q - 3, q + 1, q),
    lambda q: (q * q - 5, q + 3, q),
    lambda q: (q * q - 7, q + 3, q + 2),
    lambda q: (q * q - 8, q + 3, q + 3),
    lambda q: (q * q - 7, q + 5, q),
    lambda q: (q * q - 10, q + 5, q + 3),
    lambda q: (q * q - 11, q + 5, q + 4),
    lambda q: (q * q - 12, q + 5, q + 5),
    lambda q: (q * q - 14, q + 6, q + 6),
    lambda q: (q * q - 12, q + 7, q + 3),
    lambda q: (q * q - 14, q + 7, q + 5),
    lambda q: (q * q - 14, q + 9, q + 3),
    lambda q: (2 * q, q * q - q - 2, q),
    lambda q: (2 * q + 2, q * q - q - 6, q + 2),
    lambda q: (2 * q + 4, q * q - q - 10, q + 4),
    lambda q: (2 * q + 1, q * q - q - 3, q),
    lambda q: (2 * q + 3, q * q - q - 5, q),
    lambda q: (2 * q + 3, q * q - q - 7, q + 2),
    lambda q: (2 * q + 3, q * q - q - 8, q + 3),
    lambda q: (2 * q + 5, q * q - q - 7, q),
    lambda q: (2 * q + 5, q * q - q - 10, q + 3),
    lambda q: (2 * q + 5, q * q - q - 11, q + 4),
    lambda q: (2 * q + 5, q * q - q - 12, q + 5),
    lambda q: (2 * q + 6, q * q - q - 14, q + 6),
    lambda q: (2 * q + 7, q * q - q - 12, q + 3),
    lambda q: (2 * q + 7, q * q - q - 14, q + 5),
    lambda q: (2 * q + 9, q * q - q - 14, q + 3),
    lambda q: (2 * q, q * q - q - 3, q + 1),
    lambda q: (2 * q, q * q - q - 5, q + 3),
    lambda q: (2 * q + 2, q * q - q - 7, q + 3),
    lambda q: (2 * q, q * q - q - 7, q + 5),
    lambda q: (2 * q + 3, q * q - q - 10, q + 5),
    lambda q: (2 * q + 4, q * q - q - 11, q + 5),
    lambda q: (2 * q + 3, q * q - q - 12, q + 7),
    lambda q: (2 * q + 5, q * q - q - 14, q + 7),
    lambda q: (2 * q + 3, q * q - q - 14, q + 9),
)

T1_TEMPLATES = (
    lambda q: (2 * q + 1, q * q - q - 2),
    lambda q: (q * q - 2, q + 1),
)

# sporadic members of the third two-arm family
C3_LITERALS = ((13, 16, 16), (22, 16, 7))

# the literal members of the three long-chain two-arm families, (g, a1, a2)
T2_LITERALS = (
    (12, 18, 16), (14, 16, 16), (14, 28, 19), (17, 23, 21), (17, 25, 19),
    (19, 21, 21), (19, 23, 19), (19, 33, 26), (19, 35, 24), (19, 37, 22),
    (21, 21, 19), (21, 33, 24), (21, 35, 22), (21, 38, 38), (21, 49, 27),
    (21, 51, 25), (22, 16, 8), (22, 18, 6), (23, 19, 19), (23, 33, 22),
    (23, 49, 25), (23, 67, 28), (24, 16, 6), (26, 19, 16), (26, 21, 14),
    (26, 23, 12), (26, 25, 10), (26, 28, 7), (28, 19, 14), (28, 21, 12),
    (28, 23, 10), (30, 19, 12), (30, 21, 10), (30, 24, 24), (30, 26, 22),
    (30, 33, 15), (30, 35, 13), (30, 37, 11), (32, 19, 10), (32, 24, 22),
    (32, 33, 13), (32, 35, 11), (34, 22, 22), (34, 33, 11), (34, 38, 25),
    (34, 49, 14), (34, 51, 12), (35, 19, 7), (36, 49, 12), (38, 67, 13),
    (41, 22, 15), (41, 24, 13), (41, 26, 11), (43, 22, 13), (43, 24, 11),
    (45, 22, 11), (47, 25, 25), (47, 38, 12), (58, 25, 14), (58, 27, 12),
    (60, 25, 12), (77, 28, 13),
)

# sporadic three-path exceptions, descending
J5 = (
    (11, 11, 3), (13, 11, 1), (13, 13, 10), (15, 13, 8), (15, 15, 6),
    (17, 13, 6), (17, 15, 4), (17, 17, 15), (19, 13, 4), (19, 15, 15),
    (22, 13, 1), (26, 15, 8), (26, 17, 6), (26, 19, 4), (28, 15, 6),
    (28, 17, 4), (30, 15, 4), (30, 17, 17), (30, 30, 4), (41, 17, 6),
    (41, 19, 4), (43, 17, 4), (58, 19, 4),
)

# Three-path exception patterns: (k, pairs) means that a total of t*t - k
# whose two smaller parts form one of ``pairs`` needs one extra round.
F3_PATTERNS = (
    (3, ((2, 2),)),
    (2, ((2, 2), (3, 2))),
    (1, ((1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (5, 5))),
    (0, ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4),
         (5, 5), (6, 1), (6, 4), (6, 5), (6, 6), (7, 7), (8, 4), (8, 6), (10, 4))),
)


def t2_members(q: int) -> list[tuple[int, int, int]]:
    """Parametric two-arm members for q, with the sporadic ones, sorted."""
    members = set(C3_LITERALS)
    for template in T2_TEMPLATES:
        g, a1, a2 = template(q)
        if g >= 3 and a1 >= a2 >= 1:
            members.add((g, a1, a2))
    return sorted(members)


def t1_members(q: int) -> list[tuple[int, int]]:
    """One-arm exceptional pairs for q, sorted."""
    return sorted({(g, a) for g, a in (t(q) for t in T1_TEMPLATES) if g >= 3 and a >= 1})
