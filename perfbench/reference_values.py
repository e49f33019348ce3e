"""Burning numbers of the refute workload's non-family graphs.

Computed once with ``burning_number_exact`` of burnkit 0.1.0, the version
this benchmark was defined against, and checked since on every run. A
later version that disagrees is wrong on that item, or this file is.

``TREE_VALUES`` maps an index of ``workloads.tree_shapes`` (the stream of
random trees drawn from ``TREE_SHAPE_SEED``) to the burning number of that
tree. It holds the first 64 trees of the stream whose solver lower bound
was exactly one below the value, so each needs one exhausted level.
Relabelling a graph keeps its burning number, so the values hold for
every benchmark seed.
"""

TREE_SHAPE_SEED = 2016

TREE_VALUES = {
    1: 5, 2: 5, 3: 5, 4: 6, 5: 5, 7: 6, 8: 5, 9: 5,
    10: 6, 11: 6, 12: 5, 14: 6, 16: 5, 17: 5, 18: 6, 19: 5,
    20: 6, 21: 5, 22: 6, 23: 6, 24: 5, 26: 5, 29: 6, 30: 6,
    31: 5, 32: 5, 33: 6, 35: 5, 37: 5, 38: 5, 39: 6, 40: 5,
    41: 5, 42: 5, 44: 5, 45: 6, 46: 5, 47: 5, 48: 5, 49: 5,
    50: 5, 51: 6, 52: 6, 53: 5, 54: 6, 56: 6, 57: 6, 58: 5,
    59: 6, 60: 6, 61: 6, 62: 5, 63: 6, 64: 6, 65: 6, 67: 6,
    68: 6, 70: 6, 72: 6, 73: 5, 74: 5, 75: 6, 76: 6, 77: 5,
}

GRID_VALUES = {
    "grid:5x5": 4,
    "grid:5x6": 4,
    "grid:5x7": 5,
    "grid:5x8": 5,
    "grid:5x9": 5,
    "grid:6x6": 5,
    "grid:6x7": 5,
    "grid:6x8": 5,
    "grid:6x9": 5,
    "grid:7x7": 5,
    "grid:7x8": 5,
    "grid:7x9": 6,
    "grid:8x8": 6,
    "grid:8x9": 6,
}
