"""Graph burning number toolkit.

An exact solver with verifiable certificates, constant-time evaluators for
paths, cycles, linear forests with up to three components, and unicyclic
graphs with one or two pendant arms, plus sweep machinery that
cross-validates every closed form against the exact solver.
"""

from .compute import NoClosedForm, compute
from .families import (
    SWEEP_CLASSES,
    SpecError,
    build,
    enumerate_sweep,
    format_spec,
    parse_spec,
)
from .formulas import (
    b2_by_degree,
    b_cycle,
    b_path,
    b_three_paths,
    b_two_paths,
    t_unicyclic_bounds,
)
from .graphs import (
    Cycle,
    FamilyDescriptor,
    GeneralizedStar,
    Graph,
    GraphFormatError,
    LinearForest,
    Other,
    Path,
    QRDecomposition,
    TUnicyclic,
    connected_components,
    distance_matrix,
    distance_rows,
    parse_graph,
    qr_decompose,
    read_graph,
    recognize_family,
    write_graph,
)
from .intmath import ceil_sqrt
from .solver import (
    BurnResult,
    Inconclusive,
    SequenceCheck,
    TreePart,
    burning_number_exact,
    check_sequence,
    extract_partition,
    find_sequence,
    unicyclic_spanning_upper,
    verify_sequence,
)
from .tables import b_unicyclic_t1, b_unicyclic_t2, load_errata, parse_errata

__all__ = [
    "BurnResult",
    "Cycle",
    "FamilyDescriptor",
    "GeneralizedStar",
    "Graph",
    "GraphFormatError",
    "Inconclusive",
    "LinearForest",
    "NoClosedForm",
    "Other",
    "Path",
    "QRDecomposition",
    "SequenceCheck",
    "SpecError",
    "SWEEP_CLASSES",
    "TreePart",
    "TUnicyclic",
    "b2_by_degree",
    "b_cycle",
    "b_path",
    "b_three_paths",
    "b_two_paths",
    "b_unicyclic_t1",
    "b_unicyclic_t2",
    "build",
    "burning_number_exact",
    "ceil_sqrt",
    "check_sequence",
    "compute",
    "connected_components",
    "distance_matrix",
    "distance_rows",
    "enumerate_sweep",
    "extract_partition",
    "find_sequence",
    "format_spec",
    "load_errata",
    "parse_errata",
    "parse_graph",
    "parse_spec",
    "qr_decompose",
    "read_graph",
    "recognize_family",
    "t_unicyclic_bounds",
    "unicyclic_spanning_upper",
    "verify_sequence",
    "write_graph",
]
