"""Exact combinatorics of pattern-restricted permutations and lattice paths.

The package has three layers that deliberately do not share code paths:
closed-form counting (:mod:`permpaths.formulas`, :mod:`permpaths.paths`,
:mod:`permpaths.series`), structure-preserving bijections
(:mod:`permpaths.bijections`), and a brute-force enumeration oracle
(:mod:`permpaths.oracle`).  :mod:`permpaths.verify` cross-checks the
layers against each other; the ``permpaths`` command line fronts all of
them.
"""

from .bijections import (
    delete_returns,
    dyck_to_records,
    insert_returns,
    join_adjacent_132,
    join_boundary_132,
    join_one132,
    join_one321,
    join_two321_distinct,
    join_two321_shared,
    records_to_dyck,
    split_adjacent_132,
    split_boundary_132,
    split_one132,
    split_one321,
    split_two321_distinct,
    split_two321_shared,
    tail_rotate,
    tail_rotate_inverse,
    transfer_upsteps,
    transfer_upsteps_inverse,
)
from .errors import (
    DomainError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedClassError,
    VerificationError,
)
from .formulas import FORMULAS, count, count_avoider_class
from .oracle import (
    count_perms,
    enumerate_dyck,
    enumerate_paths,
    marked_highpoint_histogram,
    oracle_count,
    stream_perms,
)
from .paths import (
    ballot,
    binomial,
    catalan,
    count_dyck_class,
    heights,
    is_dyck,
    path_stats,
)
from .permutations import (
    avoids,
    count_occurrences,
    occurrences,
    parse_permutation,
    reduce,
)
from .series import (
    bounded_height_count,
    catalan_triangle,
    catalan_triangle_inverse,
    chebyshev_p,
    chebyshev_q,
    corridor_count,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FORMULAS",
    "InvalidInputError",
    "ResourceLimitError",
    "UnsupportedClassError",
    "VerificationError",
    "avoids",
    "ballot",
    "binomial",
    "bounded_height_count",
    "catalan",
    "catalan_triangle",
    "catalan_triangle_inverse",
    "chebyshev_p",
    "chebyshev_q",
    "corridor_count",
    "count",
    "count_avoider_class",
    "count_dyck_class",
    "count_occurrences",
    "count_perms",
    "delete_returns",
    "dyck_to_records",
    "enumerate_dyck",
    "enumerate_paths",
    "heights",
    "insert_returns",
    "is_dyck",
    "join_adjacent_132",
    "join_boundary_132",
    "join_one132",
    "join_one321",
    "join_two321_distinct",
    "join_two321_shared",
    "marked_highpoint_histogram",
    "occurrences",
    "oracle_count",
    "parse_permutation",
    "path_stats",
    "records_to_dyck",
    "reduce",
    "run_suite",
    "split_adjacent_132",
    "split_boundary_132",
    "split_one132",
    "split_one321",
    "split_two321_distinct",
    "split_two321_shared",
    "stream_perms",
    "tail_rotate",
    "tail_rotate_inverse",
    "transfer_upsteps",
    "transfer_upsteps_inverse",
]
