"""Exact counting of connected vertex sets in complete-layer/path products.

The public surface: the production engine (the count N, order total S,
average and density of one cell, and the stream of (N, S) along n), the
two-layer (ladder) closed forms, the exhaustive census oracle, and the
layer matrix with its characteristic polynomial.  The independent routes
that cross-check the engine stay importable from their own modules:
``consets.orders``, ``consets.oracle``, ``consets.ladder`` and
``consets.verify``.
"""

from .aggregate import (
    ProductResult,
    average_order,
    cell_stream,
    count_connected_sets,
    density,
    evaluate,
    total_order,
)
from .exactmath import char_poly
from .ladder import ladder_average, ladder_count, ladder_density, ladder_total_order
from .layers import recurrence_matrix
from .oracle import (
    CapExceededError,
    CensusReport,
    SimpleGraph,
    census,
    complete_path_product,
    parse_edge_list,
)
from .recurrence import validate_coefficients

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CensusReport",
    "ProductResult",
    "SimpleGraph",
    "average_order",
    "cell_stream",
    "census",
    "char_poly",
    "complete_path_product",
    "count_connected_sets",
    "density",
    "evaluate",
    "ladder_average",
    "ladder_count",
    "ladder_density",
    "ladder_total_order",
    "parse_edge_list",
    "recurrence_matrix",
    "total_order",
    "validate_coefficients",
]
