"""Exact counting of connected vertex sets in complete-layer/path products.

The public surface has 12 names: the production engine (``evaluate``,
whose ``ProductResult`` holds the count N and order total S of one cell
and the average and density it derives from them, and ``cell_stream``,
the stream of (N, S) along n; every m, the ladder's m = 2 included),
the census oracle (``census``, ``complete_path_product``,
``parse_edge_list``, ``SimpleGraph``, ``CensusReport``,
``CapExceededError``), and the layer matrix with its characteristic
polynomial (``recurrence_matrix``, ``char_poly``,
``validate_coefficients``).  Read one field off the one result:
``evaluate(6, 1000).average``.  The independent routes that cross-check
the engine stay importable from their own modules: ``consets.orders``,
``consets.oracle``, ``consets.ladder`` (the two-layer closed forms,
which only ``verify`` runs) and ``consets.verify``.
"""

from .aggregate import ProductResult, cell_stream, evaluate
from .exactmath import char_poly
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
    "cell_stream",
    "census",
    "char_poly",
    "complete_path_product",
    "evaluate",
    "parse_edge_list",
    "recurrence_matrix",
    "validate_coefficients",
]
