"""Exact counting of connected vertex sets in complete-layer/path products.

The public surface: the exact arithmetic substrate, the column stream
that counts connected sets and sums their orders layer by layer, the
order-sum reference routes, the aggregated per-graph quantities, the scalar
recurrence fast path, the two-layer (ladder) closed forms, and the
exhaustive census oracle that everything is validated against.
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
from .exactmath import SILVER_UNIT, IntMatrix, IntPolynomial, QuadInt, char_poly
from .ladder import (
    half_companion,
    ladder_average,
    ladder_count,
    ladder_density,
    ladder_sum_identities,
    ladder_total_order,
    layer_total,
    layer_total_closed_form,
    pell,
    pell_closed_form,
    vince_average,
)
from .layers import (
    column_stream,
    footprint_weights,
    pascal_row,
    profile_table,
    recurrence_matrix,
    weighted_power_symmetric,
    weighted_profile_sum,
    weighted_sum,
)
from .oracle import (
    CapExceededError,
    CensusReport,
    LayeredGraph,
    SimpleGraph,
    census,
    complete_path_product,
    footprint_census,
    parse_edge_list,
    span_census,
)
from .orders import (
    convolution_identity_holds,
    layer_order_sum_convolution,
    order_column_direct,
    order_table,
    weight_matrix,
)
from .recurrence import (
    LinearRecurrence,
    build_recurrence,
    fibonacci,
    total_stream,
    validate_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CensusReport",
    "IntMatrix",
    "IntPolynomial",
    "LayeredGraph",
    "LinearRecurrence",
    "ProductResult",
    "QuadInt",
    "SILVER_UNIT",
    "SimpleGraph",
    "average_order",
    "build_recurrence",
    "cell_stream",
    "census",
    "char_poly",
    "column_stream",
    "complete_path_product",
    "convolution_identity_holds",
    "count_connected_sets",
    "density",
    "evaluate",
    "fibonacci",
    "footprint_census",
    "footprint_weights",
    "half_companion",
    "ladder_average",
    "ladder_count",
    "ladder_density",
    "ladder_sum_identities",
    "ladder_total_order",
    "layer_order_sum_convolution",
    "layer_total",
    "layer_total_closed_form",
    "order_column_direct",
    "order_table",
    "parse_edge_list",
    "pascal_row",
    "pell",
    "pell_closed_form",
    "profile_table",
    "recurrence_matrix",
    "span_census",
    "total_order",
    "total_stream",
    "validate_coefficients",
    "vince_average",
    "weight_matrix",
    "weighted_power_symmetric",
    "weighted_profile_sum",
    "weighted_sum",
]
