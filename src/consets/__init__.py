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

Importing the package loads none of its modules.  Each of the 12 names
is resolved on first use by the module ``__getattr__`` (PEP 562), which
imports only the module that defines it: ``from consets import
evaluate`` loads the engine and never the census or the verification
suites, and the command line pays only for the command that runs.
"""

import importlib

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

#: The module that defines each public name.
_HOMES = {
    "CapExceededError": "oracle",
    "CensusReport": "oracle",
    "ProductResult": "aggregate",
    "SimpleGraph": "oracle",
    "cell_stream": "aggregate",
    "census": "oracle",
    "char_poly": "exactmath",
    "complete_path_product": "oracle",
    "evaluate": "aggregate",
    "parse_edge_list": "oracle",
    "recurrence_matrix": "layers",
    "validate_coefficients": "recurrence",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
