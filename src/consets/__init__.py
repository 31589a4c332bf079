"""Exact counting of connected vertex sets in complete-layer/path products.

The public surface is the production engine, three names: ``evaluate``,
whose ``ProductResult`` holds the count N and order total S of one cell
and the average and density it derives from them, and ``cell_stream``,
the stream of (N, S) along n; every m, the ladder's m = 2 included.
Read one field off the one result: ``evaluate(6, 1000).average``.  The
independent routes that cross-check the engine are imported from their
own modules: the census (``consets.oracle``), the literal layer matrix
(``consets.layers``), Faddeev-LeVerrier (``consets.exactmath``), the
coefficient identities (``consets.recurrence``), the order-sum
references (``consets.orders``), the two-layer closed forms
(``consets.ladder``, which only ``verify`` runs) and the suites
(``consets.verify``).

Importing the package loads none of its modules.  The module
``__getattr__`` (PEP 562) imports ``aggregate`` on the first read of a
public name, so ``from consets import evaluate`` loads the engine and
never the census or the verification suites, and the command line pays
only for the command that runs.
"""

__version__ = "0.1.0"

__all__ = ["ProductResult", "cell_stream", "evaluate"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import aggregate

    value = getattr(aggregate, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
