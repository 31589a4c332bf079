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

Importing the package loads the engine's stream: ``aggregate`` and what
it imports (``layers``, ``records``); every command runs the engine.
The jumps' polynomial arithmetic (``exactmath``) loads with the first
cell past n = 4m+4, and the census and the verification suites only
with the command that runs them.
"""

from .aggregate import ProductResult, cell_stream, evaluate

__version__ = "0.1.0"

__all__ = ["ProductResult", "cell_stream", "evaluate"]
