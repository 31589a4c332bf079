"""Every function, class and method of consets has a caller outside the tests.

Claims covered:
    - each top-level function and class, and each method, in src/consets is
      named somewhere in src/consets or perfbench/ outside its own
      definition, so code that only its own tests call fails here; the
      reference routes kept for the tests alone are the listed exceptions
    - the single-field views, the helpers only their own tests called and
      the binary powerings that duplicated ``x_power_mod`` stay deleted,
      as do the ladder's single-n closed-form path, the constructor
      that took A and D from its caller, the tuned engine crossover,
      the symmetry helpers that rebuilt every power, the
      vertex-at-a-time flood, the per-subset flood with its table of
      checkers, the jump's own route to p, the running sums split off
      ``cell_stream``, the census half-table helper and the table of
      neighbour unions it filled
    - no module but ``verify`` imports ``consets.ladder``: the closed
      forms check the engine and never print a row
    - no module in src/consets imports a name it never reads: a name
      listed in ``__all__`` counts as read, ``__future__`` imports are
      not checked

A top-level function or class counts as used where the code reads its
name (not a local variable of the same name) or reads it off its module
(``aggregate._jumper``); a method, where the code reads it as an attribute.
Spelling the name as a string also counts, as perfbench/probe.py does when
it looks a function up.  Functions and methods named by Python syntax
(``__add__``, ``__eq__`` and the like) are not checked: the interpreter
calls them.  The package ``__init__`` only re-exports, so its
table of names and ``__all__`` do not count as uses.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "consets"

#: Reference routes that only the tests compare the engine against.
TEST_ONLY_ROUTES = {
    "oracle.footprint_census",
    "oracle.span_census",
    "orders.convolution_identity_holds",
}

#: (module, name) pairs removed because only their own tests called them,
#: because they re-ran a whole cell to return one field of ``evaluate``, or
#: because they repeated the binary powering of ``exactmath.x_power_mod``,
#: or because the engine now gives what they gave, or because ``evaluate``
#: no longer splits at a tuned crossover but streams up to n = 4m+4 and
#: jumps above, or because the symmetry checks walk the weighted
#: powers once instead of rebuilding each, or because the census floods
#: through per-graph tables, or because the engine reads the span totals
#: off the layer step's last row instead of weighting each column, or
#: because the jump takes p from ``layers.layer_polynomial`` alone, or
#: because ``annihilator`` squares p (x-1) with the jump's own squaring,
#: now ``exactmath.poly_square``, instead of a general product, or because
#: ``math.comb`` gives the binomials a Pascal row rebuilt, or because the
#: flood runs every subset of a chunk at once, bit-sliced, or because
#: their one caller now holds their code: ``cell_stream`` the running
#: sums, since the jump reads its totals off the stream's counts, and
#: ``enumerated_census`` the half tables, since the flood that shared
#: them is gone, or because the enumerator grows R by neighbour rows and
#: builds no table of neighbour unions.
DELETED = [
    ("aggregate", "count_connected_sets"), ("aggregate", "total_order"),
    ("aggregate", "average_order"), ("aggregate", "density"),
    ("aggregate", "ProductResult.from_sums"),
    ("aggregate", "jump_sums"), ("aggregate", "STREAM_MAX_PER_LAYER"), ("aggregate", "_sums"),
    ("aggregate", "footprint_weights"), ("aggregate", "sequence_annihilator"),
    ("ladder", "ladder_row"), ("ladder", "_unit_power"), ("ladder", "SILVER_POLYNOMIAL"),
    ("ladder", "ladder_count"), ("ladder", "ladder_total_order"),
    ("ladder", "ladder_average"), ("ladder", "ladder_density"),
    ("ladder", "pell"), ("ladder", "half_companion"), ("ladder", "layer_total"),
    ("orders", "weight_matrix"),
    ("layers", "weighted_profile_sum"), ("layers", "weighted_power_symmetric"),
    ("oracle", "_connected_flood"), ("oracle", "_flood"), ("oracle", "_CHECKERS"),
    ("exactmath", "QuadInt"), ("exactmath", "SILVER_UNIT"),
    ("exactmath", "QuadInt.__add__"), ("exactmath", "QuadInt.__sub__"),
    ("exactmath", "QuadInt.conjugate"), ("exactmath", "QuadInt.norm"),
    ("exactmath", "IntMatrix.__pow__"),
    ("exactmath", "poly_mul"), ("exactmath", "_square"), ("layers", "pascal_row"),
    ("exactmath", "IntMatrix.entry"), ("exactmath", "IntMatrix.rows"),
    ("oracle", "SimpleGraph.edges"), ("oracle", "LayeredGraph.vertex"),
    ("recurrence", "CoefficientReport.passed"),
    ("recurrence", "CoefficientReport.failures"),
    ("aggregate", "_running_sums"), ("oracle", "_half_tables"),
    ("oracle", "_union_table"), ("oracle", "resolve_cap"), ("oracle", "DEFAULT_CAP"),
]


def _by_syntax(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> dict[str, ast.AST]:
    """'module.name' and 'module.Class.method' for every top-level function
    and class and every method that is not named by syntax."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _by_syntax(node.name):
                found[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not _by_syntax(member.name):
                        found[f"{module}.{node.name}.{member.name}"] = member
    return found


def _local_names(function: ast.AST) -> set[str]:
    """Parameters and names bound anywhere inside a function or lambda."""
    arguments = function.args
    names = {argument.arg for argument in (*arguments.posonlyargs, *arguments.args,
                                           *arguments.kwonlyargs, arguments.vararg,
                                           arguments.kwarg) if argument}
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not function:
            names.add(node.name)
    return names


def _uses(node: ast.AST, skip: ast.AST, shadowed: frozenset = frozenset()):
    """Yield ("name", None, id) for a global name read, ("attr", base, attr)
    for an attribute read off ``base`` (None unless a plain name), and
    ("str", None, text) for a string, everywhere under node but in skip."""
    if node is skip:
        return
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        shadowed = shadowed | _local_names(node)
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            yield "name", None, node.id
    elif isinstance(node, ast.Attribute):
        yield "attr", node.value.id if isinstance(node.value, ast.Name) else None, node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield "str", None, node.value
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, skip, shadowed)


def _used(qualified: str, node: ast.AST, trees: list[ast.AST]) -> bool:
    module, *owner, name = qualified.split(".")
    for tree in trees:
        for kind, base, found in _uses(tree, node):
            if found != name:
                continue
            if kind == "str" or (kind == "attr" and (owner or base == module)):
                return True
            if kind == "name" and not owner:
                return True
    return False


def _sources() -> list[Path]:
    return [path for path in (*sorted(PACKAGE.glob("*.py")),
                              *sorted((ROOT / "perfbench").glob("*.py")))
            if path.name != "__init__.py"]


def test_every_definition_has_a_caller_outside_the_tests():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in _sources()]
    unused = [qualified for qualified, node in _definitions().items()
              if qualified not in TEST_ONLY_ROUTES and not _used(qualified, node, trees)]
    assert unused == []


def test_test_only_routes_still_exist():
    assert TEST_ONLY_ROUTES <= set(_definitions())


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_names_stay_gone(module, name):
    owner = importlib.import_module(f"consets.{module}")
    *outer, last = name.split(".")
    for part in outer:
        if not hasattr(owner, part):
            return  # the enclosing class is gone, and its members with it
        owner = getattr(owner, part)
    assert not hasattr(owner, last)


def _imports_ladder(tree: ast.AST) -> bool:
    """Whether a module imports ``ladder`` or a name from it, in any form."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            if any("ladder" in name.split(".") for name in names):
                return True
    return False


def test_only_verify_imports_the_ladder_closed_forms():
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if _imports_ladder(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == ["verify"]


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names a module imports, ``__future__`` aside, that it never reads;
    a name listed in ``__all__`` counts as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_a_name_it_never_reads(path):
    assert _unread_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
