"""The package's surface.

Production code keeps only what production calls: every top-level function or
class in src/sublattices is either used somewhere in src/ outside its own body
or exported through the package's _SOURCES table.  A helper that only tests
call belongs in the tests.  The public names resolve lazily from their
submodules, and take integers only: a NumPy integer scalar stays exact, and
anything else raises TypeError instead of being truncated.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import sublattices
from sublattices import _SOURCES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sublattices"

# names kept without a caller in src/: the file outside src/ that keeps each, and why
ALLOWED = {
    "admissible_glue": ("bench/probes.py", "wraps it to count glue cells"),
}


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_top_level_def_has_a_production_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "oracle.py" in trees
    defs = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    # the allowlist names only definitions that exist
    assert set(ALLOWED) <= {node.name for _, node in defs}
    unused = []
    for name, node in defs:
        if node.name.startswith("__") or node.name in _SOURCES or node.name in ALLOWED:
            continue
        # uses outside the definition itself, so recursion does not count
        used = any(
            node.name in referenced_names(other)
            for tree in trees.values()
            for other in tree.body
            if other is not node
        )
        if not used:
            unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []


def test_every_allowlist_entry_has_a_keeper():
    # an entry whose keeper no longer names it is stale: delete the definition
    for name, (keeper, _) in ALLOWED.items():
        assert name in (ROOT / keeper).read_text(encoding="utf-8"), (name, keeper)


def test_public_names_resolve_lazily_from_their_submodules():
    for name, module in _SOURCES.items():
        want = getattr(import_module(f"sublattices.{module}"), name)
        assert sublattices.__getattr__(name) is want, name
        assert getattr(sublattices, name) is want, name
    with pytest.raises(AttributeError, match="no_such_name"):
        sublattices.__getattr__("no_such_name")
    with pytest.raises(AttributeError):
        sublattices.no_such_name
    assert sublattices.__dir__() == sublattices.__all__
    assert dir(sublattices) == sorted(sublattices.__all__)


# a public function and arguments with one number that is not an integer; a
# dict closing the arguments passes its entries by keyword
NON_INTEGRAL = [
    ("is_prime", (7.5,)),
    ("factorize", (12.5,)),
    ("partitions", (2, 1.5)),
    ("class_size", ([1, 2.5],)),
    ("validate_chain", ([1, 2.5],)),
    ("class_size_prime", ((0, 1.5), 2)),
    ("class_size_poly", ((0, 1.5),)),
    ("invariant_factors", ([[2.5, 0], [0, 1]],)),
    ("integer_det", ([[2.5]],)),
    ("minor_gcd", ([[2.5, 1]], 1)),
    ("validate_hnf", ([[2.7, 1], [0, 3]],)),
    ("cocyclic_count", (3, 10.5)),
    ("cocyclic_count_prime_power", (3, 2, 1.5)),
    ("sublattice_count", (2.0, 4)),
    ("hnf_stream", (2, 4.0)),
    ("ord_p", (2.0, 8)),
    ("ord_p", (2, 8.0)),
    ("cocyclic_count_upto", (3.0, 10)),
    ("class_size_2x2", (0.5, 3, 2)),
    ("sublattice_count_prime_power", (2, 2.5, 2)),
    ("census_bruteforce", (3, 12, {"budget": 1e7})),
    ("cocyclic_bruteforce", (3, 12, {"budget": 1e7})),
    ("verify_index", (2, 4, {"budget": 1e7})),
    ("verify_prime_powers", (2, 3, 2, {"budget": 1e7})),
    ("verify_suite", ({"budget": 1e7},)),
]


def _case_ids(cases):
    """The function's name per case, numbered from its second case on."""
    seen: dict[str, int] = {}
    ids = []
    for name, _ in cases:
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("name, args", NON_INTEGRAL, ids=_case_ids(NON_INTEGRAL))
def test_non_integral_numbers_are_refused(name, args):
    call = getattr(sublattices, name)
    *args, kwargs = args if isinstance(args[-1], dict) else (*args, {})
    with pytest.raises(TypeError):
        # partitions is a generator: its checks run at the first step
        list(call(*args)) if name == "partitions" else call(*args, **kwargs)


def test_numpy_integer_scalars_stay_exact():
    np = pytest.importorskip("numpy")
    big = 2**40
    assert sublattices.factorize(np.int64(big * 3)) == [(2, 40), (3, 1)]
    assert sublattices.cocyclic_count(np.int64(3), np.int64(big)) == sublattices.cocyclic_count(3, big)
    assert sublattices.class_size([np.int64(1), np.int64(big)]) == sublattices.class_size([1, big])
    assert sublattices.integer_det([[np.int64(big), 1], [0, np.int64(big)]]) == big**2
    rows = [[np.int64(big), np.int64(big - 1)], [0, np.int64(big)]]
    assert sublattices.minor_gcd(rows, 2) == big**2
    assert sublattices.validate_hnf(rows).det() == big**2
    upto = sublattices.cocyclic_count_upto(np.int64(3), np.int64(10))
    assert type(upto) is int and upto == sublattices.cocyclic_count_upto(3, 10)
    table = sublattices.census_bruteforce(np.int64(3), np.int64(12))
    assert type(table.n) is int and type(table.m) is int
    assert table == sublattices.census_bruteforce(3, 12)
    # jobs and budget are integers too: a NumPy scalar is taken as one
    exact = {"jobs": np.int64(2), "budget": np.int64(10**6)}
    assert sublattices.census_bruteforce(3, 12, **exact) == table
    assert sublattices.cocyclic_bruteforce(3, 12, **exact) == sublattices.cocyclic_bruteforce(3, 12)
    assert sublattices.verify_index(3, 12, **exact) == sublattices.verify_index(3, 12)
