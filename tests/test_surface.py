"""The package's surface.

Production code keeps only what production calls: every top-level function or
class in src/sublattices is either used somewhere in src/ outside its own body
or exported through the package's _SOURCES table.  A helper that only tests
call belongs in the tests.  Two routes that verify or the acceptance gate diff
against each other share no code but a named list of primitives.  The public
names resolve lazily from their submodules, and take integers only: a NumPy
integer scalar stays exact, and anything else raises TypeError instead of
being truncated.
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


def src_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_every_top_level_def_has_a_production_caller():
    trees = src_trees()
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


# the routes that verify and the acceptance gate diff against each other, as
# the entry points of each side.  Left out: the oracle's total against
# sublattice_count (the kernel's matrix budget reads sublattice_count); A6's
# class_size_poly evaluated against class_size_prime, one closed form in two
# representations; and the leading-term and multiplicativity checks, which
# test a property of one route
INDEPENDENT_ROUTES = [
    (("census_bruteforce",), ("class_census",)),
    (("census_bruteforce",), ("class_count",)),
    (("census_bruteforce",), ("class_size_prime",)),
    (("census_bruteforce",), ("class_size_2x2",)),
    (("cocyclic_bruteforce",), ("cocyclic_count",)),
    (("cocyclic_bruteforce",), ("cocyclic_count_prime_power",)),
    (("class_count",), ("class_census",)),
    (("sublattice_count",), ("sublattice_count_recursion",)),
    (("sublattice_count",), ("hnf_stream_count",)),
    (("class_size_poly",), ("class_size_poly_glue",)),
    (("invariant_factors",), ("invariant_factors_via_minors",)),
    (("invariant_factors",), ("hnf3_smith_exponents",)),
    (("invariant_factors_via_minors",), ("hnf3_smith_exponents",)),
    # verify's Smith check: the shortcut against the minor gcds of the plans
    (("_smith_closed_form", "_diag_terms"), ("_pattern_plans", "_fold", "_minor")),
]

# the names two independent routes may share, and why sharing each is no second route
SHARED_PRIMITIVES = {
    "_check_nm": "validates (n, m) and computes nothing either route answers",
    "factorize": "the index's factorization, checked alone by the round trip in test_arith",
    "CensusTable": "the result type of both censuses",
    "poly_normalize": "drops trailing zero coefficients, the polynomial representation",
    "_gauss": "budget only, until ROADMAP item 2",
}


def top_level_definitions(trees) -> dict[str, list[ast.AST]]:
    """Each top-level def, class and assignment of the modules, by the names it binds."""
    defs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [sub for t in targets for sub in ast.walk(t)]
                for name in {sub.id for sub in bound if isinstance(sub, ast.Name)}:
                    defs.setdefault(name, []).append(node)
    return defs


def read_names(node: ast.AST) -> set[str]:
    """The names a definition reads from module scope.

    A parameter, assignment target or nested definition binds its name
    locally, so a local that shadows a top-level name (class_size's
    parameter divisors, say) is not a read of it; a name declared global is.
    """
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return referenced_names(node.value) if node.value is not None else set()
    local, declared = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            local.add(sub.arg)
        elif isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            local.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if sub is not node:
                local.add(sub.name)
        elif isinstance(sub, ast.Global):
            declared.update(sub.names)
    return referenced_names(node) - (local - declared)


def route_closure(entries, defs) -> set[str]:
    """The top-level names that a route's entry points reach, themselves included."""
    seen, todo = set(), list(entries)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [read for node in defs[name] for read in read_names(node) if read in defs]
    return seen


def shared_routes(trees) -> dict[tuple, set[str]]:
    """Per pair of INDEPENDENT_ROUTES, the top-level names both sides reach."""
    defs = top_level_definitions(trees)
    return {
        (a, b): route_closure(a, defs) & route_closure(b, defs) for a, b in INDEPENDENT_ROUTES
    }


def test_diffed_routes_share_only_primitives():
    shared = shared_routes(src_trees())
    beyond = {pair: names - set(SHARED_PRIMITIVES) for pair, names in shared.items()}
    assert {pair: names for pair, names in beyond.items() if names} == {}
    # a primitive that no pair shares any more is stale: take it off the list
    assert set(SHARED_PRIMITIVES) == set().union(*shared.values())


def test_route_independence_flags_a_kernel_that_reads_a_formula():
    # census_bruteforce with a call of class_size added, in memory only: the
    # kernel then reaches the closed form that class_census reads
    trees = src_trees()
    oracle = trees["oracle.py"].body
    (kernel,) = [node for node in oracle if getattr(node, "name", "") == "census_bruteforce"]
    kernel.body.insert(1, ast.parse("class_size((1, m))").body[0])
    shared = shared_routes(trees)
    leaked = shared[("census_bruteforce",), ("class_census",)] - set(SHARED_PRIMITIVES)
    assert {"_class_size_at", "_class_size_form"} <= leaked
    # a local that shadows a top-level name is no edge: class_size reads its
    # parameter divisors, not arith.divisors
    defs = top_level_definitions(trees)
    (class_size,) = defs["class_size"]
    assert "divisors" in defs and "divisors" in referenced_names(class_size)
    assert "divisors" not in route_closure(("class_size",), defs)


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
    ("invariant_factors", ([[1, 0, 0], [0, 1, 0], [0, 0, 2.5]],)),
    ("invariant_factors", ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2.5]],)),
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
