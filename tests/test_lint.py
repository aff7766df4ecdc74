"""Source checks: guards that survive ``python -O``, no module-level
caches, no enumeration bound knobs, no recursion as deep as the input,
fast modules kept apart from the oracles, the public names, internal
defaulted parameters that calls both give and omit, each None default,
each function that builds a checked ``Poset`` and each class that
writes its own equality or hash listed with its reason."""

import ast
import sys
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Iterator

import qstrat

SRC = Path(__file__).resolve().parent.parent / "src" / "qstrat"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements vanish under python -O; raise instead: {found}"


def test_library_has_no_module_level_caches():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {target.id}"
                for target in targets
                if isinstance(target, ast.Name) and fnmatch(target.id, "*_CACHE")
            ]
    assert not found, f"module-level caches outlive every call and grow without limit: {found}"


def test_library_has_no_bound_parameters():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            found += [
                f"{path.name}:{node.lineno} {node.name}({arg.arg})"
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                if arg.arg in ("bound", "enum_bound")
            ]
    assert not found, f"size bounds are module constants, not parameters: {found}"


FAST_MODULES = ("relcore", "orders", "qso", "qsseq", "qsa", "saturate", "closure")


def _imported_modules(name: str) -> list[str]:
    """Every module a library file imports, relative ones with their dots."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found += [base] if node.module else [base + alias.name for alias in node.names]
    return found


def test_no_fast_module_imports_the_oracles():
    found = [
        f"{name}: {module}"
        for name in FAST_MODULES
        for module in _imported_modules(name)
        if module.split(".")[-1] == "oracles" or module == "qstrat"
    ]
    assert not found, f"the oracles check the fast paths and stay out of them: {found}"


def test_closure_imports_only_qsa_relcore_and_the_standard_library():
    library = [module for module in _imported_modules("closure") if module.startswith(".")]
    assert set(library) == {".qsa", ".relcore"}
    others = {module.split(".")[0] for module in _imported_modules("closure")} - {""}
    assert others <= sys.stdlib_module_names


def test_orders_imports_only_relcore_and_the_standard_library():
    # one reading of the successor chain decides to, so and io
    # (orders._realization): no stratum tree codec is needed
    library = [module for module in _imported_modules("orders") if module.startswith(".")]
    assert set(library) == {".relcore"}
    others = {module.split(".")[0] for module in _imported_modules("orders")} - {""}
    assert others <= sys.stdlib_module_names


def test_cli_reads_label_pairs_only_in_selftest():
    # the printers list pairs from rows (cli._pair_lister); label-pair
    # frozensets stay with the oracle suites
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and "selftest" in top.name:
            continue
        found += [
            f"cli.py:{node.lineno}"
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "label_pairs"
        ]
    assert not found, f"cli.py reads label_pairs outside selftest: {found}"


# the names exported before the oracles had a module of their own, plus
# that module: a name that moves between modules stays importable from qstrat
PUBLIC_NAMES = {
    "BinRel", "ClosureReport", "CscWitness", "Domain", "InternalError", "LegalExtensions",
    "NotAcyclicError", "Poset", "Prober", "PropertyCheck", "QsOrder", "QsSeq", "QssStratum",
    "SaturationSet", "Structure", "add_element", "add_prec", "add_weak", "all_qsm_structures",
    "close", "close_oracle", "closure", "closure_step", "csc_components", "csc_subsets_naive",
    "enumerate_posets", "enumerate_qs_orders", "enumerate_qs_seqs", "extends", "factorize_strata",
    "forbidden_cycle_interval", "forbidden_cycle_stratified", "forbidden_cycle_total",
    "format_seq", "intersect", "interval_order_violation", "interval_realization", "is_csc_subset",
    "is_interval_order", "is_partial_order", "is_qs_order", "is_qsa", "is_qsa_naive", "is_qsc",
    "is_qsm", "is_qso_stratum", "is_relational", "is_stratified_order", "is_total_order",
    "is_valid_seq", "leaf", "legal_extensions", "new_poset", "new_structure", "node",
    "one_saturation", "order_to_seq", "orders", "partial_order_violation", "poset_to_structure",
    "predominants", "probe", "project", "qs_order_violation", "qsa", "qsa_witness",
    "qsa_witness_naive", "qsc_property_suite", "qsc_violation", "qsm_to_qso", "qsm_violation",
    "qso", "qso_add_isolated", "qso_empty", "qso_from_poset", "qso_projection", "qso_seq_compose",
    "qso_to_qsm", "qsseq", "random_qs_seq", "random_qsa_structure", "reindex_poset",
    "reindex_structure", "relcore", "saturate", "saturations", "seq_domain", "seq_from_json",
    "seq_to_json", "seq_to_order", "seq_violation", "stratified_order_violation",
    "stratified_partition", "stratum_base", "stratum_domain", "total_order_violation",
} | {"oracles"}


def test_the_public_names_are_pinned():
    assert set(qstrat.__all__) == PUBLIC_NAMES


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_WALK = "depth at most ENUMERATION_BOUND; revisit when the bound is lifted (ROADMAP item 1)"
_DRAW = "depth at most half the labels; a rewrite would change what seeded tests draw"
# the recursions kept on purpose, each with the reason its depth is safe
RECURSION_ALLOWED = {
    "qsseq.stratum_trees.sequences": _WALK,
    "qsseq.stratum_trees.strata": _WALK,
    "qsseq._random_seq": _DRAW,
    "qsseq._random_stratum": _DRAW,
}


def _call_graph(path: Path) -> dict[str, set[str]]:
    """Per function of a module, nested ones included, the functions of
    the module that it calls by name: a name resolves to a function
    defined in the caller, then in each enclosing function, then at
    module level; ``self.name`` and ``cls.name`` resolve to a method of
    the enclosing class."""
    module = path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls: dict[str, set[str]] = {}

    def defined(nodes: list[ast.AST], prefix: str) -> dict[str, str]:
        return {node.name: prefix + node.name for node in nodes if isinstance(node, _FUNCTIONS)}

    def own_nodes(fn: ast.AST) -> list[ast.AST]:
        """The nodes of fn's body outside the functions nested in it."""
        out, stack = [], list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            out.append(node)
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))
        return out

    def visit(fn: ast.AST, name: str, scopes: list[dict[str, str]], methods: dict[str, str]) -> None:
        nodes = own_nodes(fn)
        scopes = [defined(nodes, name + "."), *scopes]
        found = calls.setdefault(name, set())
        for node in nodes:
            if isinstance(node, _FUNCTIONS):
                visit(node, name + "." + node.name, scopes, {})
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                for scope in scopes:
                    if func.id in scope:
                        found.add(scope[func.id])
                        break
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and func.attr in methods
            ):
                found.add(methods[func.attr])

    top = defined(tree.body, f"{module}.")
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            visit(node, f"{module}.{node.name}", [top], {})
        elif isinstance(node, ast.ClassDef):
            methods = defined(node.body, f"{module}.{node.name}.")
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    visit(item, methods[item.name], [top], methods)
    return calls


def _recursive_functions(calls: dict[str, set[str]]) -> set[str]:
    """The functions that reach themselves through the call graph."""
    found = set()
    for start in calls:
        seen, stack = set(), list(calls[start])
        while stack:
            name = stack.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack.extend(calls.get(name, ()))
    return found


def test_no_library_function_calls_itself():
    # deep nesting is valid input: a function that recurses per level
    # fails on it with RecursionError
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _recursive_functions(_call_graph(path))
    assert found - set(RECURSION_ALLOWED) == set(), "recursion bounded only by the input"
    assert set(RECURSION_ALLOWED) <= found, "an allowed recursion is gone; drop its entry"


def test_the_recursion_lint_sees_direct_mutual_and_method_recursion(tmp_path):
    source = '''
def direct(n):
    return direct(n - 1) if n else 0

def outer():
    def inner(k):
        return other(k)
    def other(k):
        return inner(k - 1) if k else 0
    return inner(3)

def helper():
    def direct():
        return 0
    return direct()

class Walker:
    def step(self, n):
        return self.step(n - 1) if n else 0
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _recursive_functions(_call_graph(path)) == {
        "sample.direct", "sample.outer.inner", "sample.outer.other", "sample.Walker.step"
    }


# the row-mask loops kept beside relcore's gather and scatter, one list
# per step shape, each loop with the reason it is not one of them.
# Lowest set bit first (``low = m & -m``): the walks whose output follows
# their order.
LOW_BIT_LOOPS_ALLOWED = {
    "relcore._bits": "the generator of positions that every other walk uses, lowest first",
    "relcore._scc_masks": (
        "the path-based pass: its DFS takes fresh successors lowest first, which fixes"
        " the emission order, the witnesses and the FAIL lines"
    ),
    "qsa.Prober.run_row": "groups the candidates by component, lowest first, dropping a group per step",
}
# Highest set bit first (``i = m.bit_length() - 1`` on the loop's own
# mask m): the walks whose result is the same in any order.
HIGH_BIT_LOOPS_ALLOWED = {
    "relcore._gather": "the one gather: the union of a table's entries over a mask",
    "relcore._scatter": "the one scatter: one value ORed into a table's entries over a mask",
    "qsa.Prober.run_row": (
        "the weak-pair certificate tests each candidate outside i's component on its own comp"
    ),
    "qsa._reach_tables": "the skip-ahead spread drops each event its union already holds",
    "qsa._ClosureFacts.learn": "two scatters over tails fused: as two, gen ran 2% slower (A/B)",
}


def _is_low_bit(loop: ast.While, node: ast.AST) -> bool:
    """True for an assignment of ``x & -x``, the lowest set bit of x."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
        return False
    value = node.value
    return (
        isinstance(value, ast.BinOp)
        and isinstance(value.op, ast.BitAnd)
        and isinstance(value.right, ast.UnaryOp)
        and isinstance(value.right.op, ast.USub)
        and ast.dump(value.left) == ast.dump(value.right.operand)
    )


def _is_high_bit(loop: ast.While, node: ast.AST) -> bool:
    """True for ``m.bit_length() - 1``, the position of the highest set
    bit of m, where m is the loop's own test."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and isinstance(node.left, ast.Call)
        and not node.left.args
        and isinstance(node.left.func, ast.Attribute)
        and node.left.func.attr == "bit_length"
        and ast.dump(node.left.func.value) == ast.dump(loop.test)
    )


def _functions(path: Path) -> Iterator[tuple[str, ast.AST, list[ast.AST]]]:
    """The functions of a module, nested ones and methods included, each
    by its dotted name with its definition and the nodes that belong to
    it and to no function or class inside it."""
    stack: list[tuple[ast.AST, str]] = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    while stack:
        node, name = stack.pop()
        own, inner = [], list(ast.iter_child_nodes(node))
        while inner:
            child = inner.pop()
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                stack.append((child, f"{name}.{child.name}"))
            else:
                own.append(child)
                inner.extend(ast.iter_child_nodes(child))
        if isinstance(node, _FUNCTIONS):
            yield name, node, own


def _bit_loops(path: Path, step: Callable[[ast.While, ast.AST], bool]) -> set[str]:
    """The functions of a module, nested ones and methods included, with
    a ``while`` loop of their own that holds a step of the given shape."""
    return {
        name
        for name, _, own in _functions(path)
        for loop in own
        if isinstance(loop, ast.While) and any(step(loop, sub) for sub in ast.walk(loop))
    }


def test_row_masks_are_walked_through_gather_and_scatter():
    # one copy of each row-mask loop per access pattern: a plain union
    # over a mask is relcore._gather, a plain OR into a table over a mask
    # is relcore._scatter
    for step, allowed in ((_is_low_bit, LOW_BIT_LOOPS_ALLOWED), (_is_high_bit, HIGH_BIT_LOOPS_ALLOWED)):
        found = set()
        for path in sorted(SRC.glob("*.py")):
            found |= _bit_loops(path, step)
        assert found - set(allowed) == set(), "use relcore._gather or relcore._scatter"
        assert set(allowed) <= found, f"an allowed {step.__name__[4:]} loop is gone; drop its entry"


def test_the_low_bit_lint_sees_functions_methods_and_nested_loops(tmp_path):
    source = '''
def gather(table, mask):
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out

def outer(rows):
    def inner(mask):
        while mask:
            if (low := mask & -mask):
                mask ^= low
    return inner

class Walker:
    def step(self, mask):
        for row in mask:
            while row:
                row &= ~(row & -row)
                top = row & -row

def once(mask):
    first = mask & -mask
    return first

def other(a, b):
    while a:
        a = a & -b

def scatter(table, mask, value):
    while mask:
        i = mask.bit_length() - 1
        table[i] |= value
        mask ^= 1 << i

def spread(table, out):
    seen = 0
    while out:
        seen |= table[out.bit_length() - 1]
        out &= ~seen

class Table:
    def fill(self, rows):
        for row in rows:
            while row:
                self.cells[row.bit_length() - 1] = 1
                row &= row - 1

class Prober:
    def pick(self, pending, js):
        while pending:
            js = pending.pop()
            if js:
                top = js.bit_length() - 1
        while js:
            j = js.bit_length() - 2
            js &= js - 1

def last(mask):
    return mask.bit_length() - 1
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _bit_loops(path, _is_low_bit) == {
        "sample.gather", "sample.outer.inner", "sample.Walker.step"
    }
    assert _bit_loops(path, _is_high_bit) == {"sample.scatter", "sample.spread", "sample.Table.fill"}


# the self-loop scans kept beside the cached mask of each relation, each
# with the reason it does not read that mask
SELF_LOOP_SCANS_ALLOWED = {
    "relcore.BinRel._loops": "the one scan: each relation's mask of self-loops, cached",
    "closure._pair_violation": (
        "qsc:1 fused over both relations of close's result, which computes no mask of"
        " its own: only the input's two relations do"
        " (test_each_relation_is_scanned_for_self_loops_once)"
    ),
}


def _names(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _is_one(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def _tests_own_bit(node: ast.AST, i: str, rows: set[str]) -> bool:
    """True for ``row >> i & 1`` or ``row & 1 << i``, either way round,
    where the row names some of rows and nothing else."""
    if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.BitAnd):
        return False
    left, right = node.left, node.right
    tests = []  # (row, shift) pairs
    if _is_one(right) and isinstance(left, ast.BinOp) and isinstance(left.op, ast.RShift):
        tests.append((left.left, left.right))
    for bit, row in ((right, left), (left, right)):
        if isinstance(bit, ast.BinOp) and isinstance(bit.op, ast.LShift) and _is_one(bit.left):
            tests.append((row, bit.right))
    return any(_names(shift) == {i} and set() < _names(row) <= rows for row, shift in tests)


def _self_loop_scans(path: Path) -> set[str]:
    """The functions of a module that test bit i of a row where i and
    the row come from one ``enumerate``, in a ``for`` loop's body or in
    a comprehension: each is a scan for self-loops."""
    found = set()
    for name, _, own in _functions(path):
        for node in own:
            if isinstance(node, ast.For):
                loops, scope = [node], node.body
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                loops, scope = node.generators, [node]
            else:
                continue
            for loop in loops:
                call, target = loop.iter, loop.target
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "enumerate"
                    and isinstance(target, ast.Tuple)
                    and len(target.elts) == 2
                    and isinstance(target.elts[0], ast.Name)
                ):
                    continue
                i, rows = target.elts[0].id, _names(target.elts[1])
                if any(_tests_own_bit(sub, i, rows) for part in scope for sub in ast.walk(part)):
                    found.add(name)
    return found


def test_self_loops_are_read_from_the_cached_mask():
    # every first-self-loop witness reads BinRel._loops: po:1 (and so to:1
    # and so:1), io:1, the qso witness, qsm:1 and the CLI's detail
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _self_loop_scans(path)
    assert found - set(SELF_LOOP_SCANS_ALLOWED) == set(), "read BinRel._loops"
    assert set(SELF_LOOP_SCANS_ALLOWED) <= found, "an allowed scan is gone; drop its entry"


def test_the_self_loop_lint_sees_loops_comprehensions_and_methods(tmp_path):
    source = '''
def first(rows):
    for i, row in enumerate(rows):
        if row >> i & 1:
            return i

def mask(rows):
    return sum(row & 1 << i for i, row in enumerate(rows))

def fused(prec, weak):
    return [i for i, (p, w) in enumerate(zip(prec, weak)) if 1 << i & (p | w)]

class Rel:
    def loops(self):
        return {i: row for i, row in enumerate(self.rows) if (row >> i) & 1}

def outer(rows):
    def inner():
        for k, (row, col) in enumerate(zip(rows, rows)):
            if col & (1 << k):
                return k
    return inner

def other_position(rows, j):
    for i, row in enumerate(rows):
        if row >> j & 1 or row & 1 << j:
            return i

def other_row(rows, table):
    for i, row in enumerate(rows):
        if table[0] >> i & 1:
            return i

def not_enumerated(rows):
    for i in range(len(rows)):
        if rows[i] >> i & 1:
            return i

def cleared(rows, full):
    return [full & ~(1 << i) & ~row for i, row in enumerate(rows)]

def spread(cols):
    for i, row in enumerate(cols):
        scatter(cols, row, 1 << i)

def constant(rows):
    return [i for i, row in enumerate(rows) if 5 >> i & 1 or 5 & 1 << i]
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _self_loop_scans(path) == {
        "sample.first", "sample.mask", "sample.fused", "sample.Rel.loops", "sample.outer.inner"
    }


# every module whose top-level definitions a test or a run can reach
LINTED_DIRS = ("src/qstrat", "tests", "tools", "demos")


def _defined_twice(path: Path) -> list[str]:
    """The top-level function and class names the module defines again,
    each with the line of the later definition."""
    seen: set[str] = set()
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            if node.name in seen:
                found.append(f"{node.name}:{node.lineno}")
            seen.add(node.name)
    return found


def test_no_module_defines_a_top_level_name_twice():
    # the later definition silently shadows the earlier one, so every
    # caller before it runs code nobody reads under that name
    root = SRC.parent.parent
    found = [
        f"{path.relative_to(root)}:{name}"
        for folder in LINTED_DIRS
        for path in sorted((root / folder).rglob("*.py"))
        for name in _defined_twice(path)
    ]
    assert not found, f"a later definition shadows an earlier one: {found}"


def test_the_duplicate_name_lint_sees_functions_and_classes(tmp_path):
    source = '''
def reference(s):
    return 1

class Walker:
    def step(self):
        def reference(s):
            return 2
        return reference

class Other:
    def step(self):
        return 3

async def fetch():
    return 4

def reference(s):
    return 5

class fetch:
    pass

if True:
    def Walker():
        return 6
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _defined_twice(path) == ["reference:18", "fetch:21"]


def _attribute_wrappers(path: Path) -> list[str]:
    """The module-level functions whose body, after an optional
    docstring, is one ``return`` of an attribute of a parameter
    (``return s.x``, or a chain such as ``return s.x.y``), each with its
    line."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if not isinstance(node, _FUNCTIONS):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if not isinstance(value, ast.Attribute):
            continue
        while isinstance(value, ast.Attribute):
            value = value.value
        args = node.args
        params = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
        if isinstance(value, ast.Name) and value.id in params:
            found.append(f"{node.name}:{node.lineno}")
    return found


def test_no_library_function_only_returns_an_attribute():
    # a function that hands back what its argument already holds adds a
    # name and a call for nothing: read the attribute where it is needed
    found = [
        f"{path.name}:{name}" for path in sorted(SRC.glob("*.py")) for name in _attribute_wrappers(path)
    ]
    assert not found, f"read the attribute directly: {found}"


def test_the_wrapper_lint_sees_attribute_returns_with_or_without_a_docstring(tmp_path):
    source = '''
def rows_of(s):
    return s._combined

def touch_of(rel):
    """The touch table, kept on the relation."""
    return rel._touch

def deep(s):
    return s.prec._touch

async def fetched(x):
    return x.value

def called(s):
    return s.rows()

def indexed(s):
    return s.rows[0]

def global_attr(s):
    return math.pi

def two_steps(s):
    rows = s.rows
    return rows

def docstring_only(s):
    """s.rows"""

class Holder:
    def rows(self):
        return self._rows

def outer(s):
    def inner(t):
        return t.rows
    return inner
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _attribute_wrappers(path) == ["rows_of:2", "touch_of:5", "deep:9", "fetched:12"]



def _one_valued_options(paths: list[Path], exempt: set[str]) -> list[str]:
    """The defaulted parameters of the functions defined in paths that
    the calls in paths all give or all omit, each as
    ``module.function(parameter): every call gives it`` or ``...: no call
    gives it``.  A function is exempt when its name, or its name under
    its module (``module.function``, ``module.Class.method``), is in
    exempt.  Calls are matched to definitions by function name alone,
    ``f(...)`` and ``x.f(...)`` alike, so functions that share a name
    share their calls.  A method's first parameter is its receiver, and
    a ``*`` or ``**`` argument gives every parameter."""
    defined: dict[str, list[tuple[str, list[str], list[str]]]] = {}
    calls: list[ast.Call] = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        owner = {
            id(item): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, _FUNCTIONS):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [arg.arg for arg in positional[len(positional) - len(args.defaults):]]
            defaulted += [arg.arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            qualname = ".".join(filter(None, (path.stem, owner.get(id(node)), node.name)))
            if defaulted and not {node.name, qualname} & exempt:
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                skip = id(node) in owner and not static
                names = [arg.arg for arg in positional[skip:]]
                defined.setdefault(node.name, []).append((qualname, names, defaulted))
    given: dict[str, set[bool]] = {}
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        spread = any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            keyword.arg is None for keyword in call.keywords
        )
        named = {keyword.arg for keyword in call.keywords}
        for qualname, names, defaulted in defined.get(name, ()):
            for param in defaulted:
                gives = spread or param in named or param in names[: len(call.args)]
                given.setdefault(f"{qualname}({param})", set()).add(gives)
    found = []
    for entries in defined.values():
        for qualname, _, defaulted in entries:
            for param in defaulted:
                key = f"{qualname}({param})"
                if given.get(key) != {True, False}:
                    verdict = "every call gives it" if given.get(key) == {True} else "no call gives it"
                    found.append(f"{key}: {verdict}")
    return found


def test_no_internal_option_has_one_value_in_use():
    # a default that every call overrides is a required parameter in
    # disguise, and one that no call overrides is an option nobody uses;
    # either way the signature promises a choice the library never makes.
    # The public names are options for the library's users, and
    # cli.main's argv is the command line's.  Calls are matched to
    # definitions by function name alone
    found = _one_valued_options(sorted(SRC.glob("*.py")), set(qstrat.__all__) | {"cli.main"})
    assert not found, f"make the parameter required, or drop it: {found}"


def test_the_option_lint_sees_dead_options_and_dead_defaults(tmp_path):
    source = '''
def dead(a, b=1):
    return a + b

def fixed(a, b=1, *, c=None):
    return a + b

def used(a, b=1, *, c=None):
    return a

class Walker:
    def step(self, n, k=0):
        return n

    @staticmethod
    def jump(n, k=0):
        return n

def public(a, b=1):
    return a

def caller(walker, rest, opts):
    dead(1)
    dead(a=2)
    fixed(1, 2, c=3)
    fixed(1, b=2, c=None)
    used(1)
    used(1, 2, c=3)
    used(*rest)
    walker.step(1)
    walker.step(1, 2)
    Walker.jump(1)
    Walker.jump(**opts)
    public(1)
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _one_valued_options([path], {"public"}) == [
        "sample.dead(b): no call gives it",
        "sample.fixed(b): every call gives it",
        "sample.fixed(c): every call gives it",
    ]


# the parameters that default to None, each with the reason it stays: a
# None default is a second mode of its function, a path that each caller
# may or may not take and that the tests must walk as well
NONE_DEFAULTS_ALLOWED = {
    "saturate.saturations(limit)": "public: no limit lists every saturation",
    "cli.main(argv)": "public: the command line's arguments, sys.argv when omitted",
}


def _none_defaults(path: Path) -> set[str]:
    """The parameters of the functions of a module, nested ones and
    methods included, that default to None, positional and keyword-only
    alike, each as ``module.function(parameter)``."""
    found = set()
    for name, fn, _ in _functions(path):
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults = [*zip(positional[len(positional) - len(args.defaults):], args.defaults)]
        defaults += zip(args.kwonlyargs, args.kw_defaults)
        found |= {
            f"{name}({arg.arg})"
            for arg, default in defaults
            if isinstance(default, ast.Constant) and default.value is None
        }
    return found


def test_every_none_default_is_listed_with_its_reason():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _none_defaults(path)
    extra = sorted(found - set(NONE_DEFAULTS_ALLOWED))
    assert not extra, f"make the parameter required, or list it with its reason: {extra}"
    assert set(NONE_DEFAULTS_ALLOWED) <= found, "an allowed None default is gone; drop its entry"


def test_the_none_default_lint_sees_positional_keyword_nested_and_method_defaults(tmp_path):
    source = '''
def walk(n, touch=None, combined=None):
    return n

def rows(n, cols=0, *, limit=None, seed=1, tag):
    return n

async def fetch(url, timeout=None, /):
    return url

def outer(a=None):
    def inner(b, c=None):
        return b
    return inner, lambda d=None: d

class Walker:
    def step(self, n, k=None):
        return n

    def jump(self, n, k="None", m=False):
        return n
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _none_defaults(path) == {
        "sample.walk(touch)", "sample.walk(combined)", "sample.rows(limit)",
        "sample.fetch(timeout)", "sample.outer(a)", "sample.outer.inner(c)",
        "sample.Walker.step(k)",
    }


# the functions that build a Poset, whose constructor checks
# irreflexivity and transitivity, each with the reason it is an edge
# where an unchecked relation enters; the library builds its
# quasi-stratified orders as QsOrder(rel), which checks nothing
POSET_BUILDERS_ALLOWED = {
    "relcore.new_poset": "public: a caller's labels and pairs, checked once where they enter",
    "cli.InputFile.structure": "a file's precedence relation, checked before it is embedded",
    "oracles.reindex_poset": "oracle: a caller's poset over another declaration order",
    "oracles.enumerate_posets": "oracle: the brute-force scan checks each relation it keeps",
}


def _poset_builders(path: Path) -> set[str]:
    """The functions of a module, nested ones and methods included, that
    call ``Poset(...)``, bare or as a module attribute."""
    return {
        name
        for name, _, own in _functions(path)
        for node in own
        if isinstance(node, ast.Call)
        and "Poset" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_posets_are_built_only_at_the_edges():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _poset_builders(path)
    extra = sorted(found - set(POSET_BUILDERS_ALLOWED))
    assert not extra, f"build QsOrder(rel) from a relation built as an order, or list the edge: {extra}"
    assert set(POSET_BUILDERS_ALLOWED) <= found, "an allowed entry is gone; drop it"


def test_the_poset_lint_sees_bare_dotted_nested_and_method_calls(tmp_path):
    source = '''
def bare(rel):
    return Poset(rel)

def dotted(rel):
    return relcore.Poset(rel)

def outer(rels):
    def inner(rel):
        return [Poset(r) for r in rels]
    return inner

class Input:
    def order(self):
        return QsOrder(Poset(self.prec).prec)

def lazy(rel):
    return lambda: Poset(rel)

def named(p: Poset) -> Poset:
    return isinstance(p, Poset) and PosetLike(p) and p.Poset
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _poset_builders(path) == {
        "sample.bare", "sample.dotted", "sample.outer.inner", "sample.Input.order", "sample.lazy"
    }


# the classes that write ``__eq__`` or ``__hash__`` by hand, each with
# its reason; every other class compares and hashes as the dataclass
# generates it, over its fields
EQUALITY_ALLOWED = {
    "relcore.BinRel": "equal across declaration orders, by label set and label pairs",
    "qsseq.QssStratum": (
        "hash kept per node and equality by one _preorder walk, so deep trees do not recurse"
    ),
}

_EQUALITY = {"__eq__", "__hash__"}


def _hand_equalities(path: Path) -> set[str]:
    """The classes of a module, nested ones included, whose own body
    defines ``__eq__`` or ``__hash__``, by a def or an assignment."""
    found = set()
    stack: list[tuple[ast.AST, str]] = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    while stack:
        node, name = stack.pop()
        if isinstance(node, ast.ClassDef):
            defined = set()
            for stmt in node.body:
                if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                    defined.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    defined |= {target.id for target in targets if isinstance(target, ast.Name)}
            if defined & _EQUALITY:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (*_FUNCTIONS, ast.ClassDef))
            stack.append((child, f"{name}.{child.name}" if named else name))
    return found


def test_equality_is_written_by_hand_only_where_allowed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _hand_equalities(path)
    extra = sorted(found - set(EQUALITY_ALLOWED))
    assert not extra, f"let the dataclass generate equality over the fields, or list the class: {extra}"
    assert set(EQUALITY_ALLOWED) <= found, "an allowed entry is gone; drop it"


def test_the_equality_lint_sees_defs_assignments_and_nested_classes(tmp_path):
    source = '''
class Plain:
    prec: int

class ByDef:
    def __eq__(self, other):
        return True

class HashOnly:
    def __hash__(self):
        return 0

class Assigned:
    __hash__ = None

class Annotated:
    __eq__: object = object.__eq__

def factory():
    class Local:
        def __eq__(self, other):
            return False
    return Local

class Outer:
    class Inner:
        __hash__ = object.__hash__

    def method(self):
        def __eq__(a, b):
            return a is b
        return __eq__

def __hash__(x):
    return 0

class Mentions:
    def compare(self, other):
        return self.__eq__(other) and hash(self) == other.__hash__()
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _hand_equalities(path) == {
        "sample.ByDef", "sample.HashOnly", "sample.Assigned", "sample.Annotated",
        "sample.factory.Local", "sample.Outer.Inner",
    }


DEFINITION_VALUES = {"BinRel", "Domain", "Structure"}


def _foreign_imports(path: Path) -> list[str]:
    """The imports of path that are neither of the standard library nor
    of ``DEFINITION_VALUES`` from ``qstrat``, in source order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (f"{node.module}." if node.module else "")
            if base == "qstrat.":
                found += [base + a.name for a in node.names if a.name not in DEFINITION_VALUES]
            elif node.level or node.module.split(".")[0] not in sys.stdlib_module_names:
                found += [base + a.name for a in node.names]
    return found


def test_the_definitions_take_only_values_from_qstrat():
    # the reference shares no decider, walk or probe with the library
    found = _foreign_imports(Path(__file__).with_name("definitions.py"))
    assert not found, f"compute it in plain loops in tests/definitions.py: {found}"


def test_the_definitions_lint_sees_every_import_form(tmp_path):
    source = '''
import itertools
import os.path
import qstrat
import conftest
from itertools import product
from qstrat import BinRel, Domain, Structure, is_qsa
from qstrat.relcore import Domain
from . import oracles
from conftest import LABELS

def later():
    import qstrat.qsa
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert sorted(_foreign_imports(path)) == sorted([
        "qstrat", "conftest", "qstrat.is_qsa", "qstrat.relcore.Domain", ".oracles",
        "conftest.LABELS", "qstrat.qsa",
    ])


def _catches(path: Path, name: str) -> list[int]:
    """The lines of the except clauses in path that name the exception
    class name: bare, as a module attribute (``qsa.NotAcyclicError``) or
    in a tuple."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(c, "id", None) == name or getattr(c, "attr", None) == name for c in caught):
                found.append(node.lineno)
    return found


def test_no_library_module_catches_a_refusal():
    # a verdict on acyclicity is read from the structure's one decision
    # (relcore.Structure._decision), never from a refusal caught on the way
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _catches(path, "NotAcyclicError")
    ]
    assert not found, f"ask the structure's decision instead: {found}"


def test_the_refusal_lint_sees_bare_dotted_and_tuple_clauses(tmp_path):
    source = '''
def bare(s):
    try:
        return close(s)
    except NotAcyclicError:
        return None

def dotted(s):
    try:
        return close(s)
    except qsa.NotAcyclicError as exc:
        return exc.witness

def grouped(s):
    try:
        return close(s)
    except (KeyError, NotAcyclicError):
        return None

def others(s):
    try:
        return close(s)
    except ValueError:
        return None
    except NotAcyclicErrorLike:
        return None
    except:
        raise
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert _catches(path, "NotAcyclicError") == [5, 11, 17]
