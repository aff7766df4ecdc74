"""Source checks: guards that survive ``python -O``, no module-level
caches, no enumeration bound knobs, fast modules kept apart from the
oracles, and the public names."""

import ast
import sys
from fnmatch import fnmatch
from pathlib import Path

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
