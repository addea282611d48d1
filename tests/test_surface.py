"""The package's top-level names and the operations that must have a single site."""

import ast
import re
from pathlib import Path

import mvhash

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_every_exported_name_resolves_and_appears_once():
    assert len(mvhash.__all__) == len(set(mvhash.__all__))
    for name in mvhash.__all__:
        assert hasattr(mvhash, name), name


def test_every_exported_name_is_imported_somewhere():
    """An export that no benchmark, test or README example imports is dead weight."""
    sources = [p.read_text() for d in ("bench", "tests") for p in sorted((ROOT / d).glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    imported = {alias.name for text in sources for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom) and node.module == "mvhash"
                for alias in node.names}
    assert sorted(set(mvhash.__all__) - imported) == []


def _sites(path: Path, matches) -> set:
    """'file:function' for every AST node that matches; '<module>' outside functions."""
    tree = ast.parse(path.read_text())
    owner = {}
    for func in ast.walk(tree):  # outer functions come first, so the innermost one wins
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name
    return {f"{path.name}:{owner.get(node, '<module>')}" for node in ast.walk(tree)
            if matches(node)}


def _src_sites(matches) -> set:
    return set().union(*(_sites(p, matches) for p in sorted(SRC.rglob("*.py"))))


def _names(node, name: str) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name))


def test_bundle_file_names_are_spelled_in_one_function():
    """index._layout alone names a bundle's .bin files; save_bundle and
    load_bundle both take the names from it."""
    spells = _src_sites(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and re.search(r"\.bin\b", node.value))
    assert spells == {"index.py:_layout"}


def test_the_independence_matrix_is_derived_in_one_function_and_never_stored():
    """index._table alone calls independence_matrix, at build and at load, and
    no module spells an independence file's magic or layout kind."""
    calls = _src_sites(lambda node: isinstance(node, ast.Call)
                       and getattr(node.func, "id", getattr(node.func, "attr", None))
                       == "independence_matrix")
    assert calls == {"index.py:_table"}
    spells = _src_sites(lambda node: (isinstance(node, ast.Name) and node.id == "MAGIC_INDEP")
                        or (isinstance(node, ast.Constant) and node.value == "indep"))
    assert spells == set()


def test_unpackbits_is_called_from_one_function():
    assert _src_sites(lambda node: _names(node, "unpackbits")) == {"hashing.py:unpack_bits"}


def _sorts_along_an_axis(node) -> bool:
    """A sort or argsort call given an axis, by keyword or as np.sort(a, axis)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sort", "argsort")
            and (any(kw.arg == "axis" for kw in node.keywords) or len(node.args) > 1))


def _stable_sort(node) -> bool:
    """A sort or argsort call with kind="stable"."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sort", "argsort")
            and any(kw.arg == "kind" and getattr(kw.value, "value", None) == "stable"
                    for kw in node.keywords))


def test_row_wise_nearest_selection_has_one_site():
    """Rows' s smallest entries come from anchors.smallest_per_row only. Its
    stable sort is one of three: topk's window sort and the oracle's full
    sort are the others; the one lexsort is fuse_rankings' (score, id) order."""
    assert _src_sites(_sorts_along_an_axis) == set()
    assert _src_sites(_stable_sort) == {
        "anchors.py:smallest_per_row", "hashing.py:topk", "metrics.py:brute_force_rank"}
    assert _src_sites(lambda node: _names(node, "lexsort")) == {"fusion.py:fuse_rankings"}


def test_weighted_hamming_distance_has_one_kernel():
    """The byte tables are read by weighted_hamming_scan alone, and no rounding
    margin (a multiple of machine epsilon) is left beside it: on the grid of
    qrank.dyadic_weights every weighted sum is exact."""
    reads = _src_sites(lambda node: isinstance(node, ast.Name) and node.id == "_BYTE_BITS"
                       and isinstance(node.ctx, ast.Load))
    assert reads == {"qrank.py:weighted_hamming_scan"}
    for name in ("qrank.py", "fusion.py"):
        assert _sites(SRC / "mvhash" / name, lambda node: _names(node, "eps")) == set()


def test_the_bound_and_the_counting_select_have_one_site_each():
    """The bound's size rule is read by weighted_topk alone, no pair table
    (np.add.outer) is left beside the byte tables, and the counting select
    (a bisection on np.count_nonzero) lives in kth_smallest alone, with no
    np.bincount in hashing.py, so there is still one weighted kernel and one
    top-k. test_weighted_hamming_distance_has_one_kernel pins the byte tables."""
    reads = _src_sites(lambda node: isinstance(node, ast.Name) and node.id == "BOUND_ITEMS"
                       and isinstance(node.ctx, ast.Load))
    assert reads == {"qrank.py:weighted_topk"}
    outer = _src_sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "outer"
                       and isinstance(node.value, ast.Attribute) and node.value.attr == "add")
    assert outer == set()
    assert _src_sites(lambda node: _names(node, "count_nonzero")) == {"hashing.py:kth_smallest"}
    assert _sites(SRC / "mvhash" / "hashing.py", lambda node: _names(node, "bincount")) == set()


def _min_along_an_axis(node) -> bool:
    """A min or amin call given an axis, by keyword or as np.min(a, axis)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("min", "amin")
            and (any(kw.arg == "axis" for kw in node.keywords) or len(node.args) > 1))


def test_every_kth_value_select_is_kth_smallest():
    """np.partition (or argpartition) and the k = 1 row minimum are called
    from hashing.kth_smallest alone, so every top-k and every anchor screen
    finds its k-th smallest value one way."""
    partitions = _src_sites(lambda node: _names(node, "partition") or _names(node, "argpartition"))
    assert partitions == {"hashing.py:kth_smallest"}
    assert _src_sites(_min_along_an_axis) == {"hashing.py:kth_smallest"}


def _matrix_product(node) -> bool:
    """An @ product, or a dot or matmul call (np.dot, x.dot, np.matmul)."""
    return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dot", "matmul")))


def test_the_walk_forms_no_matrix_product():
    """random_walk, nested functions included, reaches the graph only through
    the fused operator and forms no BLAS product, so its bits cannot depend on
    the BLAS threads. It sizes no Krylov basis."""
    tree = ast.parse((SRC / "mvhash" / "fusion.py").read_text())
    walk = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "random_walk")
    assert not any(_matrix_product(node) for node in ast.walk(walk))
    assert any(_matrix_product(node) for node in ast.walk(tree))  # the check sees products
    assert not hasattr(mvhash.fusion, "KRYLOV_DIM")
