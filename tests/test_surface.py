"""The package's top-level names and its single bit-unpacking function."""

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


def _unpackbits_sites(path: Path) -> set:
    """'file:function' for every reference to unpackbits; '<module>' outside functions."""
    tree = ast.parse(path.read_text())
    owner = {}
    for func in ast.walk(tree):  # outer functions come first, so the innermost one wins
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name
    return {f"{path.name}:{owner.get(node, '<module>')}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "unpackbits")
            or (isinstance(node, ast.alias) and node.name == "unpackbits")}


def test_unpackbits_is_called_from_one_function():
    sites = set().union(*(_unpackbits_sites(p) for p in sorted(SRC.rglob("*.py"))))
    assert sites == {"hashing.py:unpack_bits"}
