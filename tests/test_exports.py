"""The public names: every export in ``motionsample.__all__`` resolves, the benchmark uses only exports,
and no package module imports another's private names."""

import ast
from pathlib import Path

import motionsample

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(motionsample.__file__).resolve().parent


def test_every_export_resolves():
    assert [name for name in motionsample.__all__ if not hasattr(motionsample, name)] == []
    assert len(set(motionsample.__all__)) == len(motionsample.__all__)


def test_star_import():
    namespace = {}
    exec("from motionsample import *", namespace)
    assert set(motionsample.__all__) <= namespace.keys()


def perfbench_names() -> dict[str, str]:
    """Each name perfbench imports from ``motionsample`` or reads as ``motionsample.<name>``, with where."""
    names = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "motionsample" and node.level == 0:
                found = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "motionsample" and not node.attr.startswith("__")):
                found = [node.attr]
            else:
                continue
            for name in found:
                names.setdefault(name, f"{path.name}:{node.lineno}")
    return names


def test_benchmark_reads_only_exports():
    """An API cut that would break the benchmark fails here; perfbench is read, never written."""
    names = perfbench_names()
    assert "sample_video" in names and "load_kernel_bank" in names  # the scan sees both import forms
    assert {name: where for name, where in names.items() if name not in motionsample.__all__} == {}


def test_no_module_imports_a_private_name_from_another():
    """A rule two modules must both know lives behind one module's public names."""
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("motionsample")):
                private += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []
