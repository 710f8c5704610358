"""The package's public surface: each export comes from its home module."""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import scclab
from scclab.classify import classify
from scclab.fuzz import (
    GenConfig,
    fuzz_characterization,
    fuzz_relationships,
    sample_nest_invariant_params,
    sample_singleton_params,
)
from scclab.identify import RECOVERIES

PACKAGE = Path(scclab.__file__).parent


def _defined_names(module: str) -> set[str]:
    """Top-level names a module binds itself, not through an import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_each_export_is_imported_from_its_defining_module():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    misplaced = [
        f"{alias.name} from .{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in _defined_names(node.module)
    ]
    assert misplaced == []


def test_every_recovery_takes_the_dataset_and_a_tolerance():
    for model, recovery in RECOVERIES.items():
        assert list(inspect.signature(recovery).parameters) == ["scc", "tol"], model


def test_sampling_and_classification_take_only_what_callers_set():
    assert [f.name for f in fields(GenConfig)] == ["n", "model", "seed", "empty_variant"]
    expected = {
        fuzz_characterization: ["model", "trials", "n_range", "seed", "empty_variant"],
        fuzz_relationships: ["trials", "n_range", "seed"],
        sample_singleton_params: ["n", "seed"],
        sample_nest_invariant_params: ["n", "seed"],
        classify: ["scc", "tol", "attributes"],
    }
    for function, names in expected.items():
        assert list(inspect.signature(function).parameters) == names, function
