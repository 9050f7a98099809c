"""Contract tests on the public API surface.

A downstream user relies on ``repro``'s exports being importable,
documented and stable; these tests pin that contract.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.baselines",
    "repro.codec",
    "repro.core",
    "repro.evaluation",
    "repro.features",
    "repro.index",
    "repro.minhash",
    "repro.partition",
    "repro.signature",
    "repro.utils",
    "repro.video",
    "repro.workloads",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing {name}"

    def test_all_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable_and_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_every_module_has_docstring(self):
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a docstring"


class TestReferenceBoundary:
    """``repro.reference`` is the oracle, not part of the runtime. The
    experiment runner is its one caller: it runs the paper's sketch
    baseline there, importing it lazily."""

    def test_no_runtime_module_imports_the_reference(self):
        root = pathlib.Path(repro.__file__).parent
        imports = re.compile(
            r"^\s*(from|import)\s+repro\.reference\b"
            r"|^\s*from\s+repro\s+import\b.*\breference\b",
            re.MULTILINE,
        )
        assert [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root).parts[0] != "reference"
            and imports.search(path.read_text())
        ] == ["evaluation/runner.py"]

    def test_import_repro_does_not_load_the_reference(self):
        root = pathlib.Path(repro.__file__).parent
        probe = (
            "import sys, repro; "
            "print([m for m in sys.modules if m.startswith('repro.reference')])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root.parent)},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
                and obj.__module__ == "repro.errors"
            ):
                assert issubclass(obj, errors.ReproError), name

    def test_config_error_is_value_error(self):
        from repro.errors import ConfigError

        assert issubclass(ConfigError, ValueError)

    def test_library_raises_catchable_base(self):
        from repro.config import DetectorConfig

        with pytest.raises(repro.ReproError):
            DetectorConfig(num_hashes=-1)
