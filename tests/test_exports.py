"""The package's export lists, the CLI's exit-2 contract and its imports.

``cli.main`` turns every ``ValueError`` and ``OSError`` into a one-line
``error:`` and exit code 2, so every exception class the package defines
must subclass ``ValueError``.
"""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import tetraflows

MODULES = [tetraflows] + [
    importlib.import_module(f"tetraflows.{info.name}")
    for info in pkgutil.iter_modules(tetraflows.__path__)
]


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_exception_class_is_a_value_error():
    defined = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if inspect.isclass(obj)
        and issubclass(obj, BaseException)
        and obj.__module__.startswith("tetraflows")
    }
    assert {cls.__name__ for cls in defined} >= {
        "ContextMismatchError",
        "ExponentOverflowError",
        "GeneratorError",
        "GraphParseError",
        "GraphStructureError",
        "PolyParseError",
        "_UsageError",
    }
    for cls in defined:
        assert issubclass(cls, ValueError), f"{cls.__module__}.{cls.__name__}"


def test_the_cli_imports_no_dataclasses_or_inspect():
    # Every command is a fresh process: dataclasses, with the inspect, ast
    # and dis it loads, was about half of the import of tetraflows.cli.
    src = str(Path(tetraflows.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import tetraflows.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "tetraflows.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis"})
