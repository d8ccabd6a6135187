"""The package's export lists and the CLI's exit-2 contract.

``cli.main`` turns every ``ValueError`` and ``OSError`` into a one-line
``error:`` and exit code 2, so every exception class the package defines
must subclass ``ValueError``.
"""

import importlib
import inspect
import pkgutil

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
