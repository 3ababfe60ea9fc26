"""Name-resolution guards. The benchmark's trace (perfbench/tracing.py)
rebinds cqcap names listed in its WRAPPED table, and `cqcap.__all__` lists
the public API. A refactor that renames or drops one of these names would
otherwise only surface when the benchmark runs with tracing on or when a
user star-imports the package; these tests catch it in the unit suite. One
more guard keeps file output in the CLI."""

import importlib
import importlib.util
from pathlib import Path

import cqcap

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for module, path, _ in wrapped:
        assert module.startswith("cqcap."), module
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}: no attribute {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path} is not callable"


def test_only_the_cli_opens_files():
    # file output belongs to the front end; the other modules only compute
    package = Path(cqcap.__file__).resolve().parent
    openers = sorted(str(path.relative_to(package)) for path in package.rglob("*.py")
                     if path.name != "cli.py" and "open(" in path.read_text())
    assert openers == []


def test_every_exported_name_resolves():
    for name in cqcap.__all__:
        assert hasattr(cqcap, name), f"cqcap.__all__ lists missing {name!r}"
    namespace = {}
    exec("from cqcap import *", namespace)
    assert set(cqcap.__all__) <= set(namespace)
