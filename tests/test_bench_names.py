"""The package names the benchmark's tracer wraps: each resolves, and install/uninstall is clean.

bench/tracing.py imports only numpy and the standard library, so it is
loaded here by file path; a deleted or renamed name it pins fails this
test rather than only the half-minute bench/smoke.py run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """Every public attribute of the traced modules and every traced class's own dict."""
    owners = [importlib.import_module(name) for name in tracing.MODULES]
    owners += [
        getattr(importlib.import_module(f"guesswork.{module}"), cls)
        for module, cls, _, _ in tracing.METHODS
    ]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = [
        f"guesswork.{module}.{attr}"
        for module, attr, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"guesswork.{module}"), attr, None))
    ]
    missing += [
        f"guesswork.{module}.{cls}.{attr}"
        for module, cls, attr, _ in tracing.METHODS
        if attr not in vars(getattr(importlib.import_module(f"guesswork.{module}"), cls, object))
    ]
    assert not missing


def test_tracer_install_then_uninstall_restores_every_original():
    tracing = _tracing()
    # the package binds a public name on first use, and install looks every
    # traced name up on it: bind them all before the snapshot
    package = importlib.import_module("guesswork")
    for name in package.__all__:
        getattr(package, name)
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {key for key, value in _bindings(tracing).items() if before.get(key) is not value}
        pinned = {attr for _, attr, _ in tracing.FUNCTIONS}
        pinned |= {attr for _, _, attr, _ in tracing.METHODS}
        assert {attr for _, attr in wrapped} >= pinned
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
