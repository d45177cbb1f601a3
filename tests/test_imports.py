"""The package's import contract: lazy public names, and guessctl imports what it runs.

`import guesswork` binds each public name on first use, and guessctl's
handlers import the numeric modules they run: building the parser and
running fig1 load no numpy, no `asymptotics` and no `tilting`, and only the
exact-compare and census handlers import the oracle, so fig2 and analyze
never load `oracle` or `ranksums`.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import guesswork

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# The 65 public names, each with a module it is importable from as the same object.
PUBLIC = {
    "asymptotics": (
        "GrowthExponents", "ScgfModel", "Source", "conditioned", "growth_exponents",
        "guesswork_pmf_approx", "legendre_transform", "scgf_model", "unconditioned",
        "uniform_typical",
    ),
    "closed_forms": (
        "BinaryReport", "SourceKind", "admissible_epsilon_interval", "binary_closed_forms",
        "require_admissible_epsilon",
    ),
    "entropy": (
        "LetterDistribution", "TypeVector", "cross_entropy", "enumerate_types",
        "is_typical_type", "num_types", "shannon_entropy", "type_count", "type_count_matrix",
        "typical_window",
    ),
    "errors": (
        "AlphaDomainError", "DistributionError", "EmptyTypicalSetError",
        "EpsilonInadmissibleError", "GrainError", "GridTooLargeError", "GuessworkError",
        "TypeSpaceTooLargeError", "WordSpaceTooLargeError",
    ),
    "oracle": (
        "CensusResult", "ConvergencePoint", "ExactGuessTable", "FiniteKExponents", "GuessBlock",
        "SandwichBounds", "build_guess_table", "convergence_series", "exact_mean_log_guesswork",
        "exact_moment_log", "finite_k_exponents", "log_rank_power_sum", "modal_word_count",
        "moment_sandwich", "naive_enumeration_crosscheck", "smallest_nonempty_k",
        "trend_holds", "typical_set_census",
    ),
    "tilting": (
        "BoundaryTypes", "ClampedOptimum", "Regime", "boundary_types", "clamped_optimum",
        "solve_cross_entropy", "tilted_type",
    ),
}
MODULES = ("asymptotics", "entropy", "errors", "oracle", "ranksums", "tilting")
# Scalar names of closed_forms that asymptotics imports back, as the same object:
# SourceKind, which it uses, and binary_closed_forms, which bench/tracing.py spans there.
MOVED = {"asymptotics": ("SourceKind", "binary_closed_forms")}
# Loaded only by the subcommands that compute on arrays.
NUMERIC = {"guesswork.asymptotics", "guesswork.tilting", "guesswork.oracle", "guesswork.ranksums"}


def _python(*args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


def _imported(stderr: bytes) -> set[str]:
    """The modules a `python -X importtime` run imported, from its stderr."""
    lines = stderr.decode().splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


def test_all_pins_the_65_public_names():
    want = {name for names in PUBLIC.values() for name in names} | set(MODULES)
    assert len(want) == 65
    assert guesswork.__all__ == sorted(want)


def test_each_public_name_is_its_modules_object():
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"guesswork.{module}")
        for name in names:
            assert getattr(guesswork, name) is getattr(mod, name), name
    for module in MODULES:
        assert getattr(guesswork, module) is importlib.import_module(f"guesswork.{module}")
    for module, names in MOVED.items():
        mod = importlib.import_module(f"guesswork.{module}")
        for name in names:
            assert getattr(mod, name) is getattr(guesswork, name), f"{module}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from guesswork import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == guesswork.__all__
    assert all(namespace[name] is getattr(guesswork, name) for name in namespace)


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(guesswork.__all__) <= set(dir(guesswork))
    with pytest.raises(AttributeError, match="no_such_name"):
        guesswork.no_such_name


def _numeric(modules) -> set[str]:
    """The numpy and numeric guesswork modules among `modules`."""
    return {m for m in modules if m.split(".")[0] == "numpy" or m in NUMERIC}


def _loaded_after(code: str) -> list[str]:
    """The numpy and guesswork modules a fresh interpreter holds after running `code`."""
    proc = _python("-c", code + (
        "\nimport sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'guesswork')))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode().split()


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import guesswork") == ["guesswork"]


def test_scalar_public_names_load_no_numpy():
    loaded = _loaded_after("from guesswork import binary_closed_forms, SourceKind")
    assert loaded == ["guesswork", "guesswork.closed_forms", "guesswork.entropy",
                      "guesswork.errors"]


def test_building_the_parser_loads_no_oracle():
    # what bench's setup_s times: no numpy, no asymptotics or tilting, no oracle
    loaded = _loaded_after("import guesswork\nfrom guesswork.cli import build_parser\n"
                           "build_parser()")
    assert "guesswork.cli" in loaded
    assert not _numeric(loaded)


@pytest.mark.parametrize("argv, golden", [
    (["fig1", "--epsilon", "0.05"], "fig1_eps005.csv"),
    (["fig2", "--p", "0.5,0.3,0.2", "--epsilon", "0.07", "--x-points", "400"], "fig2_m3.csv"),
    (["analyze", "--p", "0.5,0.3,0.2", "--epsilon", "0.07", "--format", "json"], "analyze_m3.json"),
    pytest.param(["--help"], None, id="help"),
])
def test_asymptotic_subcommands_never_load_the_oracle(argv, golden):
    # guessctl as a fresh process: golden bytes (the usage text for --help),
    # and no oracle or rank sums imported; fig1 and --help run on the scalar
    # layer and import no numpy at all
    proc = _python("-X", "importtime", "-m", "guesswork.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    if golden is None:
        assert proc.stdout.startswith(b"usage: guessctl ")
    else:
        assert proc.stdout == (DATA / golden).read_bytes()
    imported = _imported(proc.stderr)
    if argv[0] in ("fig1", "--help"):
        assert "guesswork.closed_forms" in imported
        assert not _numeric(imported)
    else:
        assert "guesswork.asymptotics" in imported
        assert not imported & {"guesswork.oracle", "guesswork.ranksums"}
