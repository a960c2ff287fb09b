import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import boolsolve
import readme_tour

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
README = ROOT / "README.md"

# Run in isolated mode (-I: no PYTHONPATH, no user site, no script
# directory on sys.path), so only the standard library and src/ are
# importable; the test modules' directory, which pytest puts on
# sys.path, is not.  -I also ignores PYTHONDONTWRITEBYTECODE, so -B
# keeps the probes from writing bytecode into src/.
_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import boolsolve
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "boolsolve" in loaded
    outside = sorted(loaded - {"boolsolve"} - set(sys.stdlib_module_names))
    assert outside == [], outside


_STARTUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import boolsolve.cli
print(" ".join(name for name in ("argparse", "gettext", "locale", "dataclasses",
                                  "inspect", "boolsolve.oracle")
               if name in sys.modules))
import boolsolve
from boolsolve import CheckReport, FunctionSpace, check_general
assert check_general is boolsolve.oracle.check_general
assert "check_general" in dir(boolsolve) and "CheckReport" in dir(boolsolve)
star = {}
exec("from boolsolve import *", star)
assert star["check_general"] is check_general and star["parse"] is boolsolve.parse
try:
    boolsolve.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("boolsolve.no_such_name did not raise AttributeError")
"""


def test_cli_import_defers_the_oracle():
    # Importing the CLI, as every command does, loads neither the oracle
    # nor dataclasses, argparse and the standard library modules they
    # pull in.
    # The oracle's names still import from the package, which loads
    # the oracle on their first use.
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _STARTUP_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


# The argv shapes of the benchmark's workloads, each run through the
# CLI; the exit codes print first, then whether argparse was loaded.
_BENCHMARK_ARGV_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from boolsolve.cli import run
path = sys.argv[2]
codes = []
for argv in (
    ["solve", "--method", "succ-elim", path],
    ["solve", "--method", "second-order", path],
    ["solve", "--method", "witnesses", path],
    ["solve", "--method", "second-order", "--reproductive", path],
    ["exists", path],
    ["precondition", path],
    ["project", "--keep", "a b", "a | (b & c & ~c)"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(argv))
print(*codes, "argparse" in sys.modules)
"""


def test_benchmark_argv_take_the_exact_form_shortcut(tmp_path):
    # argparse reads only argv outside the exact form; if the argv the
    # benchmark sends slid onto it, they would load argparse.
    path = tmp_path / "example.sp"
    path.write_text("unknowns: p1 p2\nformula: (a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))\n")
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _BENCHMARK_ARGV_PROBE, str(SRC), str(path)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"] * 7 + ["False"]


# Names that no command reaches and README does not list: the paper's
# formula-level constructions, now references in tests/solve_reference.py
# and tests/elimination_reference.py, the one-unknown wrappers of the
# solver core, and the literal substitution's refusal of capture, now in
# tests/formula_reference.py.
MOVED = {
    "solve": (
        "InternalCheckFailed",
        "NotAParticularSolution",
        "NotSolvable",
        "SchroederVariant",
        "definiens",
        "instantiate",
        "polarity_shortcut",
        "rigorous_solution",
        "schroeder_interpolant",
        "solve1_interval",
        "solve1_reproductive",
    ),
    "formula": (
        "NotSubstitutible",
        "Polarity",
        "free_binders",
        "has_quantifier",
        "is_substitutible",
        "polarity_of",
    ),
    "semantics": ("irredundant_two_level",),
}


def test_elimination_reads_the_solver_core():
    # The package has one phase 1, solve._stage_masks; elimination builds
    # no mask of its own.
    import boolsolve.elimination as elimination

    for name in ("atom_patterns", "formula_mask", "existential_stages", "cofactors"):
        assert not hasattr(elimination, name), name


def _readme_code_names() -> set[str]:
    """The identifiers in README's code blocks and inline code spans."""
    spans = re.findall(r"```[a-z]*\n(.*?)```|`([^`]+)`", README.read_text(encoding="utf-8"), re.S)
    return set(re.findall(r"\w+", " ".join(block + inline for block, inline in spans)))


def test_api_is_what_readme_lists():
    moved = {name for names in MOVED.values() for name in names}
    assert len(moved) == 18
    for module, names in MOVED.items():
        old_home = importlib.import_module(f"boolsolve.{module}")
        for name in names:
            assert not hasattr(boolsolve, name), name
            assert not hasattr(old_home, name), (module, name)
    assert not moved & set(dir(boolsolve))
    assert not moved & set(boolsolve.__all__)
    submodules = {m.name for m in pkgutil.iter_modules(boolsolve.__path__)}
    named = _readme_code_names()
    unlisted = [n for n in boolsolve.__all__ if n not in submodules and n not in named]
    assert unlisted == []


def test_readme_tour_runs():
    # the two "# True" comments: exists_solution and the check's verdict
    assert readme_tour.run_tour(README) == 2
