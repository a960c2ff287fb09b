import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
print(" ".join(name for name in ("dataclasses", "inspect", "boolsolve.oracle")
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
    # nor dataclasses and the standard library modules it pulls in.
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
