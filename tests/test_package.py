import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in isolated mode (-I: no PYTHONPATH, no user site, no script
# directory on sys.path), so only the standard library and src/ are
# importable; the test modules' directory, which pytest puts on
# sys.path, is not.
_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import boolsolve
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "boolsolve" in loaded
    outside = sorted(loaded - {"boolsolve"} - set(sys.stdlib_module_names))
    assert outside == [], outside
