"""Run README's library tour against whichever ``boolsolve`` is importable.

The tour is README's one ```` ```python ```` block.  It runs statement
by statement, and each expression statement whose line ends in
``# True`` must evaluate to True.  As a script,

    python -I tests/readme_tour.py README.md

checks an installed package: ``-I`` keeps the checkout's ``src/`` and
the script's directory off ``sys.path``, so the tour fails on any name
the installed package does not export.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path


def tour_source(readme: Path) -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.S | re.M)
    if len(blocks) != 1:
        raise ValueError(f"{readme}: expected one python block, found {len(blocks)}")
    return blocks[0]


def run_tour(readme: Path) -> int:
    """Run the tour; returns how many ``# True`` claims held.  A claim
    that does not hold raises ``AssertionError``."""
    source = tour_source(readme)
    lines = source.splitlines()
    namespace: dict = {"__name__": "readme_tour"}
    claims = 0
    for node in ast.parse(source).body:
        line = lines[node.end_lineno - 1]
        if isinstance(node, ast.Expr) and line.rstrip().endswith("# True"):
            value = eval(compile(ast.Expression(node.value), str(readme), "eval"), namespace)
            if value is not True:
                raise AssertionError(f"README claims True, got {value!r}: {line.strip()}")
            claims += 1
        else:
            exec(compile(ast.Module([node], []), str(readme), "exec"), namespace)
    return claims


if __name__ == "__main__":
    print(f"README tour: {run_tour(Path(sys.argv[1]))} claims hold")
