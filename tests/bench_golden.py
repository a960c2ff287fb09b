"""The benchmark's answers as text, and the golden file that pins them.

``result_lines`` builds each workload of ``bench/workloads.py`` from
``random.Random(seed)`` for seeds 1-3, writes its problem files to a
temporary directory and runs every operation once.  Each result gives
one line: workload, seed, index, label and the ``repr`` of the result,
separated by tabs.  ``GOLDEN`` holds those lines, gzipped.

After a change that alters output on purpose, regenerate the file with
``python tests/bench_golden.py`` from the repository root, and record in
CHANGES.md how many results changed per workload.
"""

from __future__ import annotations

import gzip
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "bench_golden.txt.gz")
SEEDS = (1, 2, 3)

for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def result_lines() -> list[str]:
    """One line per benchmark result, in workload, seed and index order."""
    import workloads

    lines = []
    for workload, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                files = workloads.ProblemFiles(workdir)
                ops = build(random.Random(seed), files)
                files.write()
                for index, op in enumerate(ops):
                    shown = repr(op.run())
                    if workdir in shown:
                        raise AssertionError(f"{op.label}: the result names its file")
                    lines.append(f"{workload}\t{seed}\t{index}\t{op.label}\t{shown}")
    return lines


def golden_lines() -> list[str]:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as handle:
        return handle.read().splitlines()


def main() -> None:
    text = "".join(line + "\n" for line in result_lines())
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as out:
        out.write(text.encode("utf-8"))
    print(f"wrote {text.count(chr(10))} results to {os.path.relpath(GOLDEN)}")


if __name__ == "__main__":
    main()
