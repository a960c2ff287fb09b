"""Every answer of the benchmark is pinned: the four workloads at seeds
1-3 must give, result for result, the text in ``bench_golden.txt.gz``.

A change that alters output on purpose regenerates the file with
``python tests/bench_golden.py`` (see that module) in the same change.
"""

from bench_golden import golden_lines, result_lines


def test_benchmark_results_match_golden_file():
    expected = golden_lines()
    actual = result_lines()
    for want, got in zip(expected, actual):
        assert want == got, f"first differing result\ngolden: {want}\nnow:    {got}"
    assert len(actual) == len(expected)
