"""The benchmark runs end to end and its checks hold: the self-test
rejects every planted wrong output, and short verify, chain, random and
decide runs answer correctly with no failed operation."""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "run.py")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, timeout=300, check=False
    )


def test_selftest_rejects_planted_outputs():
    proc = _run("--selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "planted output rejected" in proc.stdout
    assert "ACCEPTED" not in proc.stdout


def _assert_correct(workload: str) -> None:
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] > 0


def test_verify_workload_is_correct():
    _assert_correct("verify")


def test_chain_workload_is_correct():
    _assert_correct("chain")


def test_random_workload_is_correct():
    _assert_correct("random")


def test_decide_workload_is_correct():
    _assert_correct("decide")
