"""Byte-golden guard: CLI output must match files written by an earlier version.

A change that means to alter output bytes regenerates the files and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib

import pytest

from multiband_alloc import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
SHADOWED = ["--shadow-atten", "1e-3"]
K8_N32 = ["--links", "8", "--subchannels", "32", "--bandwidth", "32"]

# name -> (argv, exit code). The golden file holds stdout on exit 0, else stderr.
CASES = {
    "sweep_k8_n32": (
        ["sweep", "--links", "8", "--subchannels", "32", "--bandwidth", "32",
         "--strategies", "low,high,maxsel", "--trials", "3", *SHADOWED],
        0,
    ),
    "sweep_k4_n8_score_both": (
        ["sweep", "--links", "4", "--subchannels", "8", "--bandwidth", "8",
         "--shadow-prob", "0.3", "--score", "both", "--trials", "3", *SHADOWED],
        0,
    ),
    "sweep_k3_n7_equal_split": (
        ["sweep", "--links", "3", "--subchannels", "7", "--bandwidth", "7",
         "--maxsel-power", "equal_split", "--trials", "20"],
        0,
    ),
    "sweep_seed1_exit3": (["sweep", "--seed", "1"], 3),
    # 300 trials: numpy's pairwise summation over the trial axis (unrolled
    # above 8 values, blocked above 128).
    "sweep_k2_n4_trials300_score_both": (
        ["sweep", "--trials", "300", "--score", "both", *SHADOWED], 0
    ),
    # One trial: the std column's trials == 1 branch, at the shape of
    # perfbench's `exact` workload.
    "sweep_k4_n8_trials1": (
        ["sweep", "--links", "4", "--subchannels", "8", "--bandwidth", "8",
         "--trials", "1", *SHADOWED],
        0,
    ),
    # Budget 0 is a point whose low_snr assignment is solved on its own.
    "sweep_k4_n8_lin_budget0": (
        ["sweep", "--links", "4", "--subchannels", "8", "--bandwidth", "8",
         "--budgets", "0:10:3lin", "--trials", "5", *SHADOWED],
        0,
    ),
    "dump_low_k8_n32": (["dump", "--strategy", "low", *K8_N32, *SHADOWED], 0),
    "dump_high_k8_n32": (["dump", "--strategy", "high", *K8_N32, *SHADOWED], 0),
    # Three zero-gain cells: forbidden in high_snr's ln H costs, printed as 0.
    "dump_high_seed2_forbidden": (
        ["dump", "--strategy", "high", "--seed", "2", "--shadow-prob", "0.3"], 0
    ),
    # Budget 0: every power is 0, so the assignment line cannot come from them.
    "dump_low_budget0": (["dump", "--strategy", "low", "--seed", "3", "--budget", "0"], 0),
    **{
        f"dump_{short}": (["dump", "--strategy", short, "--seed", "3", "--budget", "10"], 0)
        for short in cli.STRATEGY_SHORT
    },
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name):
    argv, expected_code = CASES[name]
    code, out, err = run(argv)
    assert code == expected_code
    text, other = (out, err) if code == 0 else (err, out)
    assert other == ""
    assert text.encode() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in CASES.items():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.txt").write_bytes((out if code == 0 else err).encode())
        print(name, code)
