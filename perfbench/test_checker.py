"""Tests of the benchmark's own checker and metric bookkeeping.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
from gpi_lab import CovarianceMatrix, check_H_positivity  # noqa: E402
from gpi_lab._pairing import pairing_moment  # noqa: E402
from gpi_lab.cli import SweepConfig, render_sweep_csv, render_sweep_json, run_identity_suite, run_sweep  # noqa: E402

RATIONAL_COV = [
    [Fraction(3, 2), Fraction(-1, 3), Fraction(1, 4)],
    [Fraction(-1, 3), Fraction(2), Fraction(1, 5)],
    [Fraction(1, 4), Fraction(1, 5), Fraction(7, 3)],
]


def small_exponents(max_total: int = 8):
    for a in range(max_total + 1):
        for b in range(max_total + 1 - a):
            for c in range(max_total + 1 - a - b):
                yield a, b, c


@pytest.mark.parametrize(
    "rows",
    checker.gram_draws(11, 4, 3) + checker.gram_draws(12, 2, 1) + [RATIONAL_COV],
)
def test_pairing_count_sum_agrees_with_pairing_oracle(rows):
    cov = CovarianceMatrix.from_rows(rows)
    for exps in small_exponents():
        assert checker.pairing_count_moment(rows, *exps) == pairing_moment(cov, exps), exps


def test_gram_draws_and_hash_match_the_program():
    report = render_sweep_json(run_sweep(SweepConfig(seed=5, count=30, q=4, m_max=1, n_max=1)))
    records = [json.loads(line) for line in report.splitlines()]
    assert [r["cov_hash"] for r in records] == [
        checker.cov_hash(g) for g in checker.gram_draws(5, 30, 4)
    ]


def sweep_report(fmt: str) -> bytes:
    records = run_sweep(SweepConfig(seed=3, count=6, q=3, m_max=3, n_max=2))
    render = render_sweep_json if fmt == "json" else render_sweep_csv
    return render(records).encode("ascii")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_sweep_accepts_the_program_report(fmt):
    assert checker.check_sweep(sweep_report(fmt), fmt, 3, 6, 3, 3, 2) == 36


def off_by_one(report: bytes, fmt: str, index: int) -> bytes:
    records = checker.parse_sweep(report, fmt)
    records[index]["lhs"] = str(int(records[index]["lhs"]) + 1)
    render = render_sweep_json if fmt == "json" else render_sweep_csv
    return render(records).encode("ascii")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_sweep_rejects_lhs_off_by_one(fmt):
    with pytest.raises(checker.CheckError, match="independent value"):
        checker.check_sweep(off_by_one(sweep_report(fmt), fmt, 17), fmt, 3, 6, 3, 3, 2)


def test_check_sweep_rejects_wrong_seed_and_missing_records():
    report = sweep_report("json")
    with pytest.raises(checker.CheckError):
        checker.check_sweep(report, "json", 4, 6, 3, 3, 2)
    truncated = b"\n".join(report.splitlines()[:-1]) + b"\n"
    with pytest.raises(checker.CheckError, match="35 records"):
        checker.check_sweep(truncated, "json", 3, 6, 3, 3, 2)


def identity_report(n_max=4, r_max=6, l_max=7) -> bytes:
    verdicts = run_identity_suite(n_max, r_max, l_max)
    return "".join(json.dumps(v) + "\n" for v in verdicts).encode("ascii")


def test_check_identities_accepts_the_program_report():
    assert checker.check_identities(identity_report(), 4, 6, 7) == 5 * 6 + 3 * 28 + 5 * 4 + 6


def test_check_identities_rejects_a_changed_value_and_a_wrong_range():
    lines = identity_report().decode().splitlines()
    rec = json.loads(lines[40])
    rec["rhs"] = rec["lhs"] = str(Fraction(rec["rhs"]) + 1)
    lines[40] = json.dumps(rec)
    with pytest.raises(checker.CheckError, match="closed form"):
        checker.check_identities(("\n".join(lines) + "\n").encode(), 4, 6, 7)
    with pytest.raises(checker.CheckError, match="verdicts, expected"):
        checker.check_identities(identity_report(), 4, 6, 8)


def verification_text(counts) -> bytes:
    lines = [f"ok   {family}: {n} exact checks in 0.01s" for family, n in counts]
    return ("\n".join(lines + ["all claim families verified exactly"]) + "\n").encode()


@pytest.mark.parametrize("samples", [20, 21])
def test_verification_counts_follow_the_grids(samples):
    counts = dict(checker.verification_family_counts(samples=samples))
    assert counts["combinatorial identities"] == 9 * 8 + 3 * 210 + 5 * 4
    # the grid t/(samples+1) holds 1/2 only for odd samples; m = n skips it
    program = sum(
        len(check_H_positivity(m, n, r, sample_count=samples))
        for r in range(1, 4)
        for n in range(4)
        for m in range(n, 4)
    )
    assert counts["H positivity and convexity witnesses"] == program


def test_check_verification_requires_every_count_and_ok():
    counts = checker.verification_family_counts()
    assert checker.check_verification(verification_text(counts)) == sum(n for _, n in counts)
    wrong = [(f, n + (f == "degenerate triples strict")) for f, n in counts]
    with pytest.raises(checker.CheckError, match="degenerate"):
        checker.check_verification(verification_text(wrong))
    failing = verification_text(counts).replace(b"ok   auxiliary", b"FAIL auxiliary")
    with pytest.raises(checker.CheckError, match="not an ok line"):
        checker.check_verification(failing)


def test_layer_metrics_self_time_and_outermost_inclusive_time():
    trace = {
        "names": ["cli.main", "verifier.checks", "moments.gaussian_moment"],
        "spans": [
            [0, 0.0, 10.0, -1],
            [1, 1.0, 5.0, 0],
            [1, 2.0, 4.0, 1],
            [2, 2.5, 3.5, 2],
            [2, 6.0, 7.0, 0],
        ],
        "counters": {"moments.gaussian_moment.same_cov_calls": 1},
    }
    got = run.layer_metrics(trace)
    assert got["cli.main.self_s"] == 10.0 - 4.0 - 1.0
    assert got["verifier.checks.calls"] == 2
    assert got["verifier.checks.self_s"] == (4.0 - 2.0) + (2.0 - 1.0)
    assert got["verifier.checks.s"] == 4.0
    assert got["moments.gaussian_moment.s"] == 2.0
    assert got["moments.gaussian_moment.same_cov_calls"] == 1
    assert got["trace.spans"] == 5


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
