"""CLI behavior: subcommand outputs, exit codes, report determinism."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest

import gpi_lab
from gpi_lab import cli, specialfn, verifier
from gpi_lab.cli import covariance_hash, main
from gpi_lab.core import Polynomial, SplitMix64
from gpi_lab.moments import CovarianceMatrix, random_covariance

IDENTITIES_DEFAULT_SHA256 = "9145627958bb4e9678a88930b5adb812ea4a3fd1d8a1601268b0f5b2443feaba"
# The concatenated stdout of `poly --which G|H|B` for m, n <= 3 and r <= 3; of
# `check --claim lemma210` on verify's grid (r <= 2, n <= m <= 3); and of
# `check --claim lemma29` for m, n <= 3 and r <= 3, each in the order of
# `POLY_ARGVS`, `LEMMA210_ARGVS` and `LEMMA29_ARGVS`.
POLY_SHA256 = "9843854cf993eac311c1d48b9235653f8f90a027975b90e1ce435b6745b43d12"
LEMMA210_SHA256 = "3c340f79c1aa39172b7510b78123dd469ce36e6a223842a92c27d9b2370a4118"
LEMMA29_SHA256 = "2eb49406c6216d26e12690ef457859ed7ea4d96f2d449e4f3d5f9e0e70cf6744"
# `sweep --seed 7 --count 1000 --q 4` on stdout, and
# `sweep --seed 7 --count 10 --m-max 6 --n-max 6 --format csv --out FILE`.
SWEEP_LIGHT_SHA256 = "a0e311b97a5e3e2613ee0d489878b354f948c82dff6cb3550ad6c4958d76584f"
SWEEP_HEAVY_CSV_SHA256 = "d8a556d407dd8074d2e911679d5fbff89a58b14d91e8d4b2046537bd197d0101"
# `verify --quick` and `verify` (default seed) on stdout, with each line's
# ` in X.XXs` timing removed.
VERIFY_QUICK_SHA256 = "7aed3f409c85f0ee8f7def9e3b440b8068050c68994f1d0196e46feff5888ad9"
VERIFY_SHA256 = "4cd13549f3e662c87b0d1a4b179fa5dcbd638b65d3c01e74f59a47823af596ed"

POLY_ARGVS = [
    ["poly", "--which", which, "--m", str(m), "--n", str(n), "--r", str(r)]
    for which in "GHB"
    for m in range(4)
    for n in range(4)
    for r in range(1, 4)
]
LEMMA210_ARGVS = [
    ["check", "--claim", "lemma210", "--m", str(m), "--n", str(n), "--r", str(r)]
    for r in (1, 2)
    for n in range(4)
    for m in range(4)
    if m >= n
]
LEMMA29_ARGVS = [
    ["check", "--claim", "lemma29", "--m", str(m), "--n", str(n), "--r", str(r)]
    for m in range(4)
    for n in range(4)
    for r in range(1, 4)
]

WEI_JSON = {"dim": 3, "entries": [["1", "1", "1"], ["1", "5", "-3"], ["1", "-3", "5"]]}
# The first 16 hex digits of SHA-256 over "3;1,1,1;1,5,-3;1,-3,5".
WEI_COV_HASH = "01e1ba954bb51e07"
RATIONAL_COV = CovarianceMatrix(
    [["2", "-1/2", "1/3"], ["-1/2", "3/4", "-1/5"], ["1/3", "-1/5", "7/6"]]
)


@pytest.fixture
def wei_cov_file(tmp_path):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(WEI_JSON))
    return str(path)


@pytest.fixture
def pair_cov_file(tmp_path):
    path = tmp_path / "cov2.json"
    path.write_text(json.dumps({"dim": 2, "entries": [["1", "0"], ["0", "1"]]}))
    return str(path)


def gamma_as_B(m, n, r, real=verifier.build_gamma_polynomials):
    """The real G, H for (m, n, r) with B replaced by gamma."""
    return real(m, n, r)._replace(B=Polynomial([0, 1]))


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports_sha256(capsys, argvs: list[list[str]]) -> str:
    """SHA-256 of the stdout of every command in `argvs`, run in order; each must exit 0."""
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode())
    return digest.hexdigest()


def cli_env(buffered: bool) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this gpi_lab, its
    stdout block-buffered (as in a pipe) or not."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def hashlib_cov_hash(cov: CovarianceMatrix) -> str:
    """covariance_hash computed with hashlib, the CLI's canonical string rebuilt here."""
    canon = f"{cov.dim};" + ";".join(",".join(str(x) for x in row) for row in cov.entries)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


@pytest.fixture
def fresh_sha256():
    """The SHA-256 constructor resolved anew inside the test, and again after it."""
    cli._sha256_constructor.cache_clear()
    yield
    cli._sha256_constructor.cache_clear()


def native_sha256(module: str):
    """`module`'s sha256, or None where this Python has no such module."""
    try:
        return importlib.import_module(module).sha256
    except ImportError:
        return None


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this gpi_lab; a hang fails the test."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


@contextlib.contextmanager
def fifo_reader(path: Path, max_lines: int | None = None) -> Iterator[list[str]]:
    """Make a FIFO at `path` and read up to `max_lines` lines from it in a
    thread; yields the list they go to, complete once the block exits."""
    os.mkfifo(path)
    read_fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    hold = os.open(path, os.O_WRONLY)  # no end of file before the block exits
    os.set_blocking(read_fd, True)
    lines: list[str] = []

    def read() -> None:
        with open(read_fd, encoding="utf-8", newline="") as fh:
            lines.extend(itertools.islice(fh, max_lines))

    reader = threading.Thread(target=read)
    reader.start()
    try:
        yield lines
    finally:
        os.close(hold)
        reader.join(timeout=60)


def assert_one_line_error(proc: subprocess.CompletedProcess, code: int, prefix: str) -> None:
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix)
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


class TestCounterexample:
    def test_reports_39_vs_43_and_succeeds(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs"] == "39"
        assert doc["rhs"] == "43"
        assert doc["strong_inequality_refuted"] is True


class TestMoment:
    def test_wei_moment(self, capsys, wei_cov_file):
        code, out, _ = run_cli(capsys, "moment", "--cov", wei_cov_file, "--exps", "2,2,2")
        assert code == 0
        assert out.strip() == "39"

    def test_oracle_option_is_gone(self, capsys, wei_cov_file):
        # The option once ran the pairing enumeration, which exited 3 on a
        # RecursionError at --exps 3000 and never ended at --exps 8,8,8.
        code, out, err = run_cli(
            capsys, "moment", "--cov", wei_cov_file, "--exps", "2,2,2", "--oracle"
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --oracle" in err

    def test_dimension_mismatch_is_usage_error(self, capsys, wei_cov_file):
        code, _, err = run_cli(capsys, "moment", "--cov", wei_cov_file, "--exps", "2,2")
        assert code == 2
        assert "error" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "moment", "--cov", str(tmp_path / "nope.json"), "--exps", "2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        ("text", "exps"),
        [
            (json.dumps({"dim": 1}), "2,2"),
            (json.dumps([1]), "2,2"),
            (json.dumps({"dim": 1, "entries": [["1/0"]]}), "2,2"),
            # json.load raises RecursionError here, which once exited 3.
            ("[" * 100000 + "]" * 100000, "2,2"),
            # int() once read these as dim 2, so the moment printed 1.
            (json.dumps({"dim": 2.9, "entries": [["1", "0"], ["0", "1"]]}), "2,2"),
            (json.dumps({"dim": "2", "entries": [["1", "0"], ["0", "1"]]}), "2,2"),
            # A JSON true once read as the integer 1, so these printed 12 and 1.
            (json.dumps({"dim": True, "entries": [["2"]]}), "4"),
            (json.dumps({"dim": 1, "entries": [[True]]}), "2"),
        ],
        ids=[
            "missing-entries",
            "not-an-object",
            "zero-denominator",
            "deep-nesting",
            "fractional-dim",
            "string-dim",
            "true-dim",
            "true-entry",
        ],
    )
    def test_malformed_covariance_json_is_usage_error(self, capsys, tmp_path, text, exps):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "moment", "--cov", str(path), "--exps", exps)
        assert code == 2
        assert out == ""
        assert err.startswith("gpi-lab: error:") and err.count("\n") == 1

    def test_high_degree_has_no_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "cov1.json"
        path.write_text(json.dumps({"dim": 1, "entries": [["2"]]}))
        code, out, _ = run_cli(capsys, "moment", "--cov", str(path), "--exps", "2000")
        assert code == 0
        assert int(out) == math.prod(range(1, 2000, 2)) * 2**1000  # 1999!! v^1000

    def test_value_past_the_int_string_limit_prints(self, tmp_path):
        # 2999!! (3/7)^1500 has more digits than int-to-str converts by default.
        path = tmp_path / "cov1.json"
        path.write_text(json.dumps({"dim": 1, "entries": [["3/7"]]}))
        proc = run_python(["-m", "gpi_lab", "moment", "--cov", str(path), "--exps", "3000"])
        assert proc.returncode == 0, proc.stderr
        expected = Fraction(math.prod(range(1, 3000, 2)) * 3**1500, 7**1500)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            assert Fraction(proc.stdout) == expected
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_descent_past_the_recursion_limit_is_usage_error(self, tmp_path):
        # Every cross entry of this 46x46 covariance is nonzero: 1035 levels,
        # one frame each.  The RecursionError once exited 3.
        d = 46
        rows = [[d if i == j else 1 for j in range(d)] for i in range(d)]
        path = tmp_path / "dense46.json"
        path.write_text(json.dumps({"dim": d, "entries": rows}))
        argv = ["-m", "gpi_lab", "moment", "--cov", str(path), "--exps", ",".join("2" * d)]
        proc = run_python(argv)
        assert_one_line_error(proc, 2, "gpi-lab: error: 1035 nonzero cross pairs ")
        assert re.search(r"recursion limit of \d+ allows\n$", proc.stderr), proc.stderr
        assert proc.stdout == ""

    def test_non_psd_covariance_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries": [["1", "2"], ["2", "1"]]}))
        code, _, err = run_cli(capsys, "moment", "--cov", str(path), "--exps", "2,2")
        assert code == 2
        assert "PSD" in err


class TestIdentities:
    def test_small_suite_all_hold(self, capsys):
        code, out, err = run_cli(
            capsys, "identities", "--n-max", "2", "--r-max", "2", "--l-max", "3"
        )
        assert code == 0
        verdicts = [json.loads(line) for line in out.splitlines()]
        assert verdicts
        assert all(v["holds"] for v in verdicts)
        names = {v["identity"] for v in verdicts}
        assert names == {
            "symmetric_identity",
            "lemma25_sum",
            "lemma27_product",
            "corollary28_sum",
            "kummer_classical",
            "L_zero_polynomial",
        }
        assert "failed=0" in err

    def test_refuted_identity_exits_1(self, capsys, monkeypatch):
        real = cli.check_symmetric_identity

        def refuted_once(n, r):
            verdict = real(n, r)
            return verdict._replace(lhs=verdict.lhs + 1) if (n, r) == (1, 2) else verdict

        monkeypatch.setattr(cli, "check_symmetric_identity", refuted_once)
        code, out, err = run_cli(
            capsys, "identities", "--n-max", "2", "--r-max", "2", "--l-max", "2"
        )
        assert code == 1
        assert "failed=1" in err
        refuted = [v for v in map(json.loads, out.splitlines()) if not v["holds"]]
        assert [(v["identity"], v["params"]) for v in refuted] == [
            ("symmetric_identity", {"n": 1, "r": 2})
        ]

    @pytest.mark.parametrize(
        "ranges",
        [("-1", "1", "1"), ("0", "0", "1"), ("0", "1", "0"), ("-1", "0", "0")],
        ids=["n-max", "r-max", "l-max", "all"],
    )
    def test_empty_suite_is_usage_error(self, capsys, ranges):
        # Before the check, a suite of zero identities printed total=0 and exited 0.
        n_max, r_max, l_max = ranges
        code, out, err = run_cli(
            capsys, "identities", "--n-max", n_max, "--r-max", r_max, "--l-max", l_max
        )
        assert (code, out) == (2, "")
        assert err.startswith("gpi-lab: error: need n_max >= 0") and err.count("\n") == 1

    def test_default_report_bytes_are_pinned(self, capsys):
        # A speed-up that changes any report byte is a bug.
        code, out, _ = run_cli(capsys, "identities")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == IDENTITIES_DEFAULT_SHA256


class TestCheck:
    def test_prop21(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--claim", "prop21", "--m", "1", "--n", "2", "--r", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["lhs"], doc["rhs"]) == ("24", "18")

    def test_thm22_equality_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--claim", "thm22", "--m", "0", "--n", "0", "--r", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["equality"] is True
        assert doc["equality_condition_met"] is True

    def test_equality_off_its_condition_is_a_refutation(self, capsys, monkeypatch):
        # m = n = 1 with equal variances is an equality; a verdict that states
        # its condition unmet there does not hold.
        real = cli.check_thm22
        monkeypatch.setattr(
            cli, "check_thm22", lambda *args: real(*args)._replace(equality_condition_met=False)
        )
        code, out, _ = run_cli(
            capsys, "check", "--claim", "thm22", "--m", "1", "--n", "1", "--r", "1"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["equality"] is True
        assert doc["holds"] is False

    def test_cor23_requires_cov(self, capsys):
        code, _, err = run_cli(capsys, "check", "--claim", "cor23")
        assert code == 2
        assert "--cov" in err

    def test_cor23(self, capsys, pair_cov_file):
        code, out, _ = run_cli(
            capsys, "check", "--claim", "cor23", "--m", "0", "--n", "0", "--cov", pair_cov_file
        )
        assert code == 0
        assert json.loads(out)["equality"] is True

    def test_lemma29(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--claim", "lemma29", "--m", "2", "--n", "1", "--r", "2"
        )
        assert code == 0
        assert json.loads(out) == {
            "claim": "lemma29",
            "params": {"m": 2, "n": 1, "r": 2},
            "lhs": "0",
            "rhs": "0",
            "holds": True,
            "equality": True,
            "equality_condition_met": None,
        }

    def test_lemma210(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--claim", "lemma210", "--m", "1", "--n", "1", "--r", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["min_left_of_half"] is True

    def test_failed_proof_step_is_a_refutation(self, capsys, monkeypatch):
        # B = gamma has B' = 1 on [0, 1], so lemma 2.10 finds no minimum.
        monkeypatch.setattr(verifier, "build_gamma_polynomials", gamma_as_B)
        code, out, err = run_cli(
            capsys, "check", "--claim", "lemma210", "--m", "1", "--n", "1", "--r", "1"
        )
        assert code == 1
        assert err == ""
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["bracket"] is None

    def test_lemma31(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--claim", "lemma31", "--m", "1", "--n", "1",
            "--a", "1", "--sigma2", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["lhs"], doc["rhs"]) == ("6", "2")
        assert doc["equality_condition_met"] is False  # a degenerate triple is never diagonal

    def test_thm32_and_main(self, capsys, wei_cov_file):
        code, out, _ = run_cli(
            capsys, "check", "--claim", "thm32", "--m", "1", "--n", "1", "--cov", wei_cov_file
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rhs"] == "25"
        assert doc["equality_condition_met"] is False

        code, out, _ = run_cli(
            capsys, "check", "--claim", "main", "--m", "1", "--cov", wei_cov_file
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["equality_condition_met"] is False

    @pytest.mark.parametrize(
        "argvs, expected",
        [(LEMMA210_ARGVS, LEMMA210_SHA256), (LEMMA29_ARGVS, LEMMA29_SHA256)],
        ids=["lemma210", "lemma29"],
    )
    def test_report_bytes_are_pinned(self, capsys, argvs, expected):
        assert reports_sha256(capsys, argvs) == expected

    def test_bad_parameters_are_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--claim", "prop21", "--m", "0")
        assert code == 2

    def test_main_names_only_its_own_exponent(self, capsys, wei_cov_file):
        # `main` takes no n, so its error must not name one.
        code, out, err = run_cli(
            capsys, "check", "--claim", "main", "--m", "0", "--cov", wei_cov_file
        )
        assert (code, out) == (2, "")
        assert err == "gpi-lab: error: need m >= 1, got m=0\n"
        assert "n=" not in err


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeChecks:
    def test_every_example_holds(self, capsys, pair_cov_file, wei_cov_file):
        files = {"cov2.json": pair_cov_file, "cov3.json": wei_cov_file}
        claims = set()
        for line in README.read_text(encoding="utf-8").splitlines():
            if not line.strip().startswith("gpi-lab check "):
                continue
            argv = [files.get(word, word) for word in shlex.split(line)[1:]]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), line
            doc = json.loads(out)
            assert doc["holds"] is True, line
            claims.add(argv[argv.index("--claim") + 1])
        assert claims == set(cli.CHECKS)


def readme_cli_commands() -> list[str]:
    """Every `gpi-lab ...` command in README's CLI section, continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    joined = section.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("gpi-lab ")]


class TestReadmeCommands:
    def test_every_command_parses(self):
        commands = readme_cli_commands()
        assert any("--out report.csv" in command for command in commands)
        assert {shlex.split(command)[1] for command in commands} == {
            "verify", "counterexample", "moment", "identities", "check", "poly", "hyp", "sweep"
        }
        parser = cli.build_parser()
        for command in commands:
            argv = shlex.split(command.split("#", 1)[0])[1:]
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")


def readme_quick_start() -> str:
    """The code block of README's library quick start."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeLibrary:
    def test_quick_start_results_match_its_comments(self):
        # Each expression line's repr is what its comment shows, up to any ':'.
        namespace: dict = {}
        shown = []
        for line in readme_quick_start().splitlines():
            code, _, comment = line.partition("#")
            try:
                expression = compile(code, "README.md", "eval")
            except SyntaxError:
                exec(code, namespace)
                continue
            result = repr(eval(expression, namespace))
            assert result == comment.split(":", 1)[0].strip(), line
            shown.append(result)
        assert shown == ["Fraction(39, 1)", "(True, False)"]

    def test_namespace_holds_only_the_documented_names(self):
        names = {
            name
            for name, value in vars(gpi_lab).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert names == {"CovarianceMatrix", "gaussian_moment", "check_main", "check_H_positivity"}
        pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert f'\nversion = "{gpi_lab.__version__}"\n' in pyproject


class TestPoly:
    def test_G_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--which", "G", "--m", "0", "--n", "0", "--r", "1")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["3", "-8", "8"]

    def test_L_is_empty(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--which", "L", "--r", "4")
        assert code == 0
        assert json.loads(out)["coefficients"] == []

    def test_B_matches_G_scaling(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--which", "B", "--m", "0", "--n", "0", "--r", "1")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["1", "-8/3", "8/3"]

    def test_gamma_report_bytes_are_pinned(self, capsys):
        assert reports_sha256(capsys, POLY_ARGVS) == POLY_SHA256


class TestHyp:
    def test_evaluate(self, capsys):
        code, out, _ = run_cli(capsys, "hyp", "--a=-2", "--b=-2", "--c=-3/2", "--z=1/2")
        assert code == 0
        assert json.loads(out)["value"] == "1/3"

    def test_pfaff_and_contiguous(self, capsys):
        code, out, _ = run_cli(
            capsys, "hyp", "--a=-2", "--b=1/2", "--c=-7/2", "--z=1/4",
            "--pfaff", "--contiguous", "R38",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pfaff_holds"] is True
        assert doc["contiguous"] == {"relation": "R38", "holds": True}

    @pytest.mark.parametrize("relation", ["R38", "R32", "R40"])
    def test_skewed_series_refutes_both_laws(self, capsys, monkeypatch, relation):
        # Every series but F(a, b, c; z) itself is off by one.
        real = specialfn.hyp2f1_terminating
        base = (Fraction(-2), Fraction(1, 2), Fraction(-7, 2), Fraction(1, 4))

        def skewed(*params):
            return real(*params) + (0 if params == base else 1)

        monkeypatch.setattr(specialfn, "hyp2f1_terminating", skewed)
        code, out, err = run_cli(
            capsys, "hyp", "--a=-2", "--b=1/2", "--c=-7/2", "--z=1/4",
            "--pfaff", "--contiguous", relation,
        )
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["pfaff_holds"] is False
        assert doc["contiguous"] == {"relation": relation, "holds": False}

    def test_non_terminating_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "hyp", "--a=1/2", "--b=1", "--c=1", "--z=0")
        assert code == 2
        assert "nonpositive integer" in err

    @pytest.mark.parametrize("a", ["-2", "0"])
    def test_pole_behind_a_zero_coefficient_is_usage_error(self, capsys, a):
        # At c = 0, R38's term -c F(a-1, b, c) is 0 times a pole: the relation is
        # undefined there, not refuted.
        code, out, err = run_cli(
            capsys, "hyp", f"--a={a}", "--b=1", "--c=0", "--z=1/2", "--contiguous", "R38"
        )
        assert (code, out) == (2, "")
        assert err.startswith("gpi-lab: error: lower parameter c=0 hits a pole")

    def test_zero_coefficient_drops_a_non_terminating_series(self, capsys):
        # R32's a F(a+1) at a = 0: F(1, 1, 1) does not terminate and is not needed.
        code, out, _ = run_cli(
            capsys, "hyp", "--a=0", "--b=1", "--c=1", "--z=1/2", "--contiguous", "R32"
        )
        assert code == 0
        assert json.loads(out)["contiguous"] == {"relation": "R32", "holds": True}


class TestSweep:
    def test_records_hold_and_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--seed", "7", "--count", "10", "--q", "3",
            "--m-max", "2", "--n-max", "2",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 40
        assert all(rec["holds"] for rec in records)
        assert "records=40" in err and "failures=0" in err

    def test_refuted_draw_exits_1(self, capsys, monkeypatch):
        real = cli.check_thm32
        calls = []

        def refuted_once(m, n, cov):
            verdict = real(m, n, cov)
            calls.append((m, n))
            return verdict._replace(rhs=verdict.lhs + 1) if len(calls) == 6 else verdict

        monkeypatch.setattr(cli, "check_thm32", refuted_once)
        code, out, err = run_cli(capsys, "sweep", "--seed", "7", "--count", "3")
        assert code == 1
        assert "failures=1" in err
        refuted = [rec for rec in map(json.loads, out.splitlines()) if not rec["holds"]]
        assert [(rec["draw"], rec["m"], rec["n"]) for rec in refuted] == [(1, 1, 2)]

    def test_diagonal_draws_hit_equality(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--seed", "3", "--count", "4", "--q", "1", "--diagonal"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(rec["equality"] for rec in records)

    def test_byte_identical_reports(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for path in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "sweep", "--seed", "11", "--count", "5", "--q", "4",
                "--out", str(path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_and_json_carry_identical_data(self, tmp_path, capsys):
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        base = ["sweep", "--seed", "13", "--count", "4", "--q", "3"]
        assert run_cli(capsys, *base, "--format", "json", "--out", str(json_path))[0] == 0
        assert run_cli(capsys, *base, "--format", "csv", "--out", str(csv_path))[0] == 0

        json_records = [json.loads(line) for line in json_path.read_text().splitlines()]
        csv_lines = csv_path.read_text().splitlines()
        header = csv_lines[0].split(",")
        assert header == list(cli.SWEEP_FIELDS)
        for rec, line in zip(json_records, csv_lines[1:], strict=True):
            cells = line.split(",")
            for field, cell in zip(header, cells, strict=True):
                value = rec[field]
                if isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                else:
                    assert cell == str(value)

    def test_light_report_bytes_are_pinned(self, capsys):
        # A speed-up that changes any report byte is a bug.
        code, out, _ = run_cli(capsys, "sweep", "--seed", "7", "--count", "1000", "--q", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_LIGHT_SHA256

    def test_heavy_csv_bytes_are_pinned(self, tmp_path, capsys):
        path = tmp_path / "heavy.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--seed", "7", "--count", "10", "--m-max", "6", "--n-max", "6",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_HEAVY_CSV_SHA256

    def test_memory_does_not_grow_with_the_count(self, tmp_path, capsys):
        def peak(count: int) -> int:
            argv = [
                "sweep", "--seed", "7", "--count", str(count),
                "--format", "csv", "--out", str(tmp_path / "r.csv"),
            ]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(40)  # fills the moment engine's caches
        small = peak(40)
        assert peak(400) < 1.5 * small

    def test_internal_error_keeps_the_earlier_report(self, tmp_path, capsys, monkeypatch):
        real = cli.check_thm32
        calls = []

        def broken_on_draw_2(m, n, cov):
            calls.append((m, n))
            if len(calls) == 9:  # m, n <= 2: four checks per draw
                raise RuntimeError("draw 2")
            return real(m, n, cov)

        monkeypatch.setattr(cli, "check_thm32", broken_on_draw_2)
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier report\n")
        code, out, err = run_cli(
            capsys, "sweep", "--seed", "7", "--count", "5", "--out", str(path)
        )
        assert (code, out) == (3, "")
        assert err == "gpi-lab: internal error: RuntimeError: draw 2\n"
        assert path.read_bytes() == b"earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_out_replaced_by_a_complete_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier report\n")
        base = ["sweep", "--seed", "7", "--count", "3"]
        code, stdout_report, _ = run_cli(capsys, *base)
        assert run_cli(capsys, *base, "--out", str(path))[:2] == (code, "")
        assert path.read_text() == stdout_report
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    @pytest.mark.parametrize(
        "name, error",
        [
            ("missing/report.json", "[Errno 2] No such file or directory"),
            ("dir", "[Errno 21] Is a directory"),
        ],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out_fails_before_any_draw(self, tmp_path, capsys, monkeypatch, name, error):
        monkeypatch.setattr(cli, "sweep_draws", lambda config: pytest.fail("drew"))
        (tmp_path / "dir").mkdir()
        path = tmp_path / name
        code, out, err = run_cli(
            capsys, "sweep", "--seed", "7", "--count", "3", "--out", str(path)
        )
        assert (code, out) == (2, "")
        assert err == f"gpi-lab: error: {error}: {str(path)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    def test_replaced_out_keeps_its_mode(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier report\n")
        path.chmod(0o640)
        assert main(["sweep", "--seed", "7", "--count", "3", "--out", str(path)]) == 0
        assert path.read_text().startswith('{"draw": 0,')
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    def test_linked_out_is_written_in_place(self, tmp_path, capsys, link):
        # Replacing the path would cut the link; the report must reach the linked file.
        target = tmp_path / "target.json"
        target.write_bytes(b"earlier report\n")
        path = tmp_path / "report.json"
        if link == "symlink":
            path.symlink_to(target)
        else:
            os.link(target, path)
        base = ["sweep", "--seed", "7", "--count", "3"]
        code, stdout_report, _ = run_cli(capsys, *base)
        assert run_cli(capsys, *base, "--out", str(path))[:2] == (code, "")
        assert target.read_text() == stdout_report
        assert path.is_symlink() == (link == "symlink")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "target.json"]

    def test_fifo_out_stays_a_fifo(self, tmp_path, capsys):
        # A FIFO stands in for any non-regular target, such as a device.
        path = tmp_path / "report.fifo"
        base = ["sweep", "--seed", "7", "--count", "3"]
        code, stdout_report, _ = run_cli(capsys, *base)
        with fifo_reader(path) as lines:
            assert run_cli(capsys, *base, "--out", str(path))[:2] == (code, "")
        assert "".join(lines) == stdout_report
        assert stat.S_ISFIFO(path.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]

    def test_closed_fifo_out_is_one_usage_error(self, tmp_path, capsys):
        # The broken pipe is the report's, not stdout's: stdout stays usable.
        path = tmp_path / "report.fifo"
        with fifo_reader(path, max_lines=1) as lines:
            code, out, err = run_cli(
                capsys, "sweep", "--seed", "1", "--count", "3000", "--out", str(path)
            )
        assert json.loads(lines[0])["draw"] == 0
        assert (code, out, err) == (2, "", "gpi-lab: error: [Errno 32] Broken pipe\n")
        print("stdout still open")
        assert capsys.readouterr().out == "stdout still open\n"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_one_usage_error(self, buffered):
        # As in `gpi-lab sweep --count 3000 | head -n 1`.
        env = cli_env(buffered)
        argv = [sys.executable, "-m", "gpi_lab", "sweep", "--seed", "1", "--count", "3000"]
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            assert json.loads(proc.stdout.readline())["draw"] == 0
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert code == 2
        assert err == "gpi-lab: error: [Errno 32] Broken pipe\n"

    def test_report_lost_at_exit_is_one_usage_error(self):
        # A short buffered report is only flushed at exit; its reader is already gone.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = cli_env(buffered=True)
        argv = [sys.executable, "-m", "gpi_lab", "poly", "--which", "G", "--m", "1", "--n", "1"]
        try:
            proc = subprocess.run(
                argv, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "gpi-lab: error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["verify", "--quick"],
            ["identities", "--n-max", "2", "--r-max", "2", "--l-max", "2"],
            ["sweep", "--seed", "1", "--count", "2"],
            ["sweep", "--seed", "1", "--count", "2", "--format", "csv", "--out", "{out}"],
        ],
        ids=["import", "verify", "identities", "sweep-json", "sweep-csv-out"],
    )
    def test_no_command_loads_openssl(self, tmp_path, argv):
        # Covariance hashes use CPython's own SHA-256; hashlib would map OpenSSL.
        argv = [arg.format(out=tmp_path / "sweep.csv") for arg in argv]
        probe = (
            "import sys, gpi_lab.cli as cli; "
            f"argv = {argv!r}; "
            "code = cli.main(argv) if argv else 0; "
            "print(sorted({'_hashlib', '_ssl'} & set(sys.modules))); "
            "sys.exit(code)"
        )
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_import_leaves_process_pool_unloaded(self):
        # Sweeps run in this process; importing the CLI loads no process pool.
        probe = (
            "import sys, gpi_lab.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)"
        )
        assert run_python(["-c", probe]).returncode == 0

    def test_import_leaves_dataclasses_and_oracles_unloaded(self):
        # Values are NamedTuples or plain classes, the CLI runs no oracle, and
        # CSV lines are joined by hand.
        probe = (
            "import sys, gpi_lab.cli; "
            "print(sorted({'csv', 'dataclasses', 'gpi_lab._pairing'} & set(sys.modules)))"
        )
        proc = run_python(["-c", probe])
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    @pytest.mark.parametrize("draws", [["--diagonal"], []], ids=["diagonal", "gram"])
    def test_nonpositive_q_is_usage_error(self, draws):
        # Before the check, a diagonal draw redrew randint(0, 0) forever.
        argv = ["sweep", "--seed", "1", "--count", "1", "--q", "0", *draws]
        proc = run_python(["-m", "gpi_lab", *argv])
        assert_one_line_error(proc, 2, "gpi-lab: error: q must be >= 1, got 0")

    @pytest.mark.parametrize(
        "draws", [["--diagonal"], [], ["--format", "csv"]], ids=["diagonal", "gram", "csv"]
    )
    @pytest.mark.parametrize("q", [str(2**63), str(10**20)])
    def test_q_beyond_64_bits_is_usage_error(self, draws, q):
        # Before the check, randint's rejection limit was 0 and the draw never ended.
        argv = ["sweep", "--seed", "1", "--count", "1", "--q", q, *draws]
        proc = run_python(["-m", "gpi_lab", *argv])
        assert proc.stdout == ""
        assert_one_line_error(proc, 2, f"gpi-lab: error: range [-{q}, {q}] holds more than 2^64")

    def test_largest_q_within_64_bits_draws(self, capsys):
        q = str(2**63 - 1)
        code, out, _ = run_cli(capsys, "sweep", "--seed", "1", "--count", "1", "--q", q)
        assert code == 0 and out.count("\n") == 4

    def test_zero_count_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--seed", "1", "--count", "0")
        assert code == 2
        assert "count" in err

    @pytest.mark.parametrize("bound", ["--m-max", "--n-max"])
    def test_empty_exponent_range_is_usage_error(self, capsys, bound):
        # Before the check, a sweep of zero records wrote an empty report and exited 0.
        code, out, err = run_cli(capsys, "sweep", "--seed", "1", "--count", "2", bound, "0")
        assert (code, out) == (2, "")
        assert err.startswith("gpi-lab: error: need m_max, n_max >= 1") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"count": -3}, "count must be >= 1, got -3"),
            ({"q": 0}, "q must be >= 1, got 0"),
            ({"n_max": 0}, "need m_max, n_max >= 1, got m_max=2, n_max=0"),
        ],
        ids=["count", "q", "n_max"],
    )
    def test_run_sweep_checks_its_config(self, fields, message):
        config = cli.SweepConfig(**{"seed": 1, "count": 1, **fields})
        with pytest.raises(ValueError) as info:
            cli.run_sweep(config)
        assert str(info.value) == message

    def test_sweep_config_is_immutable(self):
        config = cli.SweepConfig(seed=1, count=2)
        with pytest.raises(AttributeError):
            config.count = 3
        assert config == cli.SweepConfig(1, 2, q=3, m_max=2, n_max=2, diagonal=False)

    def test_covariance_hash_is_stable(self):
        # A literal pin: any change to the canonical string shows here.
        assert covariance_hash(CovarianceMatrix.from_json(WEI_JSON)) == WEI_COV_HASH

    def test_covariance_hash_matches_hashlib(self):
        gen = SplitMix64(11)
        covs = [random_covariance(gen, 3, 4) for _ in range(200)]
        covs += [cli._diagonal_covariance(gen, 4) for _ in range(25)]
        covs.append(RATIONAL_COV)
        for cov in covs:
            assert covariance_hash(cov) == hashlib_cov_hash(cov)

    @pytest.mark.parametrize(
        "blocked", [(), ("_sha2",), ("_sha2", "_sha256")], ids=["native", "no-sha2", "neither"]
    )
    def test_every_sha256_route_gives_the_same_digest(self, monkeypatch, fresh_sha256, blocked):
        # The first of _sha2 and _sha256 this Python has and the test leaves, else hashlib.
        natives = [native_sha256(name) for name in ("_sha2", "_sha256") if name not in blocked]
        expected = next(filter(None, natives), hashlib.sha256)
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        assert covariance_hash(CovarianceMatrix.from_json(WEI_JSON)) == WEI_COV_HASH
        assert covariance_hash(RATIONAL_COV) == hashlib_cov_hash(RATIONAL_COV)
        assert cli._sha256_constructor() is expected

    def test_sha2_is_preferred_on_every_python(self, monkeypatch, fresh_sha256):
        sha2 = types.ModuleType("_sha2")
        sha2.sha256 = lambda data: hashlib.sha256(data)
        monkeypatch.setitem(sys.modules, "_sha2", sha2)
        assert cli._sha256_constructor() is sha2.sha256

    def test_sha256_is_resolved_once(self, fresh_sha256):
        for _ in range(3):
            covariance_hash(RATIONAL_COV)
        info = cli._sha256_constructor.cache_info()
        assert (info.misses, info.hits) == (1, 2)


VERIFY_QUICK_COUNTS = [
    ("counterexample (39 < 43)", 1),
    ("combinatorial identities", 144),
    ("auxiliary polynomial L == 0", 4),
    ("moment/hypergeometric bridge", 18),
    ("H positivity and convexity witnesses", 486),
    ("stationary-point certificates (B_{m+1} vs B_m)", 12),
    ("independent-pair inequality grids", 396),
    ("degenerate triples strict", 60),
    ("randomized theorem sweep", 500),
]

FAMILY_LINE = re.compile(r"ok   (.+): (\d+) exact checks in \d+\.\d\ds")


def assert_only_family_fails(out: str, index: int, fail_line: str) -> None:
    """`verify --quick` stdout in which family `index` fails with `fail_line`
    and every other family passes."""
    lines = out.splitlines()
    assert lines[index] == fail_line
    others = lines[:index] + lines[index + 1 : 9]
    assert [FAMILY_LINE.fullmatch(line)[1] for line in others] == [
        name for i, (name, _) in enumerate(VERIFY_QUICK_COUNTS) if i != index
    ]
    assert lines[9:] == ["1 family FAILED"]


class TestVerify:
    def test_quick_run_verifies_every_family(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick")
        assert code == 0
        *family_lines, last = out.splitlines()
        counts = []
        for line in family_lines:
            match = FAMILY_LINE.fullmatch(line)
            assert match, line
            counts.append((match[1], int(match[2])))
        assert counts == VERIFY_QUICK_COUNTS
        assert last == "all claim families verified exactly"
        assert err == ""

    def test_seed_reaches_the_sweep(self, capsys, monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "sweep_draws", lambda config: configs.append(config) or [])
        for mode, gram_count in ((["--quick"], 100), ([], 1000)):
            configs.clear()
            code, out, _ = run_cli(capsys, "verify", *mode, "--seed", "5")
            assert code == 0
            assert [(c.seed, c.count, c.diagonal) for c in configs] == [
                (5, gram_count, False),
                (6, 25, True),
            ]
            assert "ok   randomized theorem sweep: 0 exact checks" in out

    def test_false_verdict_fails_exactly_its_family(self, capsys, monkeypatch):
        real = cli.check_lemma29

        def refuted_once(m, n, r):
            verdict = real(m, n, r)
            if (m, n, r) == (1, 2, 1):
                return verdict._replace(lhs=Fraction(1))
            return verdict

        monkeypatch.setattr(cli, "check_lemma29", refuted_once)
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 1
        assert_only_family_fails(
            out, 3, "FAIL moment/hypergeometric bridge: 1 of 18 exact checks failed"
        )

    @pytest.mark.parametrize("check", ["check_thm22", "check_cor23"])
    def test_equality_off_its_condition_fails_the_grids(self, capsys, monkeypatch, check):
        # The verdict still holds; only its equality no longer matches the
        # stated condition (m = n and a2 = b2, or m = n and E[ZW] = 0).
        real, calls = getattr(cli, check), itertools.count()

        def flipped_once(*args):
            verdict = real(*args)
            if next(calls) == 0:
                assert verdict.holds and verdict.equality == verdict.equality_condition_met
                return verdict._replace(equality_condition_met=not verdict.equality_condition_met)
            return verdict

        monkeypatch.setattr(cli, check, flipped_once)
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 1
        assert_only_family_fails(
            out, 6, "FAIL independent-pair inequality grids: 1 of 396 exact checks failed"
        )

    def test_strict_diagonal_draw_fails_the_sweep(self, capsys, monkeypatch):
        # Independent coordinates must give equality in Thm 3.2, not just >=.
        real = cli.sweep_draws

        def one_strict_diagonal_verdict(config):
            for idx, cov, verdicts in real(config):
                if config.diagonal and idx == 0:
                    m, n, v = verdicts[0]
                    verdicts = [(m, n, v._replace(lhs=v.lhs + 1)), *verdicts[1:]]
                yield idx, cov, verdicts

        monkeypatch.setattr(cli, "sweep_draws", one_strict_diagonal_verdict)
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 1
        assert_only_family_fails(
            out, 8, "FAIL randomized theorem sweep: 1 of 500 exact checks failed"
        )

    def test_equal_gram_draw_fails_the_sweep(self, capsys, monkeypatch):
        # A Gram draw is not diagonal, so Thm 3.2 must be strict there.
        real = cli.sweep_draws

        def one_equal_gram_verdict(config):
            for idx, cov, verdicts in real(config):
                if not config.diagonal and idx == 0:
                    m, n, v = verdicts[0]
                    assert v.holds and v.equality_condition_met is False
                    verdicts = [(m, n, v._replace(lhs=v.rhs)), *verdicts[1:]]
                yield idx, cov, verdicts

        monkeypatch.setattr(cli, "sweep_draws", one_equal_gram_verdict)
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 1
        assert_only_family_fails(
            out, 8, "FAIL randomized theorem sweep: 1 of 500 exact checks failed"
        )

    def test_wrong_counterexample_value_fails_its_family(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "counterexample_wei", lambda: (Fraction(39), Fraction(44)))
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 1
        assert_only_family_fails(
            out, 0, "FAIL counterexample (39 < 43): 1 of 1 exact checks failed"
        )

    @pytest.mark.parametrize(
        "mode, expected",
        [(["--quick"], VERIFY_QUICK_SHA256), ([], VERIFY_SHA256)],
        ids=["quick", "full"],
    )
    def test_report_bytes_are_pinned(self, capsys, mode, expected):
        code, out, err = run_cli(capsys, "verify", *mode)
        assert (code, err) == (0, "")
        untimed, timings = re.subn(r" in \d+\.\d+s$", "", out, flags=re.MULTILINE)
        assert timings == len(VERIFY_QUICK_COUNTS)
        assert hashlib.sha256(untimed.encode()).hexdigest() == expected

    def test_failed_proof_step_fails_its_family(self, capsys, monkeypatch):
        monkeypatch.setattr(verifier, "build_gamma_polynomials", gamma_as_B)
        code, out, err = run_cli(capsys, "verify", "--quick")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert lines[5] == (
            "FAIL stationary-point certificates (B_{m+1} vs B_m): 12 of 12 exact checks failed"
        )
        assert all(FAMILY_LINE.fullmatch(line) for line in lines[:5] + lines[6:9])
        assert lines[9:] == ["1 family FAILED"]

    def test_sweep_count_is_not_an_option(self, capsys):
        # `gpi-lab sweep --count` runs a longer sweep; verify's is fixed.
        code, out, err = run_cli(capsys, "verify", "--sweep-count", "7")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --sweep-count 7" in err

    def test_failure_survives_optimized_mode(self):
        # -O strips assert statements; verdicts must not depend on them.
        probe = (
            "import sys; import gpi_lab.cli as cli; "
            "sys.flags.optimize or sys.exit(99); "
            "cli.check_lemma27 = lambda l, r: cli.InequalityVerdict('x', {}, 0, 1, '=='); "
            "sys.exit(cli.main(['verify', '--quick']))"
        )
        proc = run_python(["-O", "-c", probe])
        assert proc.returncode == 1, proc.stderr
        assert "FAIL combinatorial identities: 36 of 144 exact checks failed\n" in proc.stdout
        assert proc.stdout.endswith("1 family FAILED\n")

    def test_script_is_a_shim_for_verify(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_full_verification.py"
        proc = run_python([str(script), "--quick"])
        assert proc.returncode == 0, proc.stderr
        assert "ok   randomized theorem sweep: 500 exact checks" in proc.stdout
        assert proc.stdout.endswith("all claim families verified exactly\n")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--claim", "prop21", "--a2", "1/0"],
            ["hyp", "--a", "0", "--b", "1", "--c", "1", "--z", "1/0"],
        ],
        ids=["check", "hyp"],
    )
    def test_zero_denominator_is_usage_error(self, argv):
        assert_one_line_error(run_python(["-m", "gpi_lab", *argv]), 2, "gpi-lab: error:")

    def test_lemma210_width_is_not_an_option(self, capsys):
        # The bracket width is verifier.LEMMA210_WIDTH for every caller.
        code, out, err = run_cli(capsys, "check", "--claim", "lemma210", "--width", "1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --width 1" in err

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "counterexample_wei", broken)
        for argv in (["counterexample"], ["verify", "--quick"]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3
            assert err == "gpi-lab: internal error: RuntimeError: boom\n"

    def test_division_bug_is_internal_error(self, capsys, monkeypatch):
        # Only input errors exit 2; a ZeroDivisionError can only be a bug.
        def broken():
            return 1 // 0

        monkeypatch.setattr(cli, "counterexample_wei", broken)
        code, out, err = run_cli(capsys, "counterexample")
        assert (code, out) == (3, "")
        assert err.startswith("gpi-lab: internal error: ZeroDivisionError:")
        assert err.count("\n") == 1

    def test_bad_exponent_list(self, capsys, wei_cov_file):
        code, _, err = run_cli(capsys, "moment", "--cov", wei_cov_file, "--exps", "2,x,2")
        assert code == 2
        assert "exponent" in err
