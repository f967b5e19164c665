"""Benchmark gpi-lab end to end, and per module with --trace 1.

    python3 perfbench/run.py --workload sweep-light --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each pass starts a fresh gpi-lab process the way a user does (sequential,
GPI_LAB_THREADS unset unless --threads is given) and checks its report with
checker.py, which shares no code with gpi_lab.  Passes repeat on the same
inputs made from --seed until --seconds have gone by; pass i gives the
program the seed 1000 * seed + i, so a run covers several input sets.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters of importing gpi_lab.cli and building its parser), run_s (median
pass wall time, process start included), verdicts_per_s and peak_rss_mb (the
program process's own peak from os.wait4 in launch.py).

--trace 1 alternates plain passes with passes under traced.py, and reports
the per-layer metrics of the traced passes (medians) with the tracing
overhead: the median over pairs of traced minus untraced run_s on the same
inputs.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  An operation is one pass; it fails when the program exits nonzero,
and `correct` turns false when a report that exited zero disagrees with the
checker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
VERIFY_SCRIPT = "scripts/run_full_verification.py"
HEAVY_DRAWS = 40
SETUP_SAMPLES = 15
SETUP_SAMPLES_PER_PASS = 2
# passes still running this long after a run's start are killed, so a run
# ends within three minutes even if the program hangs
RUN_LIMIT_S = 150

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import gpi_lab.cli\n"
    "gpi_lab.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("moments.gaussian_moment.calls", "count"),
    ("moments.gaussian_moment.s", "s"),
    ("moments.gaussian_moment.same_cov_calls", "count"),
    ("moments.gaussian_moment.max_result_bits", "bits"),
    ("moments.is_psd.calls", "count"),
    ("moments.is_psd.s", "s"),
    ("moments.random_covariance.calls", "count"),
    ("moments.random_covariance.attempts", "count"),
    ("moments.random_covariance.s", "s"),
    ("core.SplitMix64.draws", "count"),
    ("moments.univariate_even_moment.calls", "count"),
    ("moments.univariate_even_moment.s", "s"),
    ("cli.run_sweep.self_s", "s"),
    ("cli.covariance_hash.calls", "count"),
    ("cli.covariance_hash.s", "s"),
    ("cli.render.s", "s"),
    ("cli.render.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("verifier.build_gamma_polynomials.calls", "count"),
    ("verifier.build_gamma_polynomials.self_s", "s"),
    ("verifier.checks.calls", "count"),
    ("verifier.checks.self_s", "s"),
    ("core.Polynomial.eval.calls", "count"),
    ("core.Polynomial.eval.s", "s"),
    ("core.isolate_root.calls", "count"),
    ("core.isolate_root.s", "s"),
    ("core.Polynomial.mul.calls", "count"),
    ("core.Polynomial.mul.s", "s"),
    ("specialfn.pochhammer.calls", "count"),
    ("specialfn.pochhammer.s", "s"),
    ("specialfn.hyp2f1_terminating.calls", "count"),
    ("specialfn.hyp2f1_terminating.s", "s"),
    ("specialfn.half_binomial.calls", "count"),
    ("specialfn.half_binomial.s", "s"),
    ("identities.checks.calls", "count"),
    ("identities.checks.self_s", "s"),
    ("identities.build_polynomial_L.calls", "count"),
    ("identities.build_polynomial_L.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    """One way of running gpi-lab: `args(seed, out)` gives the program's
    arguments, `check(report, seed)` verifies a report and returns its number
    of exact verdicts."""

    mode: str  # "cli": gpi-lab subcommand; "script": the verification script
    args: Callable[[int, Path], list[str]]
    report_in_file: bool
    check: Callable[[bytes, int], int]
    inputs: str


WORKLOADS = {
    "sweep-light": Workload(
        "cli",
        lambda seed, out: ["sweep", "--seed", str(seed), "--count", "1000", "--q", "4"],
        False,
        lambda report, seed: checker.check_sweep(report, "json", seed, 1000, 4, 2, 2),
        "sweep: 1000 Gram draws, q=4, m,n<=2, JSONL on stdout",
    ),
    "sweep-heavy": Workload(
        "cli",
        lambda seed, out: [
            "sweep", "--seed", str(seed), "--count", str(HEAVY_DRAWS),
            "--m-max", "6", "--n-max", "6", "--format", "csv", "--out", str(out),
        ],
        True,
        lambda report, seed: checker.check_sweep(report, "csv", seed, HEAVY_DRAWS, 3, 6, 6),
        f"sweep: {HEAVY_DRAWS} Gram draws, q=3, m,n<=6, CSV file",
    ),
    "verify-paper": Workload(
        "script",
        lambda seed, out: [VERIFY_SCRIPT, "--seed", str(seed)],
        False,
        lambda report, seed: checker.check_verification(report),
        "run_full_verification.py in full mode (1000+25-draw sweep)",
    ),
    "identities": Workload(
        "cli",
        lambda seed, out: ["identities", "--n-max", "20", "--r-max", "16", "--l-max", "40"],
        False,
        lambda report, seed: checker.check_identities(report, 20, 16, 40),
        "identities --n-max 20 --r-max 16 --l-max 40 (seed-independent)",
    ),
}


@dataclass
class Pass:
    exit_code: int
    run_s: float
    peak_rss_mb: float
    report: bytes
    stderr: bytes


def program_env(threads: int | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GPI_LAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if threads is not None:
        env["GPI_LAB_THREADS"] = str(threads)
    return env


def run_pass(cmd: list[str], env: dict[str, str], work: Path, report_in_file: bool, limit: float) -> Pass:
    """Run one process through launch.py, which times it, reads its own peak
    RSS, and kills it after `limit` seconds."""
    out_path, err_path, report_path = work / "stdout", work / "stderr", work / "report"
    result_path = work / "result"
    report_path.unlink(missing_ok=True)
    launcher = [
        sys.executable, str(BENCH / "launch.py"),
        str(int(limit)), str(result_path), str(out_path), str(err_path),
    ]
    subprocess.run(launcher + cmd, env=env, cwd=ROOT, check=True)
    exit_code, run_s, peak_kib = result_path.read_text().split()
    if report_in_file:
        report = report_path.read_bytes() if report_path.exists() else b""
    else:
        report = out_path.read_bytes()
    return Pass(int(exit_code), float(run_s), int(peak_kib) / 1024, report, err_path.read_bytes())


def program_cmd(workload: Workload, seed: int, work: Path) -> list[str]:
    args = workload.args(seed, work / "report")
    if workload.mode == "cli":
        return [sys.executable, "-m", "gpi_lab", *args]
    return [sys.executable, str(ROOT / args[0]), *args[1:]]


def traced_cmd(workload: Workload, seed: int, work: Path) -> list[str]:
    args = workload.args(seed, work / "report")
    if workload.mode == "script":
        args = [str(ROOT / args[0]), *args[1:]]
    return [sys.executable, str(BENCH / "traced.py"), str(work / "spans.json"), workload.mode, *args]


def setup_sample(env: dict[str, str]) -> float:
    """One fresh interpreter's time to import gpi_lab.cli and build its parser."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Calls, inclusive time (outermost span of a name) and self time per span
    name, plus the tracer's counters."""
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(int)
    for idx, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child_time[idx]
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][3]
        if parent < 0:
            out[f"{name}.s"] += end - start
    out["trace.spans"] = len(spans)
    out.update(trace["counters"])
    return out


class Verifier:
    """Checks every report; a report byte-identical to one already checked
    for the same seed is not recomputed."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.checked: dict[tuple[int, str], int] = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def __call__(self, p: Pass, seed: int) -> None:
        self.attempted += 1
        if p.exit_code != 0:
            self.failed += 1
            print(f"pass exited {p.exit_code}: {p.stderr.decode(errors='replace')[-400:]}", file=sys.stderr)
            return
        key = (seed, hashlib.sha256(p.report).hexdigest())
        if key in self.checked:
            return
        try:
            self.checked[key] = self.workload.check(p.report, seed)
        except (checker.CheckError, ValueError, UnicodeDecodeError) as exc:
            self.correct = False
            self.checked[key] = 0
            print(f"report check failed: {exc}", file=sys.stderr)

    @property
    def verdicts(self) -> int:
        return max(self.checked.values(), default=0)


def pass_seed(seed: int, index: int) -> int:
    """The program's seed on pass `index` of a run with benchmark seed `seed`."""
    return seed * 1000 + index


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: int | None):
    workload = WORKLOADS[name]
    env = program_env(threads)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    verify = Verifier(workload)
    plain: list[Pass] = []
    layers: list[dict[str, float]] = []
    overheads: list[float] = []
    try:
        metrics = {}
        setup: list[float] = []
        if not trace:
            setup_sample(env)  # writes the bytecode cache a user's second run finds
        rounds: list[float] = []
        started = perf_counter()
        deadline = started + seconds
        # a round starts only while half a typical round still fits, so runs
        # end at their deadline on average
        while not rounds or perf_counter() + statistics.median(rounds) / 2 < deadline:
            round_start = perf_counter()
            # set-up samples are spread over the run like the passes, so both
            # see the same phases of a shared machine
            if not trace:
                setup += [setup_sample(env) for _ in range(SETUP_SAMPLES_PER_PASS)]
            s = pass_seed(seed, len(plain))
            p = run_pass(
                program_cmd(workload, s, work), env, work, workload.report_in_file,
                RUN_LIMIT_S - (perf_counter() - started),
            )
            verify(p, s)
            plain.append(p)
            if trace:
                t = run_pass(
                    traced_cmd(workload, s, work), env, work, workload.report_in_file,
                    RUN_LIMIT_S - (perf_counter() - started),
                )
                verify(t, s)
                overheads.append(t.run_s - p.run_s)
                if t.exit_code == 0:
                    layers.append(layer_metrics(json.loads((work / "spans.json").read_text())))
            rounds.append(perf_counter() - round_start)
        if not trace:
            setup += [setup_sample(env) for _ in range(SETUP_SAMPLES - len(setup))]
            metrics["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    run_s = statistics.median(p.run_s for p in plain)
    if trace:
        for metric, unit in PER_LAYER:
            # a count reports an observed value, never the mean of two
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[metric] = median(layer.get(metric, 0) for layer in layers) if layers else 0
        metrics["trace.overhead_s"] = statistics.median(overheads)
        units = dict(PER_LAYER)
    else:
        metrics["run_s"] = run_s
        metrics["verdicts_per_s"] = verify.verdicts / run_s
        metrics["peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in plain)
        units = dict(END_TO_END)
    record = {
        "workload": name,
        "inputs": workload.inputs,
        "seed": seed,
        "pass_seeds": [pass_seed(seed, i) for i in range(len(plain))],
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "gpi_lab_threads": threads,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "verdicts_per_pass": verify.verdicts,
        "pass_run_s": [round(p.run_s, 4) for p in plain],
        "report_sha256": sorted({digest for _, digest in verify.checked}),
    }
    return verify, {m: {"value": metrics[m], "unit": units[m]} for m in units}, record


def git_sha() -> str | None:
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threads", type=int, default=None,
        help="set GPI_LAB_THREADS for the program (unset by default)",
    )
    args = parser.parse_args(argv)
    missing = [p for p in ("src/gpi_lab/cli.py", VERIFY_SCRIPT) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: no gpi-lab source here: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        verify, wl_metrics, record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.threads
        )
        correct &= verify.correct
        attempted += verify.attempted
        failed += verify.failed
        for metric, m in wl_metrics.items():
            print(f"{name:<13} {metric:<42} {m['value']:.6g} {m['unit']}")
        print(f"{name:<13} attempted={verify.attempted} failed={verify.failed} correct={verify.correct}")
        print("record " + json.dumps(record))
        if len(names) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{name}.{metric}": m for metric, m in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
