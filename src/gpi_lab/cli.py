"""Command-line front end: moments, identity suites, claim checks, sweeps.

Every report renders rationals as "p/q" strings, never as decimals.  Exit
codes: 0 when every verdict holds, 1 when at least one claim is refuted, 2
for usage or input errors, and 3 for an internal error (any other exception),
so a crash never reads as a refutation.  Identical configurations produce
byte-identical reports; the only randomness source is the seeded generator.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import stat
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Polynomial, SplitMix64, format_rational
from .identities import (
    build_polynomial_L,
    check_corollary28,
    check_kummer_classical,
    check_lemma25,
    check_lemma27,
    check_symmetric_identity,
)
from .moments import CovarianceMatrix, gaussian_moment, random_covariance
from .specialfn import (
    CONTIGUOUS_RELATIONS,
    contiguous_check,
    hyp2f1_terminating,
    pfaff_check,
)
from .verifier import (
    InequalityVerdict,
    StationaryPointCertificate,
    build_gamma_polynomials,
    check_H_positivity,
    check_cor23,
    check_lemma29,
    check_lemma210,
    check_lemma31,
    check_main,
    check_prop21,
    check_thm22,
    check_thm32,
    counterexample_wei,
)

KUMMER_DEFAULT_BS = ("1/3", "1/2", "3/2", "7/3")
KUMMER_R_MAX = 5


class SweepConfig(NamedTuple):
    """Deterministic randomized-sweep parameters; equal configs replay byte-identically."""

    seed: int
    count: int
    q: int = 3
    m_max: int = 2
    n_max: int = 2
    diagonal: bool = False


def _load_covariance(path: str) -> CovarianceMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"covariance JSON in {path} nests too deeply") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"covariance JSON in {path}: {exc}") from None
    return CovarianceMatrix.from_json(doc)


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad exponent list {text!r}: {exc}") from None


@functools.cache
def _sha256_constructor() -> Callable:
    """CPython's own SHA-256 (`_sha2` on 3.12+, `_sha256` before); hashlib,
    which loads OpenSSL's libcrypto, only on a build with neither.  Cached,
    so it is resolved once per process, on the first hash: a failed import
    costs about 90 us, and only sweep reports hash."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def covariance_hash(cov: CovarianceMatrix) -> str:
    canon = f"{cov.dim};" + ";".join(
        ",".join(format_rational(x) for x in row) for row in cov.entries
    )
    return _sha256_constructor()(canon.encode("ascii")).hexdigest()[:16]


def _open_report(path: str):
    """Open `path` for a report.  Returns the file and, when the report goes
    through `<path>.partial` to replace `path` once complete, that name."""
    if not path:  # "" + ".partial" would name a file in the working directory
        raise ValueError("report path is empty")
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    # Only a missing path, or a plain writable file with no second hard link,
    # is replaced; a symlink, a directory, a FIFO or a device is opened itself.
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(path, os.W_OK)):
        partial = path + ".partial"
        with contextlib.suppress(OSError):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(partial)  # a leftover partial is removed, never followed
            fd = os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            fh = open(fd, "w", encoding="utf-8", newline="")
            try:
                if st is not None:  # the new file keeps the old one's owner and mode
                    os.fchown(fh.fileno(), st.st_uid, st.st_gid)
                    os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            except OSError:
                fh.close()
                os.remove(partial)
                raise
            return fh, partial
    return open(path, "w", encoding="utf-8", newline=""), None


def _write_lines(lines: Iterable[str], path: str | None) -> None:
    """Stream lines to stdout or to `path`.  Through `<path>.partial`, `path`
    is replaced only once every line is written; on failure the partial file
    is removed."""
    if path is None:
        sys.stdout.writelines(lines)
        return
    fh, partial = _open_report(path)
    try:
        with fh:
            fh.writelines(lines)
        if partial is not None:
            os.replace(partial, path)
    except BaseException:
        if partial is not None:
            with contextlib.suppress(OSError):
                os.remove(partial)
        raise


def cmd_moment(args) -> int:
    cov = _load_covariance(args.cov)
    exponents = _parse_exponents(args.exps)
    print(format_rational(gaussian_moment(cov, exponents)))
    return 0


def cmd_counterexample(args) -> int:
    lhs, rhs = counterexample_wei()
    refuted = lhs < rhs
    print(
        json.dumps(
            {
                "claim": "wei_strong_split_failure",
                "lhs": format_rational(lhs),
                "rhs": format_rational(rhs),
                "strong_inequality_refuted": refuted,
            }
        )
    )
    return 0 if refuted else 1


def identity_verdicts(n_max: int, r_max: int, l_max: int) -> Iterator[InequalityVerdict]:
    """The symmetric, lemma25/27, corollary28 and Kummer verdicts, in report order;
    the Kummer grid stops at r = KUMMER_R_MAX."""
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            yield check_symmetric_identity(n, r)
    for r in range(1, l_max + 1):
        for l in range(1, r + 1):
            yield check_lemma25(l, r)
            yield check_lemma27(l, r)
            yield check_corollary28(l, r)
    for r in range(1, min(r_max, KUMMER_R_MAX) + 1):
        for b in KUMMER_DEFAULT_BS:
            yield check_kummer_classical(r, b)


def polynomial_L_verdicts(r_max: int) -> Iterator[InequalityVerdict]:
    """L == 0 for r = 1..r_max; lhs is the sum of |coefficients|, so it holds iff L is empty."""
    for r in range(1, r_max + 1):
        residue = sum(map(abs, build_polynomial_L(r).coeffs), Fraction(0))
        yield InequalityVerdict("L_zero_polynomial", {"r": r}, residue, Fraction(0), "==")


def identity_suite(n_max: int, r_max: int, l_max: int) -> Iterator[InequalityVerdict]:
    """Every identity family at the requested ranges, in report order; the
    ranges are checked at once, the verdicts decided as they are read."""
    if n_max < 0 or r_max < 1 or l_max < 1:
        raise ValueError(
            f"need n_max >= 0 and r_max, l_max >= 1, "
            f"got n_max={n_max}, r_max={r_max}, l_max={l_max}"
        )
    return itertools.chain(identity_verdicts(n_max, r_max, l_max), polynomial_L_verdicts(r_max))


def run_identity_suite(n_max: int, r_max: int, l_max: int) -> list[dict]:
    """Every identity family at the requested ranges, as JSON-ready dicts."""
    return [identity_record(v) for v in identity_suite(n_max, r_max, l_max)]


def identity_record(v: InequalityVerdict) -> dict:
    """One line of the `identities` report."""
    lhs, rhs = format_rational(v.lhs), format_rational(v.rhs)
    return {"identity": v.claim, "params": dict(v.params), "lhs": lhs, "rhs": rhs, "holds": v.holds}


def cmd_identities(args) -> int:
    total = failed = 0
    for verdict in identity_suite(args.n_max, args.r_max, args.l_max):
        print(json.dumps(identity_record(verdict)))
        total += 1
        failed += not verdict.holds
    print(f"identities: total={total} failed={failed}", file=sys.stderr)
    return 0 if failed == 0 else 1


def _required_cov(args: argparse.Namespace, dim: int) -> CovarianceMatrix:
    if args.cov is None:
        raise ValueError(f"--claim {args.claim} requires --cov with a {dim}x{dim} covariance")
    return _load_covariance(args.cov)


Verdict = InequalityVerdict | StationaryPointCertificate

# Every claim `gpi-lab check` can run; each parses its own rationals.
CHECKS: dict[str, Callable[[argparse.Namespace], Verdict]] = {
    "prop21": lambda a: check_prop21(a.m, a.n, a.r, a.a2, a.b2),
    "thm22": lambda a: check_thm22(a.m, a.n, a.r, a.a2, a.b2),
    "cor23": lambda a: check_cor23(a.m, a.n, a.r, _required_cov(a, 2)),
    "lemma29": lambda a: check_lemma29(a.m, a.n, a.r),
    "lemma210": lambda a: check_lemma210(a.m, a.n, a.r),
    "lemma31": lambda a: check_lemma31(a.m, a.n, a.a, a.sigma2),
    "thm32": lambda a: check_thm32(a.m, a.n, _required_cov(a, 3)),
    "main": lambda a: check_main(a.m, _required_cov(a, 3)),
}


def cmd_check(args) -> int:
    verdict = CHECKS[args.claim](args)
    print(json.dumps(verdict.as_dict()))
    return 0 if verdict.holds else 1


def cmd_poly(args) -> int:
    which = args.which
    if which == "L":
        poly = build_polynomial_L(args.r)
        params = {"r": args.r}
    else:
        polys = build_gamma_polynomials(args.m, args.n, args.r)
        poly: Polynomial = getattr(polys, which)
        params = {"m": args.m, "n": args.n, "r": args.r}
    print(
        json.dumps(
            {
                "which": which,
                "params": params,
                "coefficients": [format_rational(c) for c in poly.coeffs],
            }
        )
    )
    return 0


def cmd_hyp(args) -> int:
    abcz = (args.a, args.b, args.c, args.z)
    result: dict = {"params": {name: format_rational(x) for name, x in zip("abcz", abcz)}}
    ok = True
    if not args.pfaff and args.contiguous is None:
        result["value"] = format_rational(hyp2f1_terminating(*abcz))
    if args.pfaff:
        holds = pfaff_check(*abcz)
        result["pfaff_holds"] = holds
        ok = ok and holds
    if args.contiguous is not None:
        holds = contiguous_check(args.contiguous, *abcz)
        result["contiguous"] = {"relation": args.contiguous, "holds": holds}
        ok = ok and holds
    print(json.dumps(result))
    return 0 if ok else 1


def _diagonal_covariance(gen: SplitMix64, q: int) -> CovarianceMatrix:
    diag = []
    for _ in range(3):
        value = 0
        while value == 0:
            value = gen.randint(-q, q)
        diag.append(Fraction(value * value))
    return CovarianceMatrix.diagonal(diag)


def sweep_draws(config: SweepConfig) -> Iterator[tuple[CovarianceMatrix, list[InequalityVerdict]]]:
    """Each draw's covariance and its thm32 verdicts, m <= m_max outer and
    n <= n_max inner, one draw at a time; run_sweep checks the config.  The
    checks run from (m_max, n_max) down, so the largest moment builds the
    draw's plan once and memoises the sub-sums the smaller ones read; the
    verdicts are yielded reversed, in report order."""
    seed, count, q, m_max, n_max, diagonal = config
    gen = SplitMix64(seed)
    largest_first = [(m, n) for m in range(m_max, 0, -1) for n in range(n_max, 0, -1)]
    for _ in range(count):
        cov = _diagonal_covariance(gen, q) if diagonal else random_covariance(gen, 3, q)
        yield cov, [check_thm32(m, n, cov) for m, n in largest_first][::-1]


def _sweep_records(config: SweepConfig) -> Iterator[dict]:
    for draw, (cov, verdicts) in enumerate(sweep_draws(config)):
        digest = covariance_hash(cov)
        for verdict in verdicts:
            yield {
                "draw": draw,
                "cov_hash": digest,
                "m": verdict.params["m"],
                "n": verdict.params["n"],
                "lhs": format_rational(verdict.lhs),
                "rhs": format_rational(verdict.rhs),
                "holds": verdict.holds,
                "equality": verdict.equality,
            }


def run_sweep(config: SweepConfig) -> Iterator[dict]:
    """Draw `count` 3x3 covariances from the seed and record every theorem
    check; the config is checked at once, the records made as they are read."""
    _, count, q, m_max, n_max, _ = config
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if m_max < 1 or n_max < 1:
        raise ValueError(f"need m_max, n_max >= 1, got m_max={m_max}, n_max={n_max}")
    return _sweep_records(config)


SWEEP_FIELDS = ("draw", "cov_hash", "m", "n", "lhs", "rhs", "holds", "equality")


def _json_line(record: dict) -> str:
    """One record as a JSON line, byte for byte `json.dumps(record) + "\\n"`:
    the fields in SWEEP_FIELDS order, and no string that needs escaping (a
    hex digest and two "p/q" rationals)."""
    r = record
    return (
        f'{{"draw": {r["draw"]}, "cov_hash": "{r["cov_hash"]}", "m": {r["m"]}, "n": {r["n"]}, '
        f'"lhs": "{r["lhs"]}", "rhs": "{r["rhs"]}", "holds": {"true" if r["holds"] else "false"}, '
        f'"equality": {"true" if r["equality"] else "false"}}}\n'
    )


def _csv_line(record: dict) -> str:
    """One record as a CSV line; no field ever needs quoting."""
    cells = (record[field] for field in SWEEP_FIELDS)
    return ",".join(
        ("true" if v else "false") if isinstance(v, bool) else str(v) for v in cells
    ) + "\n"


# Per format: the header line and the line of one record.
SWEEP_LINES: dict[str, tuple[str, Callable[[dict], str]]] = {
    "json": ("", _json_line),
    "csv": (",".join(SWEEP_FIELDS) + "\n", _csv_line),
}


def render_sweep_json(records: Iterable[dict]) -> str:
    # an empty report is one empty line
    return "".join(map(_json_line, records)) or "\n"


def render_sweep_csv(records: Iterable[dict]) -> str:
    """A header line and one line per record."""
    header, line = SWEEP_LINES["csv"]
    return header + "".join(map(line, records))


def cmd_sweep(args) -> int:
    config = SweepConfig._make(getattr(args, field) for field in SweepConfig._fields)
    records = run_sweep(config)
    header, line = SWEEP_LINES[args.format]
    total = holds = equalities = 0

    def report() -> Iterator[str]:
        nonlocal total, holds, equalities
        for rec in records:
            if total == 0:
                yield header  # with the first record, so an error in the first draw prints nothing
            total += 1
            holds += rec["holds"]
            equalities += rec["equality"]
            yield line(rec)

    _write_lines(report(), args.out)
    failures = total - holds
    print(
        f"sweep: draws={config.count} records={total} holds={holds} "
        f"failures={failures} equalities={equalities}",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 1


def verification_families(quick: bool, seed: int) -> list[tuple[str, Iterator]]:
    """Every claim family of the paper, in report order: a name and a lazy
    stream of exact verdicts that decide their own pass.  --quick shrinks every range."""
    n_max, r_max, l_max = (4, 4, 8) if quick else (8, 8, 20)
    mn = range((2 if quick else 3) + 1)
    bridge_rs = range(1, (2 if quick else 3) + 1)
    samples = 20 if quick else 50
    draws = SweepConfig(seed=seed, count=100 if quick else 1000, q=4)
    diagonal_draws = SweepConfig(seed=seed + 1, count=25, q=4, diagonal=True)
    half = Fraction(1, 2)
    variances = (half, Fraction(1), Fraction(2))

    def grids():
        for m, n, r in itertools.product(mn, mn, (1, 2)):
            for a2, b2 in itertools.product(variances, variances):
                if m >= 1 and n >= 1:
                    yield check_prop21(m, n, r, a2, b2)
                yield check_thm22(m, n, r, a2, b2)
            for s in variances:
                for c in (Fraction(0), s / 2, -s / 2):
                    yield check_cor23(m, n, r, CovarianceMatrix.from_rows([[s, c], [c, s]]))

    return [
        ("counterexample (39 < 43)", (counterexample_wei() == (39, 43) for _ in range(1))),
        ("combinatorial identities", identity_verdicts(n_max, r_max, l_max)),
        ("auxiliary polynomial L == 0", polynomial_L_verdicts(r_max)),
        (
            "moment/hypergeometric bridge",
            (check_lemma29(m, n, r) for m in mn for n in mn for r in bridge_rs),
        ),
        (
            "H positivity and convexity witnesses",
            (
                v
                for r in bridge_rs
                for n in mn
                for m in mn
                if m >= n
                for v in check_H_positivity(m, n, r, sample_count=samples)
            ),
        ),
        (
            "stationary-point certificates (B_{m+1} vs B_m)",
            (check_lemma210(m, n, r) for r in (1, 2) for n in mn for m in mn if m >= n),
        ),
        ("independent-pair inequality grids", grids()),
        (
            "degenerate triples strict",
            (
                check_lemma31(m, n, a, sigma2)
                for a in (Fraction(-1), -half, half, Fraction(1), Fraction(2))
                for sigma2 in (Fraction(1, 4), Fraction(1), Fraction(4))
                for m in mn[1:]
                for n in mn[1:]
            ),
        ),
        (
            "randomized theorem sweep",
            (v for c in (draws, diagonal_draws) for _, vs in sweep_draws(c) for v in vs),
        ),
    ]


def cmd_verify(args) -> int:
    failed_families = 0
    for name, verdicts in verification_families(args.quick, args.seed):
        start = time.perf_counter()
        total = failed = 0
        for verdict in verdicts:
            total += 1
            failed += not (verdict if isinstance(verdict, bool) else verdict.holds)
        elapsed = time.perf_counter() - start
        if failed:
            print(f"FAIL {name}: {failed} of {total} exact checks failed")
            failed_families += 1
        else:
            print(f"ok   {name}: {total} exact checks in {elapsed:.2f}s")
    if failed_families:
        print(f"{failed_families} famil{'y' if failed_families == 1 else 'ies'} FAILED")
        return 1
    print("all claim families verified exactly")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpi-lab",
        description="Exact-arithmetic checks of Gaussian product-moment inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="exact mixed moment of a covariance file")
    p.add_argument("--cov", required=True, help="covariance JSON file")
    p.add_argument("--exps", required=True, help="comma-separated exponents k1,k2,...")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("identities", help="run the combinatorial identity suite")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--r-max", type=int, default=8)
    p.add_argument("--l-max", type=int, default=20)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("check", help="check one claim family at given parameters")
    p.add_argument(
        "--claim",
        required=True,
        choices=list(CHECKS),
    )
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--a2", default="1", help="variance of X as p/q")
    p.add_argument("--b2", default="1", help="variance of Y as p/q")
    p.add_argument("--a", default="1", help="lemma31: E[XZ] as p/q (b = a - 1)")
    p.add_argument("--sigma2", default="1", help="lemma31: residual variance as p/q")
    p.add_argument("--cov", default=None, help="covariance JSON file where required")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("poly", help="emit G/H/B/L coefficient lists")
    p.add_argument("--which", required=True, choices=["G", "H", "B", "L"])
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("hyp", help="evaluate or validate terminating 2F1 instances")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--pfaff", action="store_true", help="check the Pfaff transformation")
    p.add_argument(
        "--contiguous",
        choices=list(CONTIGUOUS_RELATIONS),
        default=None,
        help="check one Gauss contiguous relation (DIFF compares coefficient lists)",
    )
    p.set_defaults(func=cmd_hyp)

    p = sub.add_parser("sweep", help="seeded randomized covariance sweep of thm32")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--q", type=int, default=SweepConfig._field_defaults["q"])
    p.add_argument("--m-max", type=int, default=SweepConfig._field_defaults["m_max"])
    p.add_argument("--n-max", type=int, default=SweepConfig._field_defaults["n_max"])
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write records to this path instead of stdout")
    p.add_argument(
        "--diagonal",
        action="store_true",
        help="draw diagonal covariances (independent coordinates) instead of Gram matrices",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("counterexample", help="reproduce the split-product failure (39 < 43)")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("verify", help="run every claim family, one summary line each")
    p.add_argument("--seed", type=int, default=20260810, help="seed of the randomized sweep")
    p.add_argument("--quick", action="store_true", help="shrink every range")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Exact values outgrow the int-to-str digit limit (Python 3.10.7+).  The
    # command lifts it while it runs; library callers keep their own.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gpi-lab: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"gpi-lab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    """The `gpi-lab` program: run `main` and exit with its code."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader of stdout is gone (`| head`): point stdout at the null
        # device, so the flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if code < 2:  # `main` finished, but its report was lost
            print(f"gpi-lab: error: {exc}", file=sys.stderr)
            code = 2
    sys.exit(code)


if __name__ == "__main__":
    run()
