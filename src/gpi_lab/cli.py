"""Command-line front end: moments, identity suites, claim checks, sweeps.

Every report renders rationals as "p/q" strings, never as decimals.  Exit
codes: 0 when every verdict holds, 1 when at least one claim is refuted, and
2 for usage or input errors.  Identical configurations produce byte-identical
reports; the only randomness source is the seeded generator.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from ._pairing import pairing_moment
from .core import Polynomial, SplitMix64, format_rational, parse_rational
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
    HypergeometricParams,
    contiguous_check,
    hyp2f1_terminating,
    pfaff_check,
)
from .verifier import (
    DegenerateTriple,
    build_gamma_polynomials,
    check_cor23,
    check_lemma210,
    check_lemma31,
    check_main,
    check_prop21,
    check_thm22,
    check_thm32,
    counterexample_wei,
    cross_check_lemma29,
    default_bridge_gammas,
)

KUMMER_DEFAULT_BS = ("1/3", "1/2", "3/2", "7/3")

THREADS_ENV = "GPI_LAB_THREADS"


@dataclass(frozen=True)
class SweepConfig:
    """Deterministic randomized-sweep parameters; equal configs replay byte-identically."""

    seed: int
    count: int
    dim: int = 3
    q: int = 3
    m_max: int = 2
    n_max: int = 2
    output_format: str = "json"
    output_path: str | None = None
    diagonal: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.output_format}")


def _load_covariance(path: str) -> CovarianceMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return CovarianceMatrix.from_json(json.load(fh))


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad exponent list {text!r}: {exc}") from None


def covariance_hash(cov: CovarianceMatrix) -> str:
    canon = f"{cov.dim};" + ";".join(
        ",".join(format_rational(x) for x in row) for row in cov.entries
    )
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_moment(args) -> int:
    cov = _load_covariance(args.cov)
    exponents = _parse_exponents(args.exps)
    value = gaussian_moment(cov, exponents)
    if args.oracle:
        oracle = pairing_moment(cov, exponents)
        if oracle != value:
            print(
                f"gpi-lab: oracle disagreement: engine={format_rational(value)} "
                f"pairing={format_rational(oracle)}",
                file=sys.stderr,
            )
            return 1
    print(format_rational(value))
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


def run_identity_suite(n_max: int, r_max: int, l_max: int) -> list[dict]:
    """Every identity family at the requested ranges, as JSON-ready dicts."""
    out: list[dict] = []
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            out.append(check_symmetric_identity(n, r).as_dict())
    for r in range(1, l_max + 1):
        for l in range(1, r + 1):
            out.append(check_lemma25(l, r).as_dict())
            out.append(check_lemma27(l, r).as_dict())
            out.append(check_corollary28(l, r).as_dict())
    for r in range(1, min(r_max, 5) + 1):
        for b in KUMMER_DEFAULT_BS:
            out.append(check_kummer_classical(r, parse_rational(b)).as_dict())
    for r in range(1, r_max + 1):
        poly = build_polynomial_L(r)
        residue = sum((abs(c) for c in poly.coeffs), Fraction(0))
        out.append(
            {
                "identity": "L_zero_polynomial",
                "params": {"r": r},
                "lhs": format_rational(residue),
                "rhs": "0",
                "holds": poly.is_zero(),
            }
        )
    return out


def cmd_identities(args) -> int:
    verdicts = run_identity_suite(args.n_max, args.r_max, args.l_max)
    for verdict in verdicts:
        print(json.dumps(verdict))
    failed = sum(1 for v in verdicts if not v["holds"])
    print(
        f"identities: total={len(verdicts)} failed={failed}",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 1


def cmd_check(args) -> int:
    claim = args.claim
    if claim == "prop21":
        verdict = check_prop21(
            args.m, args.n, args.r, parse_rational(args.a2), parse_rational(args.b2)
        ).as_dict()
    elif claim == "thm22":
        verdict = check_thm22(
            args.m, args.n, args.r, parse_rational(args.a2), parse_rational(args.b2)
        ).as_dict()
    elif claim == "cor23":
        if args.cov is None:
            raise ValueError("--claim cor23 requires --cov with a 2x2 covariance")
        verdict = check_cor23(args.m, args.n, args.r, _load_covariance(args.cov)).as_dict()
    elif claim == "lemma29":
        gammas = default_bridge_gammas(args.r)
        verdict = {
            "claim": "lemma29",
            "params": {"m": args.m, "n": args.n, "r": args.r, "points": len(gammas)},
            "lhs": None,
            "rhs": None,
            "holds": cross_check_lemma29(args.m, args.n, args.r, gammas),
            "equality": None,
            "equality_condition_met": None,
        }
    elif claim == "lemma210":
        cert = check_lemma210(args.m, args.n, args.r, parse_rational(args.width))
        verdict = cert.as_dict()
        if cert.min_left_of_half is False:
            verdict["holds"] = False
    elif claim == "lemma31":
        triple = DegenerateTriple.from_a(parse_rational(args.a), parse_rational(args.sigma2))
        verdict = check_lemma31(args.m, args.n, triple).as_dict()
    elif claim == "thm32":
        if args.cov is None:
            raise ValueError("--claim thm32 requires --cov with a 3x3 covariance")
        verdict = check_thm32(args.m, args.n, _load_covariance(args.cov)).as_dict()
    elif claim == "main":
        if args.cov is None:
            raise ValueError("--claim main requires --cov with a 3x3 covariance")
        verdict = check_main(args.m, _load_covariance(args.cov)).as_dict()
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown claim {claim!r}")
    print(json.dumps(verdict))
    return 0 if verdict["holds"] else 1


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
    params = HypergeometricParams.make(
        parse_rational(args.a),
        parse_rational(args.b),
        parse_rational(args.c),
        parse_rational(args.z),
    )
    result: dict = {"params": params.as_dict()}
    ok = True
    if not args.pfaff and args.contiguous is None:
        result["value"] = format_rational(
            hyp2f1_terminating(params.a, params.b, params.c, params.z)
        )
    if args.pfaff:
        holds = pfaff_check(params)
        result["pfaff_holds"] = holds
        ok = ok and holds
    if args.contiguous is not None:
        holds = contiguous_check(args.contiguous, params)
        result["contiguous"] = {"relation": args.contiguous, "holds": holds}
        ok = ok and holds
    print(json.dumps(result))
    return 0 if ok else 1


def _diagonal_covariance(gen: SplitMix64, dim: int, q: int) -> CovarianceMatrix:
    diag = []
    for _ in range(dim):
        value = 0
        while value == 0:
            value = gen.randint(-q, q)
        diag.append(Fraction(value * value))
    return CovarianceMatrix.diagonal(diag)


def _sweep_point(task: tuple[int, CovarianceMatrix, int, int]) -> list[dict]:
    idx, cov, m_max, n_max = task
    digest = covariance_hash(cov)
    records = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            verdict = check_thm32(m, n, cov)
            records.append(
                {
                    "draw": idx,
                    "cov_hash": digest,
                    "m": m,
                    "n": n,
                    "lhs": format_rational(verdict.lhs),
                    "rhs": format_rational(verdict.rhs),
                    "holds": verdict.holds,
                    "equality": verdict.equality,
                }
            )
    return records


def _thread_cap() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return cap


def run_sweep(config: SweepConfig) -> list[dict]:
    """Draw `count` covariances from the seed and record every theorem check.

    Draws happen up front on a single stream, so the report is identical no
    matter how many workers evaluate the checks.
    """
    gen = SplitMix64(config.seed)
    covariances = [
        _diagonal_covariance(gen, config.dim, config.q)
        if config.diagonal
        else random_covariance(gen, config.dim, config.q)
        for _ in range(config.count)
    ]
    tasks = [
        (idx, cov, config.m_max, config.n_max) for idx, cov in enumerate(covariances)
    ]
    workers = min(_thread_cap(), config.count)
    if workers > 1:
        # Imported here: it takes about 20 ms, and sweeps are sequential by default.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_sweep_point, tasks, chunksize=8))
    else:
        grouped = [_sweep_point(task) for task in tasks]
    return [record for group in grouped for record in group]


SWEEP_FIELDS = ("draw", "cov_hash", "m", "n", "lhs", "rhs", "holds", "equality")


def render_sweep_json(records: list[dict]) -> str:
    return "\n".join(json.dumps(record) for record in records) + "\n"


def render_sweep_csv(records: list[dict]) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_FIELDS)
    for record in records:
        writer.writerow(
            [
                record[field] if not isinstance(record[field], bool)
                else ("true" if record[field] else "false")
                for field in SWEEP_FIELDS
            ]
        )
    return buffer.getvalue()


def cmd_sweep(args) -> int:
    config = SweepConfig(
        seed=args.seed,
        count=args.count,
        dim=args.dim,
        q=args.q,
        m_max=args.m_max,
        n_max=args.n_max,
        output_format=args.format,
        output_path=args.out,
        diagonal=args.diagonal,
    )
    records = run_sweep(config)
    renderer = render_sweep_json if config.output_format == "json" else render_sweep_csv
    _emit(renderer(records), config.output_path)
    holds = sum(1 for rec in records if rec["holds"])
    equalities = sum(1 for rec in records if rec["equality"])
    failures = len(records) - holds
    print(
        f"sweep: draws={config.count} records={len(records)} holds={holds} "
        f"failures={failures} equalities={equalities}",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpi-lab",
        description="Exact-arithmetic checks of Gaussian product-moment inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="exact mixed moment of a covariance file")
    p.add_argument("--cov", required=True, help="covariance JSON file")
    p.add_argument("--exps", required=True, help="comma-separated exponents k1,k2,...")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force pairing oracle and require agreement",
    )
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
        choices=["prop21", "thm22", "cor23", "lemma29", "lemma210", "lemma31", "thm32", "main"],
    )
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--a2", default="1", help="variance of X as p/q")
    p.add_argument("--b2", default="1", help="variance of Y as p/q")
    p.add_argument("--a", default="1", help="lemma31: E[XZ] as p/q (b = a - 1)")
    p.add_argument("--sigma2", default="1", help="lemma31: residual variance as p/q")
    p.add_argument("--width", default=f"1/{2**20}", help="lemma210 bracket width as p/q")
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
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=2)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"gpi-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
