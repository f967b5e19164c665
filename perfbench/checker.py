"""Independent checks of gpi-lab's reports.

Nothing here imports gpi_lab.  Sweep records are recomputed from scratch:
the draws come from this module's own splitmix64 and Gram construction, the
left side from the closed pairing-count sum of Genest & Ouimet (2022) rather
than the Wick recursion, and the right side from double factorials.  Identity
verdicts are checked against their closed forms in integer arithmetic, and the
full verification run against exact-check counts derived from its grids.

Each check raises CheckError with the first mismatch it finds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction

MASK64 = (1 << 64) - 1

SWEEP_FIELDS = ("draw", "cov_hash", "m", "n", "lhs", "rhs", "holds", "equality")

KUMMER_BS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(7, 3))


class CheckError(AssertionError):
    """A report disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- sweeps


def _splitmix64(seed: int):
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def _uniform(stream, lo: int, hi: int) -> int:
    span = hi - lo + 1
    limit = (1 << 64) // span * span
    for u in stream:
        if u < limit:
            return lo + u % span
    raise RuntimeError("splitmix64 stream ended")


def gram_draws(seed: int, count: int, q: int, d: int = 3) -> list[list[list[int]]]:
    """The `count` integer Gram matrices A A^T a sweep with this seed draws.

    A is filled row by row with uniform integers in [-q, q]; a draw with a
    zero diagonal entry is discarded and redrawn.
    """
    stream = _splitmix64(seed)
    draws = []
    while len(draws) < count:
        a = [[_uniform(stream, -q, q) for _ in range(d)] for _ in range(d)]
        gram = [[sum(a[i][t] * a[j][t] for t in range(d)) for j in range(d)] for i in range(d)]
        if all(gram[i][i] != 0 for i in range(d)):
            draws.append(gram)
    return draws


def cov_hash(gram) -> str:
    """First 16 hex digits of SHA-256 over "dim;row;row;..." with p/q entries."""
    canon = f"{len(gram)};" + ";".join(",".join(str(Fraction(x)) for x in row) for row in gram)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


def pairing_count_moment(s, a: int, b: int, c: int):
    """E[X^a Y^b Z^c] for a centered Gaussian triple with covariance s.

    Groups the Wick pairings by how many pairs join each two coordinates
    (l12, l13, l23) and each coordinate to itself (h1, h2, h3):

        sum a! b! c! / (l12! l13! l23! 2^h h1! h2! h3!)
            * s11^h1 s22^h2 s33^h3 s12^l12 s13^l13 s23^l23,   h = h1 + h2 + h3.
    """
    if (a + b + c) % 2:
        return 0
    (s11, s12, s13), (_, s22, s23), (_, _, s33) = s
    fact = [math.factorial(i) for i in range(max(a, b, c) + 1)]
    top = fact[a] * fact[b] * fact[c]
    total = 0
    for l12 in range(min(a, b) + 1):
        for l13 in range((a - l12) % 2, min(a - l12, c) + 1, 2):
            h1 = (a - l12 - l13) // 2
            for l23 in range((b - l12) % 2, min(b - l12, c - l13) + 1, 2):
                rest = c - l13 - l23
                if rest % 2:
                    continue
                h2 = (b - l12 - l23) // 2
                h3 = rest // 2
                count = top // (
                    fact[l12] * fact[l13] * fact[l23] * fact[h1] * fact[h2] * fact[h3]
                    << (h1 + h2 + h3)
                )
                total += (
                    count
                    * s11**h1 * s22**h2 * s33**h3
                    * s12**l12 * s13**l13 * s23**l23
                )
    return total


def odd_double_factorial(m: int) -> int:
    """(2m-1)!!, with (-1)!! = 1."""
    return math.prod(range(1, 2 * m, 2))


def expected_sweep_records(seed: int, count: int, q: int, m_max: int, n_max: int) -> list[dict]:
    """Every record a sweep at these settings must report, in report order."""
    records = []
    for draw, gram in enumerate(gram_draws(seed, count, q)):
        digest = cov_hash(gram)
        s11, s22, s33 = gram[0][0], gram[1][1], gram[2][2]
        for m in range(1, m_max + 1):
            for n in range(1, n_max + 1):
                lhs = pairing_count_moment(gram, 2 * m, 2 * m, 2 * n)
                rhs = odd_double_factorial(m) ** 2 * odd_double_factorial(n) * (s11 * s22) ** m * s33**n
                records.append(
                    {
                        "draw": draw,
                        "cov_hash": digest,
                        "m": m,
                        "n": n,
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                        "holds": lhs >= rhs,
                        "equality": lhs == rhs,
                    }
                )
    return records


def parse_sweep(report: bytes, fmt: str) -> list[dict]:
    """Sweep records from a JSONL or CSV report, with JSON-typed fields."""
    text = report.decode("ascii")
    if fmt == "json":
        return [json.loads(line) for line in text.splitlines()]
    rows = list(csv.reader(io.StringIO(text, newline="")))
    _require(bool(rows) and tuple(rows[0]) == SWEEP_FIELDS, f"bad CSV header {rows[:1]}")
    records = []
    for row in rows[1:]:
        _require(len(row) == len(SWEEP_FIELDS), f"bad CSV row {row}")
        rec = dict(zip(SWEEP_FIELDS, row))
        for field in ("draw", "m", "n"):
            _require(re.fullmatch(r"\d+", rec[field]) is not None, f"bad {field} in {row}")
            rec[field] = int(rec[field])
        for field in ("holds", "equality"):
            _require(rec[field] in ("true", "false"), f"bad {field} in {row}")
            rec[field] = rec[field] == "true"
        records.append(rec)
    return records


def check_sweep(
    report: bytes, fmt: str, seed: int, count: int, q: int, m_max: int, n_max: int
) -> int:
    """Require the report to hold exactly the expected records; returns their number."""
    got = parse_sweep(report, fmt)
    want = expected_sweep_records(seed, count, q, m_max, n_max)
    _require(len(got) == len(want), f"{len(got)} records, expected {len(want)}")
    for rec, exp in zip(got, want):
        _require(rec == exp, f"record {rec} differs from the independent value {exp}")
    return len(got)


# ------------------------------------------------------------ identities


def _ratio(num: int, den: int) -> str:
    return str(Fraction(num, den))


def _rising(p: int, q: int, start: int, stop: int) -> int:
    """prod_{i=start}^{stop-1} (p + i q): the numerator of (p/q)_i terms."""
    return math.prod(p + i * q for i in range(start, stop))


def expected_identity_verdicts(n_max: int, r_max: int, l_max: int) -> list[tuple[str, dict, str]]:
    """(identity, params, closed-form value) for every verdict, in report order."""
    fact, comb, dfo = math.factorial, math.comb, odd_double_factorial
    out = []
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            # 2^{2r} (1/2)_n (1/2)_r (1/2)_{n+r}, with (1/2)_k = (2k-1)!! / 2^k
            value = _ratio(dfo(n) * dfo(r) * dfo(n + r), 4**n)
            out.append(("symmetric_identity", {"n": n, "r": r}, value))
    for r in range(1, l_max + 1):
        for l in range(1, r + 1):
            params = {"l": l, "r": r}
            out.append(("lemma25_sum", params, _ratio(fact(2 * r), 2 * fact(r) ** 2 * comb(2 * r - l, r))))
            out.append(("lemma27_product", params, "1"))
            out.append(("corollary28_sum", params, _ratio(1, 2 * comb(r, l))))
    for r in range(1, min(r_max, 5) + 1):
        for b in KUMMER_BS:
            # (b)_r (2r)! / (r! (b)_{2r}) = q^r (2r)! / (r! prod_{i=r}^{2r-1} (p + i q))
            p, q = b.numerator, b.denominator
            value = _ratio(q**r * fact(2 * r), fact(r) * _rising(p, q, r, 2 * r))
            out.append(("kummer_classical", {"r": r, "b": str(b)}, value))
    for r in range(1, r_max + 1):
        out.append(("L_zero_polynomial", {"r": r}, "0"))
    return out


def check_identities(report: bytes, n_max: int, r_max: int, l_max: int) -> int:
    """Require one holding verdict per instance, equal to its closed form."""
    got = [json.loads(line) for line in report.decode("ascii").splitlines()]
    want = expected_identity_verdicts(n_max, r_max, l_max)
    _require(len(got) == len(want), f"{len(got)} verdicts, expected {len(want)}")
    for rec, (identity, params, value) in zip(got, want):
        exp = {"identity": identity, "params": params, "lhs": value, "rhs": value, "holds": True}
        _require(rec == exp, f"verdict {rec} differs from the closed form {exp}")
    return len(got)


# --------------------------------------------------------- verify-paper


def verification_family_counts(
    n_max: int = 8,
    r_max: int = 8,
    l_max: int = 20,
    mn_max: int = 3,
    bridge_r_max: int = 3,
    samples: int = 50,
    sweep_count: int = 1000,
    diagonal_count: int = 25,
) -> list[tuple[str, int]]:
    """(family, exact checks) of the full verification run, derived from its grids.

    The defaults are the full-mode ranges of scripts/run_full_verification.py.
    """
    mn = range(mn_max + 1)
    ordered_pairs = [(m, n) for n in mn for m in mn if m >= n]
    # H positivity skips gamma = 1/2 when the sample grid t/(samples+1) holds it
    half_sampled = (samples + 1) % 2 == 0
    h_checks = sum(
        (m == n) + 2 * (samples - (m == n and half_sampled)) for m, n in ordered_pairs
    )
    grid_cells = sum(9 * (m >= 1 and n >= 1) + 9 + 9 for m in mn for n in mn)
    return [
        ("counterexample (39 < 43)", 1),
        ("combinatorial identities", (n_max + 1) * r_max + 3 * l_max * (l_max + 1) // 2 + 5 * 4),
        ("auxiliary polynomial L == 0", r_max),
        ("moment/hypergeometric bridge", (mn_max + 1) ** 2 * bridge_r_max),
        ("H positivity and convexity witnesses", bridge_r_max * h_checks),
        ("stationary-point certificates (B_{m+1} vs B_m)", 2 * len(ordered_pairs)),
        ("independent-pair inequality grids", 2 * grid_cells),
        ("degenerate triples strict", 5 * 3 * mn_max**2),
        ("randomized theorem sweep", 4 * (sweep_count + diagonal_count)),
    ]


_FAMILY_LINE = re.compile(r"ok   (.+): (\d+) exact checks in \d+\.\d+s")


def check_verification(report: bytes) -> int:
    """Require "ok" on every family with its derived count; returns the total."""
    lines = report.decode("utf-8").splitlines()
    want = verification_family_counts()
    _require(len(lines) == len(want) + 1, f"{len(lines)} lines, expected {len(want) + 1}")
    for line, (family, count) in zip(lines, want):
        match = _FAMILY_LINE.fullmatch(line)
        _require(match is not None, f"not an ok line: {line!r}")
        _require(
            (match.group(1), int(match.group(2))) == (family, count),
            f"{line!r}: expected {count} exact checks of {family!r}",
        )
    _require(lines[-1] == "all claim families verified exactly", f"last line {lines[-1]!r}")
    return sum(count for _, count in want)
