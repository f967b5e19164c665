"""Run gpi-lab in this process with its public functions wrapped in spans.

    python3 perfbench/traced.py SPANS.json cli sweep --seed 7 --count 10
    python3 perfbench/traced.py SPANS.json script scripts/run_full_verification.py --seed 7

Each listed function is replaced wherever its name is bound: the gpi_lab
package namespace, the defining module, and every gpi_lab module that imports
it by name.  A span is (name, start, end, parent); spans and counters stay in
memory and are written to SPANS.json when the program ends.  The program's
own exit code is passed on.
"""

from __future__ import annotations

import functools
import inspect
import json
import runpy
import sys
import types
from collections import Counter
from time import perf_counter

import gpi_lab
import gpi_lab.cli
from gpi_lab import core, identities, moments, specialfn, verifier

RANDINT = "core.SplitMix64.randint"


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.previous_cov = None

    def span(self, name: str, fn, after=None):
        """fn wrapped so each call records a span named `name`; after(args, result)
        runs outside the span."""
        nid = self.names.setdefault(name, len(self.names))
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_moment(self, args, result) -> None:
        cov = args[0]
        if cov is self.previous_cov or cov == self.previous_cov:
            self.counters["moments.gaussian_moment.same_cov_calls"] += 1
        self.previous_cov = cov
        bits = max(result.numerator.bit_length(), result.denominator.bit_length())
        key = "moments.gaussian_moment.max_result_bits"
        self.counters[key] = max(self.counters[key], bits)

    def _after_render(self, args, result) -> None:
        self.counters["cli.render.bytes"] += len(result.encode("utf-8"))

    def _counting_random_covariance(self, fn):
        counters = self.counters

        def counted(gen, d, q):
            before = counters[RANDINT]
            cov = fn(gen, d, q)
            # every attempt fills one d x d integer matrix
            counters["moments.random_covariance.attempts"] += (counters[RANDINT] - before) // (d * d)
            return cov

        return counted

    def _counted(self, key: str, fn):
        counters = self.counters

        def counted(*args):
            counters[key] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        replacements = {
            moments.gaussian_moment: self.span(
                "moments.gaussian_moment", moments.gaussian_moment, self._after_moment
            ),
            moments.is_psd: self.span("moments.is_psd", moments.is_psd),
            moments.random_covariance: self.span(
                "moments.random_covariance",
                self._counting_random_covariance(moments.random_covariance),
            ),
            moments.univariate_even_moment: self.span(
                "moments.univariate_even_moment", moments.univariate_even_moment
            ),
            gpi_lab.cli.run_sweep: self.span("cli.run_sweep", gpi_lab.cli.run_sweep),
            gpi_lab.cli.covariance_hash: self.span("cli.covariance_hash", gpi_lab.cli.covariance_hash),
            gpi_lab.cli.main: self.span("cli.main", gpi_lab.cli.main),
            verifier.build_gamma_polynomials: self.span(
                "verifier.build_gamma_polynomials", verifier.build_gamma_polynomials
            ),
            core.isolate_root: self.span("core.isolate_root", core.isolate_root),
            identities.build_polynomial_L: self.span(
                "identities.build_polynomial_L", identities.build_polynomial_L
            ),
        }
        for render in (gpi_lab.cli.render_sweep_json, gpi_lab.cli.render_sweep_csv):
            replacements[render] = self.span("cli.render", render, self._after_render)
        for fn in (specialfn.pochhammer, specialfn.hyp2f1_terminating, specialfn.half_binomial):
            replacements[fn] = self.span(f"specialfn.{fn.__name__}", fn)
        for module in (verifier, identities):
            checks = [
                fn
                for name, fn in inspect.getmembers(module, inspect.isfunction)
                if fn.__module__ == module.__name__
                and (name.startswith("check_") or name.startswith("cross_check_"))
            ]
            group = f"{module.__name__.rsplit('.', 1)[1]}.checks"
            for fn in checks:
                replacements[fn] = self.span(group, fn)

        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "gpi_lab" or name.startswith("gpi_lab.")
        ]
        for mod in modules:
            bound = [
                (attr, value)
                for attr, value in vars(mod).items()
                if isinstance(value, types.FunctionType)
            ]
            for attr, value in bound:
                wrapper = replacements.get(value)
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

        poly = core.Polynomial
        poly.__call__ = self.span("core.Polynomial.eval", poly.__call__)
        mul = self.span("core.Polynomial.mul", poly.__mul__)
        poly.__mul__ = mul
        poly.__rmul__ = mul
        gen = core.SplitMix64
        gen.next_u64 = self._counted("core.SplitMix64.draws", gen.next_u64)
        gen.randint = self._counted(RANDINT, gen.randint)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": list(self.names), "spans": self.spans, "counters": dict(self.counters)},
                fh,
                separators=(",", ":"),
            )


def main() -> int:
    spans_path, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        if mode == "cli":
            code = gpi_lab.cli.main(args)
        elif mode == "script":
            sys.argv = args
            runpy.run_path(args[0], run_name="__main__")
            code = 0
        else:
            raise SystemExit(f"unknown mode {mode!r}; expected cli or script")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
