"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of each layer by rebinding every name
under which the library looks them up (``finite`` imports SNF functions
with ``from .snf import ...``, so ``finite.smith_normal_form`` is patched
as well as ``snf.smith_normal_form``), and restores every name on exit.

Spans are aggregated in memory as they close: per name, the call count
and the self time (span duration minus the time covered by child spans).
Nothing is written during a run; ``linear_system_solvable`` alone is
called about 90k times per pass of the grid workload.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (span name, module, attribute).  Every binding of the attribute's value
# in any loaded library module is rebound.
SPANS = [
    ("finite.enumerate_subgroups", "finite", "enumerate_subgroups"),
    ("finite.is_pure_subgroup", "finite", "is_pure_subgroup"),
    ("finite.abstract_presentation", "finite", "abstract_presentation"),
    ("finite.extension", "finite", "_extension_exists"),
    ("finite.hom_extends", "finite", "hom_extends"),
    ("finite.hom_extends_bruteforce", "finite", "hom_extends_bruteforce"),
    ("snf.smith_normal_form", "snf", "smith_normal_form"),
    ("snf.integer_row_kernel", "snf", "integer_row_kernel"),
    ("snf.linear_system_solvable", "snf", "linear_system_solvable"),
    ("parser.parse", "parser", "parse"),
    ("groups.canonicalize", "groups", "canonicalize"),
    ("groups.structural_predicates", "groups", "structural_predicates"),
    ("deciders.is_poor", "deciders", "is_poor"),
    ("deciders.is_pure_split", "deciders", "is_pure_split"),
    ("deciders.pi_poor_necessary", "deciders", "pi_poor_necessary"),
    ("cli.emit", "cli", "_emit"),
]


class Tracer:
    """Context manager that installs the wrappers and removes them on exit.

    While ``on`` is false the wrappers pass calls straight through, so the
    benchmark's own checks are not attributed to the program.
    """

    def __init__(self, lib):
        self.lib = lib
        self.on = True
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_dims = [0, 0]
        self._hom_space_size = lib.finite.hom_space_size
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def _rebind(self, original, replacement, owners) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        lib = self.lib
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "abelcheck" or name.startswith("abelcheck."))]
        hooks = {
            "finite.enumerate_subgroups": self._after_enumerate,
            "finite.is_pure_subgroup": self._after_purity,
            "finite.hom_extends_bruteforce": self._after_bruteforce,
            "snf.smith_normal_form": self._after_snf,
        }
        try:
            for name, module, attr in SPANS:
                original = getattr(getattr(lib, module), attr)
                self._rebind(original, self._span(name, original, hooks.get(name)), modules)
            # Methods are looked up on the class.
            subgroup = lib.finite.Subgroup
            self._rebind(subgroup.generating_set,
                         self._span("finite.generating_set", subgroup.generating_set), [subgroup])
            self._rebind(lib.finite._all_homs_on_generators,
                         self._count_yields(lib.finite._all_homs_on_generators), modules)
            # Only the CLI's crosscheck loop calls hom_space_size once per draw.
            self._rebind(self._hom_space_size, self._count_draws(self._hom_space_size), [lib.cli])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- counters ---------------------------------------------------------------

    def _after_enumerate(self, args, subgroups) -> None:
        self.counts["subgroups"] += len(subgroups)

    def _after_purity(self, args, pure) -> None:
        self.counts["pure"] += bool(pure)

    def _after_bruteforce(self, args, result) -> None:
        self.counts["hom_space_total"] += self._hom_space_size(args[2], args[3])

    def _after_snf(self, args, result) -> None:
        matrix = args[0]
        dims = self.max_dims
        dims[0] = max(dims[0], len(matrix))
        dims[1] = max(dims[1], len(matrix[0]) if matrix else 0)

    def _count_yields(self, gen_fn):
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if self.on:
                    self.counts["homs"] += 1
                yield item
        return counted

    def _count_draws(self, fn):
        def counted(*args, **kwargs):
            if self.on:
                self.counts["draws"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- report -----------------------------------------------------------------

    def per_layer(self, passes: int) -> dict[str, float]:
        """Every span's self time and call count, and the derived counters,
        as amounts per pass over the workload's items."""
        out: dict[str, float] = {}
        for name in [name for name, _, _ in SPANS] + ["finite.generating_set"]:
            out[f"{name}.self_s"] = self.self_s[name] / passes
            out[f"{name}.calls"] = self.calls[name] / passes
        tested = self.calls["finite.is_pure_subgroup"]
        draws = self.counts["draws"]
        out.update({
            "finite.enumerate_subgroups.subgroups": self.counts["subgroups"] / passes,
            "finite.pure_fraction": self.counts["pure"] / tested if tested else 0.0,
            "snf.smith_normal_form.max_rows": self.max_dims[0],
            "snf.smith_normal_form.max_cols": self.max_dims[1],
            "finite.homs_enumerated": self.counts["homs"] / passes,
            "finite.hom_space_total": self.counts["hom_space_total"] / passes,
            # Every kept crosscheck draw is decided once by hom_extends.
            "cli.crosscheck.draw_accept_ratio": self.calls["finite.hom_extends"] / draws if draws else 0.0,
        })
        return out
