"""The benchmark's workloads: seeded inputs, one timed call per item, and
the check of each item's output.

Every item builds its own ``FiniteAbelianGroup`` objects, so no item
inherits another's caches.

Why these workloads:

- ``pure_split_sweep`` spends its time in subgroup enumeration,
  generating sets and SNF presentations; its largest lattice (Z2^6) has
  2825 subgroups.
- ``rel_inj_grid`` has small lattices but many homomorphisms, so it
  spends its time in congruence solving and extension checks.  A gain in
  one of these layers shows in one of the two oracle workloads and not
  in the other.
- ``analyze_mix`` is the only workload for the parser, canonical forms,
  the symbolic deciders and JSON output.
- ``crosscheck_cli`` runs the CLI suites on many fresh groups of rank
  <= 3, so cold per-group caches and set-up costs count; it is the only
  workload that runs the brute-force extension check,
  ``sample_homomorphism`` and the crosscheck draw loop.
"""

from __future__ import annotations

import io
import json
import random
from argparse import Namespace
from contextlib import redirect_stdout
from itertools import product

SWEEP_MAX_ORDER = 64
SWEEP_GROUPS = 117  # abelian groups of order <= 64, counting the trivial group
GRID_M_ORDERS = range(2, 17)
GRID_N_ORDERS = range(2, 13)
GRID_PAIRS = 384
# Calls draw different groups, so a run's figures depend on its seed; 100
# calls per pass keep the median item time within a few percent across
# seeds.
CROSSCHECK_CALLS = 100
CROSSCHECK_COUNT = 50
ANALYZE_DESCRIPTORS = 5000


def _prime_of(q: int) -> int:
    """The prime of a prime power q > 1."""
    p = 2
    while q % p:
        p += 1
    return p


def _class_factors(lib, orders) -> list[tuple[int, ...]]:
    return [g.factors for n in orders for g in lib.finite.isomorphism_classes_of_order(n)]


def _captured(call) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = call()
    return code, buf.getvalue()


class PureSplitSweep:
    """Item: one group of order <= 64; ``is_pure_split_finite`` must hold."""

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.items = _class_factors(lib, range(1, SWEEP_MAX_ORDER + 1))
        if len(self.items) != SWEEP_GROUPS:
            raise RuntimeError(f"expected {SWEEP_GROUPS} groups, got {len(self.items)}")
        random.Random(seed).shuffle(self.items)

    def run(self, factors):
        finite = self.lib.finite
        return finite.is_pure_split_finite(finite.FiniteAbelianGroup(factors))

    def verify(self, factors, verdict) -> tuple[bool, bytes]:
        return verdict is True, json.dumps([factors, verdict]).encode()


def rel_inj_closed_form(m_factors, n_factors) -> bool:
    """M is N-injective iff, at every prime p of N, every cyclic p-factor
    of M has order >= exp(N_p)."""
    exp_n: dict[int, int] = {}
    for q in n_factors:
        p = _prime_of(q)
        exp_n[p] = max(exp_n.get(p, 1), q)
    return all(q >= exp_n[_prime_of(q)] for q in m_factors if _prime_of(q) in exp_n)


class RelInjGrid:
    """Item: one ordered pair (M, N) with 1 < |M| <= 16 and 1 < |N| <= 12;
    both relative-injectivity verdicts are checked against closed forms."""

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.items = list(product(_class_factors(lib, GRID_M_ORDERS),
                                  _class_factors(lib, GRID_N_ORDERS)))
        if len(self.items) != GRID_PAIRS:
            raise RuntimeError(f"expected {GRID_PAIRS} pairs, got {len(self.items)}")
        random.Random(seed).shuffle(self.items)

    def run(self, pair):
        finite = self.lib.finite
        m = finite.FiniteAbelianGroup(pair[0])
        n = finite.FiniteAbelianGroup(pair[1])
        return finite.is_relatively_injective(m, n), finite.is_relatively_pure_injective(m, n)

    def verify(self, pair, verdicts) -> tuple[bool, bytes]:
        ok = verdicts == (rel_inj_closed_form(*pair), True)
        return ok, json.dumps([pair, verdicts]).encode()


class CrosscheckCli:
    """Item: one in-process ``abelcheck crosscheck --json`` call; it must
    exit 0 with no failures."""

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        self.items = [str(rng.randrange(10**9)) for _ in range(CROSSCHECK_CALLS)]

    def run(self, call_seed: str):
        argv = ["crosscheck", "--seed", call_seed, "--count", str(CROSSCHECK_COUNT), "--json"]
        return _captured(lambda: self.lib.cli.main(argv))

    def verify(self, call_seed, output) -> tuple[bool, bytes]:
        code, text = output
        result = json.loads(text)["result"]
        ok = code == 0 and result["total_failures"] == 0 and result["seed"] == int(call_seed)
        return ok, text.encode()


# Descriptor generator.  It draws from the rng in the same order and with
# the same distribution as the test suite's ``random_descriptor``, but
# writes the expression text directly, so the CLI receives only text.

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def _height(rng: random.Random) -> str:
    return "inf" if rng.random() < 0.3 else str(rng.randint(0, 4))


def _characteristic(rng: random.Random) -> str:
    default = "inf" if rng.random() < 0.5 else "0"
    primes = rng.sample(SMALL_PRIMES, rng.randint(0, 3))
    return default + "".join(f";{p}:{_height(rng)}" for p in primes)


def _multiplicity(rng: random.Random) -> str:
    return "omega" if rng.random() < 0.2 else str(rng.randint(1, 4))


def _part(rng: random.Random) -> str:
    kind = rng.randrange(6)
    p = rng.choice(SMALL_PRIMES)
    if kind == 0:
        return f"Z({p}^{rng.randint(1, 4)})"
    if kind == 1:
        return f"Z({p}^inf)"
    if kind == 2:
        return f"R({_characteristic(rng)})"
    if kind == 3:
        return f"tower({p})"
    template = rng.choice([f"Z(p^{rng.randint(1, 3)})", "Z(p^inf)", "tower(p)"])
    excluded = rng.sample(SMALL_PRIMES, rng.randint(0, 2))
    family = f"sum{{p}}[{template}^{_multiplicity(rng)}]"
    if excluded:
        family += "\\{" + ",".join(map(str, excluded)) + "}"
    return family


def random_expression(rng: random.Random, max_parts: int = 6) -> str:
    terms = [f"{_part(rng)}^{_multiplicity(rng)}" for _ in range(rng.randint(0, max_parts))]
    return " + ".join(terms) or "0"


class AnalyzeMix:
    """Item: one ``analyze --json`` call on a seeded random expression; its
    pure-split verdict must equal membership in the witness's
    pure-injectivity domain."""

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        self.items = [random_expression(rng) for _ in range(ANALYZE_DESCRIPTORS)]

    def run(self, expression: str):
        args = Namespace(expression=expression, json=True)
        return _captured(lambda: self.lib.cli.cmd_analyze(args))

    def verify(self, expression, output) -> tuple[bool, bytes]:
        code, text = output
        result = json.loads(text)["result"]
        lib = self.lib
        group = lib.groups.canonicalize(lib.parser.parse(expression))
        expected = lib.deciders.in_pure_injectivity_domain_of_witness(group).verdict
        ok = code == 0 and result["expression"] == expression and result["pure_split"]["verdict"] is expected
        return ok, text.encode()


WORKLOADS = {
    "pure_split_sweep": PureSplitSweep,
    "rel_inj_grid": RelInjGrid,
    "crosscheck_cli": CrosscheckCli,
    "analyze_mix": AnalyzeMix,
}
