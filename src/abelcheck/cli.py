"""Command-line front door.

Three commands: ``analyze`` runs the symbolic deciders on a group
expression, ``oracle`` runs the finite-group oracle, ``crosscheck``
replays the oracle's internal consistency suites on random instances.
One crosscheck call builds each drawn group once, shared by all three
suites and by no other call, decides the pure-split suite once per
distinct group and validates each sampled hom once (see
``finite._validated_instance``).

Exit codes, all decided in ``main``: 0 ok; 1 stdout's reader closed the
pipe early (``| head``), with no traceback; 2 parse error (``ParseError``
or ``ValueError``: a bad expression, group string or matrix, the wrong
number of oracle arguments, ``--csv`` on a command other than
``subgroups``, ``pure`` and ``summand`` or together with ``--json``,
``--count`` < 0, ``--bound`` or ``--max-prime`` < 2); 3 bound exceeded
(``BoundExceeded``); 4 invariant violation
(``InternalConsistencyError``).  The commands raise and never print
these; the one exit code a command returns itself is crosscheck's 4 for
failed suites, a verdict that comes with its counterexamples on stderr.

JSON output is byte-identical for identical inputs and
seed; wall-clock timing therefore only appears in human-readable
output (the JSON envelope carries ``timing_ms: null``).  Every JSON
document, on stdout and in crosscheck's stderr dump, comes from one
writer, ``_dumps``, whose output matches the stdlib's ``json.dumps``
at ``indent=2`` byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from math import inf, prod

from . import __version__, finite
from .deciders import is_poor, is_pure_split, pi_poor_necessary
from .errors import AbelcheckError, BoundExceeded, InternalConsistencyError, ParseError
from .finite import DEFAULT_ORDER_BOUND, FiniteAbelianGroup, Subgroup, hom_space_size
from .groups import canonicalize, structural_predicates
from .parser import parse, render
from .snf import diagonal, smith_normal_form

# suite 3 draws again when Hom(g, m) is larger than this
CROSSCHECK_HOM_CAP = 4096
# crosscheck samples groups of order <= min(--bound, CROSSCHECK_MAX_ORDER)
# with 1 to CROSSCHECK_MAX_RANK cyclic factors
CROSSCHECK_MAX_ORDER = 64
CROSSCHECK_MAX_RANK = 3


def _envelope(command: str, raw_input: str, result: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "input": raw_input,
        "result": result,
        "timing_ms": None,  # suppressed in JSON so identical inputs emit identical bytes
    }


def _write_json(obj, out: list[str], indent: str) -> None:
    """Append the pieces of ``obj``'s JSON text to ``out``; ``indent`` is
    the indentation of the line ``obj`` starts on.  Container items that
    are strings, booleans, None or ints are written in place, without a
    call."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        head = "{\n" + inner
        comma = ",\n" + inner
        for key, value in obj.items():
            cls = type(value)
            if cls is str:
                out.append(head + _quote(key) + ": " + _quote(value))
            elif cls is bool:
                out.append(head + _quote(key) + (": true" if value else ": false"))
            elif value is None:
                out.append(head + _quote(key) + ": null")
            elif cls is int:
                out.append(head + _quote(key) + ": " + int.__repr__(value))
            else:
                out.append(head + _quote(key) + ": ")
                _write_json(value, out, inner)
            head = comma
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        head = "[\n" + inner
        comma = ",\n" + inner
        for value in obj:
            cls = type(value)
            if cls is str:
                out.append(head + _quote(value))
            elif cls is int:
                out.append(head + int.__repr__(value))
            else:
                out.append(head)
                _write_json(value, out, inner)
            head = comma
        out.append("\n" + indent + "]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            out.append("NaN")
        elif obj == inf:
            out.append("Infinity")
        elif obj == -inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """The stdlib's ``json.dumps`` at ``indent=2``, byte for byte, for
    dicts with str keys, lists, tuples, str, numbers, booleans and None.

    The stdlib's C encoder cannot indent, so ``indent=2`` runs its
    pure-Python generator encoder; this writer quotes strings with the C
    ``encode_basestring_ascii`` and joins the pieces once.
    """
    out: list[str] = []
    _write_json(obj, out, "")
    return "".join(out)


def _emit(envelope: dict, as_json: bool, human_lines: list[str], started: float) -> None:
    if as_json:
        print(_dumps(envelope))
    else:
        for line in human_lines:
            print(line)
        print(f"timing: {(time.perf_counter() - started) * 1000:.1f} ms")


def _decision_lines(name: str, report) -> list[str]:
    lines = [f"{name}: {'true' if report.verdict else 'false'}"]
    for row in report.evidence:
        mark = "ok " if row.passed else "FAIL"
        detail = f" -- {row.detail}" if row.detail else ""
        lines.append(f"  [{mark}] {row.subject}: {row.condition}{detail}")
    return lines


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    text = args.expression
    if text == "-":
        text = sys.stdin.read().strip()
    group = canonicalize(parse(text))
    canonical = render(group)
    predicates = structural_predicates(group).to_dict()
    poor = is_poor(group)
    pure_split = is_pure_split(group)
    necessary = pi_poor_necessary(group)
    result = {
        "expression": text,
        "canonical": canonical,
        "predicates": predicates,
        "poor": poor.to_dict(),
        "pure_split": pure_split.to_dict(),
        "pi_poor_necessary": necessary.to_dict(),
    }
    lines = []
    if not args.json:
        lines = [
            f"expression: {text}",
            f"canonical : {canonical}",
            "predicates: " + " ".join(f"{k.removeprefix('is_')}={str(v).lower()}" for k, v in predicates.items()),
        ]
        lines += _decision_lines("poor", poor)
        lines += _decision_lines("pure_split", pure_split)
        lines += _decision_lines("pi_poor_necessary", necessary)
    _emit(_envelope("analyze", text, result), args.json, lines, started)
    return 0


# ---------------------------------------------------------------------------
# oracle


def _subgroup_row(index: int, sub: Subgroup) -> dict:
    gens = sub.generating_set()
    return {
        "index": index,
        "order": sub.order,
        "generators": " ".join("(" + ",".join(map(str, g)) + ")" for g in gens) or "0",
    }


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    command = args.oracle_command
    pair = command in ("rel-inj", "rel-pure-inj")
    if len(args.args) != 1 + pair:
        raise ValueError(f"{command} needs exactly {'two groups' if pair else 'one argument'}")
    if args.csv and (pair or command == "snf"):
        raise ValueError(f"--csv applies only to subgroups, pure and summand, not to {command}")
    if args.csv and args.json:
        raise ValueError("--csv and --json exclude each other")
    raw_input = " ".join(args.args)
    if command == "snf":
        matrix = _parse_matrix(raw_input)
        u, s, v = smith_normal_form(matrix)
        result = {"matrix": matrix, "diagonal": diagonal(s), "u": u, "s": s, "v": v}
        lines = [f"diagonal: {diagonal(s)}"]
    elif pair:
        m, n = map(FiniteAbelianGroup.from_string, args.args)
        decide = finite.is_relatively_injective if command == "rel-inj" else finite.is_relatively_pure_injective
        verdict = decide(m, n, bound=args.bound)
        result = {"m": str(m), "n": str(n), command.replace("-", "_"): verdict}
        lines = [f"{command}({m}, {n}) = {str(verdict).lower()}"]
    else:
        group = FiniteAbelianGroup.from_string(raw_input)
        subs = finite.enumerate_subgroups(group, bound=args.bound)
        rows = []
        for i, sub in enumerate(subs):
            row = _subgroup_row(i, sub)
            if command in ("pure", "summand"):
                row["pure"] = finite.is_pure_subgroup(sub, group)
            if command == "summand":
                row["summand"] = finite.is_direct_summand(sub, group)
            rows.append(row)
        if args.csv:  # every group has the zero subgroup, so rows[0] exists
            writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
            return 0
        result = {"group": str(group), "subgroup_count": len(subs), "rows": rows}
        lines = ["  ".join(f"{k}={v}" for k, v in row.items()) for row in rows]
    _emit(_envelope(f"oracle {command}", raw_input, result), args.json, lines, started)
    return 0


def _parse_matrix(text: str) -> list[list[int]]:
    rows = []
    for chunk in text.split(";"):
        try:
            rows.append([int(x) for x in chunk.split(",")])
        except ValueError:
            raise ValueError(f"cannot parse matrix row {chunk!r}")
    if len({len(r) for r in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    return rows


# ---------------------------------------------------------------------------
# crosscheck


def _group_of(groups: dict[tuple[int, ...], FiniteAbelianGroup], factors: list[int]) -> FiniteAbelianGroup:
    """The call's one group for a list of prime powers: ``groups`` keys
    each group by its drawn factors, sorted, before anything is built, so
    every group is built, and its caches filled, once per call."""
    key = tuple(sorted(factors))
    group = groups.get(key)
    if group is None:
        group = groups[key] = FiniteAbelianGroup(key)
    return group


def _random_group(rng: random.Random, max_order: int, primes: list[int],
                  groups: dict[tuple[int, ...], FiniteAbelianGroup]) -> FiniteAbelianGroup:
    while True:
        rank = rng.randint(1, CROSSCHECK_MAX_RANK)
        factors = [rng.choice(primes) ** rng.randint(1, 3) for _ in range(rank)]
        if prod(factors) <= max_order:
            return _group_of(groups, factors)


def _random_subgroup(rng: random.Random, group: FiniteAbelianGroup) -> Subgroup:
    count = rng.randint(0, 2)
    gens = [group.decode(rng.randrange(group.order)) for _ in range(count)]
    return Subgroup.generated_by(group, gens)


def _shrink_hom_instance(g, m, h, f):
    """Drop generators while the two extension deciders still disagree."""
    current = dict(f)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for key in sorted(current):
            trimmed = {k: v for k, v in current.items() if k != key}
            sub = Subgroup.generated_by(g, list(trimmed))
            try:
                snf_v = finite.hom_extends(trimmed, sub, g, m)
                brute_v = finite.hom_extends_bruteforce(trimmed, sub, g, m)
            except (AbelcheckError, ValueError):  # the deciders refuse this trimmed instance
                continue
            if snf_v != brute_v:
                current = trimmed
                h = sub
                changed = True
                break
    return h, current


def _hom_instance_dict(g, m, h, f, snf_v, brute_v) -> dict:
    return {
        "group": str(g),
        "target": str(m),
        "subgroup_generators": [list(k) for k in sorted(f)],
        "images": [list(f[k]) for k in sorted(f)],
        "snf_verdict": snf_v,
        "bruteforce_verdict": brute_v,
    }


def cmd_crosscheck(args) -> int:
    started = time.perf_counter()
    # Sampled groups need a prime to draw from and room for an order-2 factor.
    for flag, value, least in (("--count", args.count, 0), ("--bound", args.bound, 2),
                               ("--max-prime", args.max_prime, 2)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    rng = random.Random(args.seed)
    bound = args.bound
    max_order = min(bound, CROSSCHECK_MAX_ORDER)
    primes = [p for p in (2, 3, 5) if p <= args.max_prime]
    groups: dict[tuple[int, ...], FiniteAbelianGroup] = {}  # shared by the three suites
    checks = []
    failures = []

    def record(name: str, instances: int, found: list[dict]) -> None:
        checks.append({"name": name, "instances": instances, "failures": len(found),
                       "counterexamples": found[:3]})
        failures.extend(found)

    # 1. every sampled finite group is pure-split: decided once per
    # distinct group, and every draw of a failing group is reported
    found = []
    failing: dict[FiniteAbelianGroup, dict | None] = {}
    for _ in range(args.count):
        group = _random_group(rng, max_order, primes, groups)
        if group not in failing:
            witness = finite.first_pure_non_summand(group, bound=bound)
            failing[group] = None if witness is None else {
                "group": str(group),
                "pure_non_summand_generators": [list(g) for g in witness.generating_set()],
            }
        if failing[group] is not None:
            found.append(failing[group])
    record("pure_split_finite", args.count, found)

    # 2. relative injectivity between cyclic p-power groups follows m >= n
    table = [(p, e_m, e_n) for p in primes for e_m in range(1, 4) for e_n in range(1, 4)
             if p ** max(e_m, e_n) <= bound]
    found = []
    for p, e_m, e_n in table:
        got = finite.is_relatively_injective(
            _group_of(groups, [p**e_m]), _group_of(groups, [p**e_n]), bound=bound)
        if got != (e_m >= e_n):
            found.append({"p": p, "m_exponent": e_m, "n_exponent": e_n, "verdict": got})
    record("relative_injectivity_table", len(table), found)

    # 3. SNF-based extension decision agrees with exhaustive enumeration
    found = []
    drawn = 0
    while drawn < args.count:
        g = _random_group(rng, max_order, primes, groups)
        m = _random_group(rng, max_order, primes, groups)
        if hom_space_size(g, m) > CROSSCHECK_HOM_CAP:
            continue
        h = _random_subgroup(rng, g)
        f = finite.sample_homomorphism(h, m, rng)
        drawn += 1
        snf_v = finite.hom_extends(f, h, g, m)
        brute_v = finite.hom_extends_bruteforce(f, h, g, m)
        if snf_v != brute_v:
            h2, f2 = _shrink_hom_instance(g, m, h, f)
            found.append(_hom_instance_dict(g, m, h2, f2, snf_v, brute_v))
    record("hom_extends_dual", args.count, found)

    result = {
        "seed": args.seed,
        "count": args.count,
        "bound": bound,
        "max_prime": args.max_prime,
        "checks": checks,
        "total_failures": len(failures),
    }
    lines = [f"{c['name']}: {c['instances']} instances, {c['failures']} failures" for c in checks]
    _emit(_envelope("crosscheck", f"seed={args.seed}", result), args.json, lines, started)
    if failures:
        print(_dumps({"counterexamples": failures[:10]}), file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="abelcheck",
                                 description="Classify direct sums of uniform abelian groups "
                                             "and cross-check against a finite-group oracle.")
    ap.add_argument("--version", action="version", version=f"abelcheck {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the symbolic deciders on an expression")
    p_an.add_argument("expression", help="group expression, or '-' to read stdin")
    p_an.add_argument("--json", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_or = sub.add_parser("oracle", help="finite abelian group oracle")
    p_or.add_argument("oracle_command",
                      choices=["subgroups", "pure", "summand", "rel-inj", "rel-pure-inj", "snf"])
    p_or.add_argument("args", nargs="+")
    p_or.add_argument("--json", action="store_true")
    p_or.add_argument("--csv", action="store_true")
    p_or.add_argument("--bound", type=int, default=DEFAULT_ORDER_BOUND)
    p_or.set_defaults(func=cmd_oracle)

    p_cc = sub.add_parser("crosscheck", help="replay oracle consistency suites on random instances")
    p_cc.add_argument("--seed", type=int, default=0)
    p_cc.add_argument("--count", type=int, default=100)
    p_cc.add_argument("--bound", type=int, default=128,
                      help=f"oracle order bound; sampled groups have order <= min(bound, {CROSSCHECK_MAX_ORDER})")
    p_cc.add_argument("--max-prime", type=int, default=5)
    p_cc.add_argument("--json", action="store_true")
    p_cc.set_defaults(func=cmd_crosscheck)
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away (``| head``).  Point stdout at
        # devnull so the flush at exit cannot fail again, and exit 1 as
        # Python does on EPIPE (see the SIGPIPE note in the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ValueError) as err:
        message, code = f"parse error: {err}", 2
    except BoundExceeded as err:
        message, code = f"bound exceeded: {err}", 3
    except InternalConsistencyError as err:
        message, code = f"invariant violation: {err}", 4
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
