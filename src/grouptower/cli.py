"""Command-line entry point.

Subcommands: ``reduce`` (normal form of a word over a tower file), ``build``
(scheduled tower construction plus condition checks), ``lemmas`` (the full
oracle suite), ``field`` (exact matrix identity suite, or one evaluated
instance), ``minstruct`` (axiom suites, chain cross-check, embedding) and
``classical`` (pair-letter construction and centralizer witnesses).

Each suite command is one call of a library suite function, the same one the
acceptance criteria call: ``constructions.build_suite`` (``build``),
``oracles.run_standard_suite`` and ``oracles.tower_suite`` (``lemmas``),
``fieldext.field_suite`` (``field`` without ``--n``),
``minstruct.minstruct_suite`` and ``constructions.classical_suite``.

Reports print as text by default; ``--format structured`` emits canonical
JSON that is byte-identical across runs with the same configuration.
Exit status is 0 when every check passes, 1 when some check reports a
counterexample, failure or error, and 2 on invalid input (printed as
``error: ...``).
"""
from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import constructions, fieldext, minstruct, oracles
from .report import RunReport
from .tower import (
    ExtensionTower,
    MembershipUndecided,
    parse_tower,
    nf_word,
)
from .words import parse_word


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grouptower")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("reduce", parents=[common], help="print the normal form of a word")
    p.add_argument("word")
    p.add_argument("--tower", help="tower description file (default: bare rank-2 free group)")

    p = sub.add_parser("build", parents=[common], help="run the scheduled tower construction")
    p.add_argument("--stages", type=int, default=4)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--power-bound", type=int, default=4)
    p.add_argument("--check-candidates", type=int, default=200)

    p = sub.add_parser("lemmas", parents=[common], help="run the lemma oracle suite")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--power-bound", type=int, default=4)
    p.add_argument("--order-bound", type=int, default=5)
    p.add_argument("--cap", type=int, default=4000)
    p.add_argument("--tower", help="run every oracle on this tower file instead of the references")

    p = sub.add_parser("field", parents=[common], help="exact extension-matrix identities")
    p.add_argument("--n", type=int, help="evaluate one instance of this degree")
    p.add_argument("--b", help="comma-separated coefficients b0,b1,...")
    p.add_argument("--alpha", default="1", help="exact scalar, e.g. 3/2")
    p.add_argument("--beta", default="2")
    p.add_argument("--cap", type=int, default=100, help="random instances per degree in suite mode")

    p = sub.add_parser("minstruct", parents=[common], help="ordered exponent-2 group checks")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--support-bound", type=int, default=6)
    p.add_argument("--embed-bound", type=int, default=6)

    p = sub.add_parser("classical", parents=[common], help="pair-letter construction")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--t-elt", default="g0")

    return parser


def _load_tower(path: str | None) -> ExtensionTower:
    if path is None:
        return ExtensionTower(2)
    return parse_tower(Path(path).read_text())


def cmd_reduce(args) -> tuple[RunReport, str | None]:
    tower = _load_tower(args.tower)
    word = parse_word(args.word)
    result = nf_word(word, tower)
    report = RunReport("reduce", {"word": args.word, "tower": args.tower or "(rank-2 free)"})
    report.add("normal-form", "ok", {"input": str(word), "normal_form": str(result)})
    return report, str(result)


def cmd_build(args) -> tuple[RunReport, None]:
    return constructions.build_suite(
        args.stages, args.radius, args.power_bound, args.check_candidates, args.seed
    ), None


def cmd_lemmas(args) -> tuple[RunReport, None]:
    report = RunReport(
        "lemmas",
        {
            "radius": args.radius,
            "power_bound": args.power_bound,
            "order_bound": args.order_bound,
            "cap": args.cap,
            "seed": args.seed,
            "tower": args.tower or "(reference towers)",
        },
    )
    if args.tower is None:
        results = oracles.run_standard_suite(
            radius=args.radius,
            power_bound=args.power_bound,
            order_bound=args.order_bound,
            sample_cap=args.cap,
            seed=args.seed,
        )
    else:
        verdicts = oracles.tower_suite(
            _load_tower(args.tower), args.radius, 2, args.power_bound, args.order_bound, args.cap, args.seed
        )
        results = [("tower", verdict) for verdict in verdicts]
    for name, verdict in results:
        report.add(
            f"{verdict.lemma_id}@{name}",
            verdict.outcome,
            {
                "checked": verdict.checked,
                "premise_hits": verdict.premise_hits,
                "undecided": verdict.undecided,
            },
            witnesses=[" | ".join(w) for w in verdict.witnesses[:8]],
        )
    return report, None


def cmd_field(args) -> tuple[RunReport, str | None]:
    if args.n is not None:
        coeffs = [Fraction(c) for c in (args.b or "1,1").split(",")]
        if len(coeffs) != args.n:
            raise ValueError(f"need {args.n} coefficients, got {len(coeffs)}")
        spec = fieldext.ExtFieldSpec(tuple(coeffs))
        alpha, beta = Fraction(args.alpha), Fraction(args.beta)
        mul = fieldext.mul_matrix(alpha, spec)
        inv = fieldext.explicit_inverse(alpha, spec)
        m = fieldext.m_matrix(alpha, beta, spec)
        entry = fieldext.m_entry_formula(alpha, beta, spec)
        report = RunReport(
            "field",
            {"n": args.n, "b": args.b or "1,1", "alpha": str(alpha), "beta": str(beta)},
        )
        report.add(
            "instance",
            "pass" if m.entry(spec.m - 1, spec.m) == entry else "fail",
            {
                "mul_rows": mul.format_rows().split("\n"),
                "inverse_rows": inv.format_rows().split("\n"),
                "m_rows": m.format_rows().split("\n"),
                "entry_formula": str(entry),
            },
        )
        text = "\n".join(
            ["mul:", mul.format_rows(), "inverse:", inv.format_rows(), "m:", m.format_rows(),
             f"entry(m-1,m) = {entry}"]
        )
        return report, text
    return fieldext.field_suite(args.cap, args.seed), None


def cmd_minstruct(args) -> tuple[RunReport, None]:
    return minstruct.minstruct_suite(args.bound, args.support_bound, args.embed_bound), None


def cmd_classical(args) -> tuple[RunReport, None]:
    report = constructions.classical_suite(args.radius, args.count, args.t_elt)
    report.config["seed"] = args.seed
    return report, None


_HANDLERS = {
    "reduce": cmd_reduce,
    "build": cmd_build,
    "lemmas": cmd_lemmas,
    "field": cmd_field,
    "minstruct": cmd_minstruct,
    "classical": cmd_classical,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report, plain = _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError, MembershipUndecided, oracles.CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "structured":
        sys.stdout.write(report.to_json())
    elif plain is not None:
        print(plain)
    else:
        sys.stdout.write(report.to_text(elapsed=time.monotonic() - started))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
