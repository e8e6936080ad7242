"""The four benchmark workloads: seeded inputs, the timed run, known answers.

Each workload has a ``prepare(seed)`` that builds its inputs (counted in
``setup_s``) and a ``run(inputs, ops)`` that does the timed work and returns
an :class:`Outcome`.  ``ops`` is the :class:`tracing.Recorder`; the
``towers`` workload records the latency of each of its operations there.

Known answers come from the mathematics, never from a stored report: the
condition checks and lemma oracles are theorems, so every verdict must be a
pass; field identities and exponent-2 axioms hold exactly; normal forms are
canonical, so both Britton strategies must reach the same one; and an edge
relation ``t src^k t^-1 = tgt^k`` holds by the definition of the group.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
from dataclasses import dataclass, field
from time import perf_counter

from grouptower import cli
from grouptower.tower import (
    ExtensionTower,
    MembershipUndecided,
    britton_reduce,
    equal,
    in_cyclic,
    nf_word,
)
from grouptower.words import GENERATOR, STABLE, Letter, Word, generator, parse_word, sort_key, stable

# report verdicts that agree with the known answer / that count as undecided
EXPECTED_VERDICTS = {"ok", "pass", "vacuous_pass"}
UNDECIDED_VERDICT = "undecided"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    extra: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(what)


# --------------------------------------------------------------------------
# CLI workloads: build, lemmas, exact
# --------------------------------------------------------------------------

BUILD_ARGS = ["build", "--stages", "2", "--radius", "2", "--power-bound", "4", "--check-candidates", "1000"]
LEMMAS_ARGS = ["lemmas", "--radius", "2", "--power-bound", "4", "--order-bound", "5", "--cap", "4000"]
EXACT_ARGS = [["field", "--cap", "100"], ["minstruct", "--bound", "7"]]


def _cli_prepare(commands: list[list[str]], seed: int) -> list[list[str]]:
    return [args + ["--seed", str(seed), "--format", "structured"] for args in commands]


def _cli_run(argvs: list[list[str]], ops) -> Outcome:
    """Run each command in-process; every report check is one verdict."""
    out = Outcome()
    digest = hashlib.sha256()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        digest.update(text.encode())
        report = json.loads(text)
        for check in report["checks"]:
            out.attempted += 1
            verdict = check["verdict"]
            undecided = int(check["details"].get("undecided", 0))
            if verdict == UNDECIDED_VERDICT or (verdict in EXPECTED_VERDICTS and undecided):
                out.undecided += 1
            elif verdict not in EXPECTED_VERDICTS:
                out.fail(f"{argv[0]}:{check['id']}={verdict}")
        if code != 0 and not out.failed:
            out.fail(f"{argv[0]}: exit code {code}")
    out.digest = digest.hexdigest()
    return out


# --------------------------------------------------------------------------
# towers: extension and normal-form queries over many fresh towers
# --------------------------------------------------------------------------

RANDOM_TOWERS = 600
WORDS_PER_TOWER = 4
SPECIAL_WORDS = 120          # words on each of the two fixed towers
MAX_WORD_UNITS = 12
POWERS = (1, 2, 3, -2, 6)
TOWER_TIME_LIMIT_S = 60.0   # a tower whose queries overrun this fails the run

# ROADMAP item 1: a = t1^-1 g0 t1 satisfies a^6 = g0, a distorted edge
REPRODUCER = [(parse_word("g0"), parse_word("g0^6")), (parse_word("t1^-1 g0 t1"), parse_word("g0"))]


def _units(rank: int, steps: int) -> list[Word]:
    out = []
    for i in range(rank):
        out += [Word((Letter(GENERATOR, i, 1),)), Word((Letter(GENERATOR, i, -1),))]
    for s in range(1, steps + 1):
        out += [Word((Letter(STABLE, s, 1),)), Word((Letter(STABLE, s, -1),))]
    return out


def _random_word(rng: random.Random, alphabet: list[Word], low: int, high: int) -> Word:
    w = Word()
    for _ in range(rng.randint(low, high)):
        w = w * rng.choice(alphabet)
    return w


def _random_steps(rng: random.Random) -> list[tuple[Word, Word] | None]:
    """2-4 steps over a rank-2 base: free steps, edges of at most two units,
    and at most one BS(1,n)-type edge g -> g^n on a base generator.

    No other edge is a power pair ``x^m -> x^n`` of one letter, and no later
    edge uses the BS step's stable letter: distortion nested on distortion
    can make one query run for minutes (see the nested-distortion finding
    in baseline.json), so that shape is kept out of the timed stream.  The
    item-1 reproducer tower, probed beside the stream, covers one level of
    nesting at a fixed input.
    """
    count = rng.randint(2, 4)
    bs_step = rng.randrange(count) if rng.random() < 0.5 else None
    steps: list[tuple[Word, Word] | None] = []
    for s in range(count):
        if s == bs_step:
            g = generator(rng.randrange(2))
            steps.append((g, g ** rng.choice((2, 3, 6))))
        elif rng.random() < 0.25:
            steps.append(None)
        else:
            alphabet = [u for u in _units(2, s) if bs_step is None or u.letters[0].symbol != (STABLE, bs_step + 1)]
            while True:
                src = _random_word(rng, alphabet, 1, 2)
                tgt = _random_word(rng, alphabet, 1, 2)
                power_pair = len(src.letters) == len(tgt.letters) == 1 and src.letters[0].symbol == tgt.letters[0].symbol
                if src and tgt and not power_pair:
                    break
            steps.append((src, tgt))
    return steps


def _classical_steps() -> list[tuple[Word, Word]]:
    """The radius-1 pair-letter tower: one edge T s T^-1 = t per ordered
    pair of nonidentity radius-1 elements of the rank-2 free base."""
    ball = sorted(_units(2, 0), key=sort_key)
    return [(s, t) for s in ball for t in ball]


def _towers_plans(seed: int) -> list[tuple[str, list, list[Word]]]:
    rng = random.Random(f"towers:{seed}")
    plans = []
    for _ in range(RANDOM_TOWERS):
        steps = _random_steps(rng)
        words = [_random_word(rng, _units(2, len(steps)), 0, MAX_WORD_UNITS) for _ in range(WORDS_PER_TOWER)]
        plans.append(("random", steps, words))
    for kind, steps in (("reproducer", REPRODUCER), ("classical", _classical_steps())):
        words = [_random_word(rng, _units(2, len(steps)), 0, MAX_WORD_UNITS) for _ in range(SPECIAL_WORDS)]
        plans.append((kind, steps, words))
    return plans


def towers_prepare(seed: int) -> list[tuple[str, list, list[Word]]]:
    """The timed stream: the random towers and the classical tower.  The
    item-1 reproducer's words are drawn too, so the stream does not depend
    on them, but go to :func:`reproducer_words`: on some of them the two
    Britton strategies disagree at this version (seed 2005 draws one), and a
    stream that fails on some seeds cannot be gated."""
    return [plan for plan in _towers_plans(seed) if plan[0] != "reproducer"]


class TowerTimeout(BaseException):
    """One tower's operations overran TOWER_TIME_LIMIT_S (raised by SIGALRM)."""


def _on_alarm(signum, frame):
    raise TowerTimeout


def towers_run(plans, ops) -> Outcome:
    out = Outcome()
    digest = hashlib.sha256()
    undecided_by_kind = {"random": 0, "classical": 0}
    record = ops.record

    def attempt(kind: str, fn):
        """One timed operation; returns its value, or None when undecided.
        Any raise other than MembershipUndecided is a failed operation."""
        out.attempted += 1
        start = perf_counter()
        try:
            value = fn()
        except MembershipUndecided:
            out.undecided += 1
            undecided_by_kind[kind] += 1
            digest.update(b"?")
            value = None
        except Exception as exc:
            out.fail(f"{kind}: {type(exc).__name__}: {exc}")
            value = None
        finally:
            record(perf_counter() - start)
        return value

    def one_tower(kind, steps, words):
        tower = ExtensionTower(2)
        for edge in steps:
            tower = attempt(kind, (lambda: tower.extend_free()) if edge is None else (lambda: tower.extend_hnn(*edge)))
            if tower is None:
                return  # an undecided extension leaves no tower to query
        for w in words:
            pair = attempt(kind, lambda: (
                nf_word(britton_reduce(w, tower, "leftmost"), tower),
                nf_word(britton_reduce(w, tower, "rightmost"), tower),
            ))
            if pair is not None:
                digest.update(str(pair[0]).encode() + b";")
                if pair[0] != pair[1]:
                    out.fail(f"{kind}: strategies disagree on {w}: {pair[0]} vs {pair[1]}")
        for step in tower.steps:
            if step.is_free:
                continue
            t = stable(step.stage)
            for k in POWERS:
                holds = attempt(kind, lambda: (
                    nf_word(t * step.source ** k * t.inverse(), tower) == nf_word(step.target ** k, tower)
                ))
                if holds is False:
                    out.fail(f"{kind}: t{step.stage} ({step.source})^{k} t^-1 != ({step.target})^{k}")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for kind, steps, words in plans:
            signal.setitimer(signal.ITIMER_REAL, TOWER_TIME_LIMIT_S)
            try:
                one_tower(kind, steps, words)
            except TowerTimeout:
                out.fail(f"{kind}: tower {steps} did not finish within {TOWER_TIME_LIMIT_S} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    out.digest = digest.hexdigest()
    out.extra["undecided_by_kind"] = undecided_by_kind
    return out


def _reproducer_tower() -> ExtensionTower:
    tower = ExtensionTower(2)
    for src, tgt in REPRODUCER:
        tower = tower.extend_hnn(src, tgt)
    return tower


def reproducer_words(seed: int) -> dict:
    """The seed's random words on the ROADMAP item-1 tower, each normal-formed
    with both Britton strategies, in a fresh process outside the timed
    stream.  Returns how many end undecided and the words whose strategies
    disagree (normal forms are canonical, so one of the two is wrong)."""
    [(_, _, words)] = [plan for plan in _towers_plans(seed) if plan[0] == "reproducer"]
    tower = _reproducer_tower()
    wrong, undecided = [], 0
    for w in words:
        try:
            left = nf_word(britton_reduce(w, tower, "leftmost"), tower)
            right = nf_word(britton_reduce(w, tower, "rightmost"), tower)
        except MembershipUndecided:
            undecided += 1
            continue
        if left != right:
            wrong.append(f"strategies disagree on {w}: {left} vs {right}")
    return {"words": len(words), "words_wrong": wrong, "words_undecided": undecided}


def reproducer_checks() -> dict:
    """Known answers on the ROADMAP item-1 tower, asked in a fresh process
    outside the timed stream.

    Order matters at this version: the power table of ``a = t1^-1 g0 t1``
    grows as queries arrive, and an answer cached before it has grown stays
    wrong.  So ``t2 g0 t2^-1 = g0^6`` is asked first, as a user's first
    query would be, then ``g0 = a^6`` by ``in_cyclic``, then the ten edge
    relations at POWERS.  Returns the checks the program gets wrong or leaves
    undecided.
    """
    tower = _reproducer_tower()
    checks = [
        ("equal t2 g0 t2^-1 = g0^6", True,
         lambda: equal(parse_word("t2 g0 t2^-1"), parse_word("g0^6"), tower)),
        ("in_cyclic g0 in <t1^-1 g0 t1>", 6,
         lambda: in_cyclic(parse_word("g0"), REPRODUCER[1][0], tower.truncate(1))),
    ]
    for step in tower.steps:
        t = stable(step.stage)
        for k in POWERS:
            checks.append((f"relation t{step.stage} ({step.source})^{k} t{step.stage}^-1 = ({step.target})^{k}", True,
                           lambda step=step, t=t, k=k: nf_word(t * step.source ** k * t.inverse(), tower)
                           == nf_word(step.target ** k, tower)))
    wrong, undecided = [], []
    for name, expected, fn in checks:
        try:
            if fn() != expected:
                wrong.append(name)
        except MembershipUndecided:
            undecided.append(name)
    return {"checks": len(checks), "wrong": wrong, "undecided": undecided}


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    # single operations a sample times, which fixes the tail percentile; 1
    # means the whole command is the one operation (the CLI workloads make
    # too few calls, of too different sizes, for a latency distribution)
    ops_per_sample: int


WORKLOADS = {
    "build": Workload(lambda seed: _cli_prepare([BUILD_ARGS], seed), _cli_run, 1),
    "lemmas": Workload(lambda seed: _cli_prepare([LEMMAS_ARGS], seed), _cli_run, 1),
    "towers": Workload(towers_prepare, towers_run, 3000),
    "exact": Workload(lambda seed: _cli_prepare(EXACT_ARGS, seed), _cli_run, 1),
}
