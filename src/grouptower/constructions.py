"""Finite-stage surrogates of two tower constructions over a free base.

The classical construction adjoins, per step, one stable letter ``T_st`` for
every ordered pair of nonidentity ball elements, forcing ``T_st s T_st^-1 = t``.
Centralizers blow up: triple products ``T_st T_rs T_tr`` over distinct pairs
``(r, s)`` all commute with ``t``, and there is one witness per pair.
:func:`classical_suite` checks both facts; the CLI and the acceptance
criteria share it.

The scheduled construction starts from the rank-2 free group and alternates
free-product steps with cyclic-edge steps ``t x t^-1 = z`` that conjugate a
fixed element ``x`` onto queued witnesses ``z``, chosen oldest-first.  A
ledger keyed by :func:`cyclic_key` tracks which elements are certified
conjugate to a power of ``x`` so far, so a queued witness's own key answers
whether it is certified; condition checks probe, at bounded radius, that
each step grew the group, kept centralizers of ledger elements inside the
previous stage, preserved the root-rigidity property of non-ledger
elements, and made monotone conjugation progress.
:func:`build_suite` runs the construction and these checks; the CLI and the
acceptance criteria share it.

The base here is a plain free group, so one-conjugacy-class behaviour of the
true starting group is not reproduced; the ledger records only certified
conjugations and every certificate is replayable.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial

from .oracles import _scan, _scan_hits
from .report import CheckResult, RunReport
from .words import IDENTITY, Word, generator, max_stage, parse_word, sort_key, stable
from .tower import (
    ExtensionTower,
    MembershipUndecided,
    PreconditionViolated,
    _commutes_nf,
    _conjugate_pinches,
    _member_nf,
    _nf,
    _nf_product,
    _nonzero_rational_image,
    ball_words,
    commutes,
    cyclically_reduce,
    nf_word,
    root_witness,
)


class InsufficientPairs(Exception):
    """The ball could not supply the requested number of witness pairs."""


# --------------------------------------------------------------------------
# conjugacy ledger
# --------------------------------------------------------------------------


def cyclic_key(w: Word, tower: ExtensionTower) -> tuple[Word, Word]:
    """Canonical representative of the cyclic word of ``w``.

    Returns ``(key, carrier)`` with ``carrier^-1 w carrier == key``; the key
    is the sort-minimal normal form over all rotations of the cyclically
    reduced form, so conjugates that differ by rotation share a key.
    """
    c, conj = cyclically_reduce(w, tower)
    units = c.units()
    best = _nf(c, tower)
    carrier = conj
    for j in range(1, len(units)):
        rotated = _nf(Word(units[j:] + units[:j]), tower)
        if sort_key(rotated) < sort_key(best):
            best = rotated
            carrier = conj * Word(units[:j])
    return best, _nf(carrier, tower)


@dataclass(frozen=True)
class ConjugacyLedger:
    """Certificates for elements known conjugate to powers of ``x``: the
    cyclic key of each, in the order certified, maps to ``(c, power)`` with
    ``c x^power c^-1 == key`` and ``power != 0``.  Like
    :attr:`ClassicalState.pair_stage`, no dict is mutated after its ledger
    is built."""

    x: Word
    entries: dict[Word, tuple[Word, int]] = field(default_factory=dict)

    def contains(self, w: Word, tower: ExtensionTower) -> bool:
        return cyclic_key(w, tower)[0] in self.entries

    def with_element(self, y: Word, conjugator: Word, power: int, tower: ExtensionTower) -> "ConjugacyLedger":
        """Record ``y == conjugator x^power conjugator^-1`` (verified here)."""
        if power == 0:
            raise ValueError("ledger powers are nonzero")
        check = nf_word(conjugator * self.x ** power * conjugator.inverse(), tower)
        if check != nf_word(y, tower):
            raise ValueError(f"certificate does not verify: {conjugator}, {power} vs {y}")
        key, carrier = cyclic_key(y, tower)
        if key in self.entries:
            return self
        cert = (nf_word(carrier.inverse() * conjugator, tower), power)
        return ConjugacyLedger(self.x, {**self.entries, key: cert})

    def verify(self, tower: ExtensionTower) -> bool:
        return all(
            nf_word(c * self.x ** power * c.inverse(), tower) == key
            for key, (c, power) in self.entries.items()
        )

    def __len__(self) -> int:
        return len(self.entries)


# --------------------------------------------------------------------------
# scheduled tower construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QueueEntry:
    creation_stage: int
    witness: Word      # the pending conjugation target z
    key: Word          # cyclic key of z, for deduplication and the ledger test;
                       # it depends only on the stages z reaches


@dataclass(frozen=True)
class ConstructionState:
    tower: ExtensionTower
    x: Word
    radius: int
    power_bound: int
    ledger: ConjugacyLedger
    z_record: dict[Word, Word] = field(default_factory=dict)  # nf(y) -> chosen witness z_y
    z_queue: tuple[QueueEntry, ...] = ()
    consumed: tuple[tuple[int, Word], ...] = ()
    fractions: tuple[tuple[float, float], ...] = ()  # (seed-ball fraction, current-ball fraction)

    @property
    def stage(self) -> int:
        return self.tower.num_steps

    def power_window(self) -> int:
        return max(self.radius, self.power_bound) + 2


def z_witness(y: Word, state: ConstructionState) -> Word:
    """The stable conjugation target for ``y``: its minimal root, recorded on
    first sight and reused afterwards."""
    tower = state.tower
    y_nf = nf_word(y, tower)
    if not y_nf:
        raise PreconditionViolated("z witnesses exist only for nonidentity elements")
    if state.ledger.contains(y_nf, tower):
        raise PreconditionViolated("element is already certified conjugate to x")
    recorded = state.z_record.get(y_nf)
    return root_witness(y_nf, tower) if recorded is None else recorded


def _scan_witnesses(state: ConstructionState) -> ConstructionState:
    """Enqueue witnesses for ball elements not yet certified conjugate to x,
    and append the certified fractions of the seed ball and of the ball;
    normal forms are stage-local, so the seed ball lies in the ball."""
    tower = state.tower
    ledger = state.ledger
    record = dict(state.z_record)
    queued = {entry.key for entry in state.z_queue}
    fresh: list[QueueEntry] = []
    ball = [y for y in ball_words(tower, state.radius) if y]
    certified: set[Word] = set()
    for y in ball:
        if ledger.contains(y, tower):
            certified.add(y)
            continue
        if y in record:
            continue
        try:
            z = root_witness(y, tower)
        except MembershipUndecided:
            continue
        record[y] = z
        key, _ = cyclic_key(z, tower)
        if key in queued or key in ledger.entries:
            continue
        queued.add(key)
        fresh.append(QueueEntry(state.stage, nf_word(z, tower), key))
    fresh.sort(key=lambda e: sort_key(e.witness))
    seed = [y for y in ball_words(tower.truncate(0), state.radius) if y]
    fractions = tuple(sum(y in certified for y in part) / len(part) if part else 1.0 for part in (seed, ball))
    return replace(
        state,
        z_record=record,
        z_queue=state.z_queue + tuple(fresh),
        fractions=state.fractions + (fractions,),
    )


def initial_state(radius: int = 2, power_bound: int = 4) -> ConstructionState:
    """Stage-0 state over a rank-2 free base: seed group, distinguished
    element x = g0, seeded ledger."""
    if power_bound < 1:
        raise ValueError("power bound must be at least 1")
    if radius < 1:
        raise ValueError("radius must be at least 1, or the condition checks test no element")
    tower = ExtensionTower(2)
    x = generator(0)
    state = ConstructionState(
        tower=tower,
        x=x,
        radius=radius,
        power_bound=power_bound,
        ledger=ConjugacyLedger(x),
    )
    ledger = state.ledger
    for n in range(1, state.power_window() + 1):
        ledger = ledger.with_element(x ** n, IDENTITY, n, tower)
        ledger = ledger.with_element(x ** -n, IDENTITY, -n, tower)
    return _scan_witnesses(replace(state, ledger=ledger))


def tower_step(state: ConstructionState) -> ConstructionState:
    """One construction step: odd steps adjoin a free factor, even steps
    conjugate x onto the oldest pending witness (falling back to a free step
    when the queue is exhausted)."""
    idx = state.stage + 1
    tower = state.tower
    ledger = state.ledger
    queue = list(state.z_queue)
    consumed = state.consumed
    if idx % 2 == 1:
        new_tower = tower.extend_free()
    else:
        chosen = None
        remaining: list[QueueEntry] = []
        for entry in queue:
            if chosen is None and entry.key not in ledger.entries:
                chosen = entry
            else:
                remaining.append(entry)
        if chosen is None:
            new_tower = tower.extend_free()
        else:
            queue = remaining
            z = chosen.witness
            new_tower = tower.extend_hnn(state.x, z)
            t_word = stable(new_tower.num_steps)
            for n in range(1, state.power_window() + 1):
                ledger = ledger.with_element(nf_word(z ** n, new_tower), t_word, n, new_tower)
                ledger = ledger.with_element(nf_word(z ** -n, new_tower), t_word, -n, new_tower)
            consumed = consumed + ((idx, z),)
    return _scan_witnesses(replace(
        state,
        tower=new_tower,
        ledger=ledger,
        z_queue=tuple(queue),
        consumed=consumed,
    ))


def run_construction(stages: int, **kwargs) -> ConstructionState:
    state = initial_state(**kwargs)
    for _ in range(stages):
        state = tower_step(state)
    return state


# --------------------------------------------------------------------------
# condition checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """The four ``condition-*`` rows of a ``build`` report, and the tuples
    checked and left undecided over all of them."""

    checks: tuple[CheckResult, ...]
    checked: int
    undecided: int


def _candidate_pool(state: ConstructionState, minimum: int, seed: int) -> list[Word]:
    """Ball elements plus seeded random words, at least ``minimum`` distinct."""
    tower = state.tower
    pool = list(ball_words(tower, state.radius))
    seen = set(pool)
    rng = random.Random(f"cond-candidates-{seed}")
    units = [u.letters[0] for u in tower.alphabet()]
    attempts = 0
    while len(pool) < minimum and attempts < 80 * minimum:
        attempts += 1
        w = Word([rng.choice(units) for _ in range(rng.randint(1, state.radius + 3))])
        v = nf_word(w, tower)
        if v not in seen:
            seen.add(v)
            pool.append(v)
    return pool


def check_conditions(
    state: ConstructionState, min_centralizer_candidates: int = 1000, seed: int = 0
) -> ConditionReport:
    """Probe the step conditions at the state's radius and power bound.

    Growth: the fresh stable letter is not absorbed.  Centralizers: ledger
    elements gain no centralizing element involving the newest letter.
    Rigidity: for non-ledger ball elements y with witness z, any conjugate
    ``w y^m w^-1`` landing in <z> forces w into <z>.  Progress: the fraction
    of the seed ball certified conjugate to x never decreases.  The two
    probe rows run one :func:`oracles._scan` per element, and an element
    whose witness is undecided counts all its rigidity tuples as undecided.
    Each row keeps up to four counterexamples per element as witnesses.

    Tables share verdicts by group-axiom identities, never by the condition
    under test; every tuple is still counted.  The premise tables and
    Britton verdicts of the rigidity row live for one inverse pair
    ``{y, y^-1}``, scanned back to back (witnesses stay in ball order), those
    of the centralizer row for one ledger element, the others for one call.
    ``[k, y] = e`` iff ``[k, y^-1] = e``, and it implies ``[k, y^2] = e``:
    one commutation test serves y and y^-1, and a k that fails to commute
    with a ledger element's square (when that square is in the ledger ball)
    fails for the element.  ``w y^-m w^-1 = (w y^m w^-1)^-1`` and
    ``(w y^m w^-1)^k = w y^km w^-1``: y and y^-1 share premise verdicts when
    their witnesses generate one <z>, a premise failure at a multiple of m
    (the largest tested first) is a failure at m, a power of y conjugates
    y^m as e does, and ``w in <z>`` is tested once per (<z>, w).

    Most rigidity premises are commutation tests.  z is a root of y, so
    ``y = z^d`` with ``d != 0``.  When y is nonzero in ``H1(G; Q)``
    (:func:`tower._nonzero_rational_image`), a map ``f: G -> Q`` with
    ``f(y) != 0`` takes a conjugate ``z^j`` of ``y^n`` to ``j f(z) = nd f(z)``,
    so ``j = nd`` and the premise holds iff ``w y^n = y^n w``.  A w that
    commutes with y^m commutes with every power of it, so these premises
    first take one pre-test per w, whether w commutes with ``y^N`` for
    ``N = b(b-1)`` and the power bound b (``N = 1`` when ``b = 1``), its
    verdict kept in the premise table: a failure decides every m that
    divides N, which is every m when ``b <= 4``, and the other m keep the
    order above (``lcm(1..b)`` would decide every m, but its powers of y
    grow too long).  Both rows test commutation by
    :func:`tower._commutes_nf`.  For the other y the premise is a membership
    test in <z>, after the Britton test :func:`tower._conjugate_pinches`
    when w's top stage lies above z and y^n.  Each element's scan gets only
    the ``(w, m)`` that meet the premise, in scan order, and counts the
    others as checked (:func:`oracles._scan_hits`); a premise that raises
    streams its tuple, so the scan raises again and counts it as undecided.
    """
    if state.stage < 1:
        raise PreconditionViolated("condition checks need at least one step")
    tower = state.tower
    top = tower.num_steps

    fresh = stable(top)
    growth_pass = bool(nf_word(fresh, tower)) and max_stage(nf_word(fresh, tower)) == top

    ball = ball_words(tower, state.radius)
    pool = _candidate_pool(state, min_centralizer_candidates, seed)
    in_ledger = {y: state.ledger.contains(y, tower) for y in ball if y}
    ledger_ball = [y for y, known in in_ledger.items() if known]
    outside = [y for y, known in in_ledger.items() if not known]

    # ball words are normal forms, and the ball is closed under inverses
    inverse = {w: _nf(w.inverse(), tower) for w in ball}
    # the one key of y and y^-1 in the shared tables
    pair = {w: frozenset((w, inverse[w])) for w in ball}
    # verdicts shared within this call
    commuting: dict[tuple[Word, frozenset], bool] = {}
    within: dict[tuple[frozenset, Word], bool] = {}
    nonzero_image = _nonzero_rational_image(tower)
    # the power N = b(b-1) of the commutation pre-test
    common = max(state.power_bound * (state.power_bound - 1), 1)

    squares: dict[Word, Word] = {}
    for y in ledger_ball:
        square = _nf(y ** 2, tower)
        if in_ledger.get(square):
            squares[y] = square

    def commute(k: Word, y: Word, verdicts: dict) -> bool:
        """``k y == y k``, one answer for y and y^-1."""
        key = (k, pair[y])
        if key not in commuting:
            commuting[key] = _commutes_nf(k, y, tower, verdicts)
        return commuting[key]

    def escapes(y: Word, verdicts: dict, k: Word) -> bool:
        """Premise: normal form ``k`` involves the newest letter (only such
        candidates are scanned).  Conclusion: ``k y != y k``."""
        # a k that does not commute with y^2 does not commute with y
        if y in squares and not commute(k, squares[y], verdicts):
            return True
        return not commute(k, y, verdicts)

    def meets(z: Word, by_commutation: bool, premises: dict[tuple[Word, int], bool], verdicts: dict,
              powers: list[Word], cyclic: set[Word], w: Word, m: int) -> bool:
        """Premise of ``(w, m)``: ``w y^m w^-1`` lies in <z>."""
        # a power of y commutes with y^n, so it conjugates y^n as e does
        v = IDENTITY if w in cyclic else w
        if by_commutation and v and not common % m:
            # w commutes with y^m only if it commutes with y^common, a multiple of m
            verdict = premises.get((v, common))
            if verdict is None:
                verdict = premises[v, common] = _commutes_nf(v, powers[-1], tower, verdicts)
            if not verdict:
                return False
        # (w y^m w^-1)^k = w y^km w^-1: a failure at a multiple of m is a
        # failure at m; the largest multiple is tested first
        for n in range(state.power_bound // m * m, 0, -m):
            verdict = premises.get((v, n))
            if verdict is None:
                y_n = powers[n - 1]
                if by_commutation:
                    # y = z^d, and a map to Q nonzero on y takes a conjugate
                    # z^j of y^n to j = nd: the conjugate is y^n itself
                    verdict = not v or _commutes_nf(v, y_n, tower, verdicts)
                elif (v and max_stage(w) > max(max_stage(z), max_stage(y_n))
                      and not _conjugate_pinches(w, y_n, tower, verdicts)):
                    # Britton: the conjugate keeps w's top letter, and z lies below it
                    verdict = False
                else:
                    conj = _nf_product(_nf_product(w, y_n, tower), inverse[w], tower) if v else y_n
                    verdict = _member_nf(conj, z, tower) is not None
                premises[v, n] = verdict
            if not verdict:
                return False
        return True

    def hits_of(z: Word, by_commutation: bool, premises: dict[tuple[Word, int], bool], verdicts: dict,
                powers: list[Word], cyclic: set[Word], w: Word) -> list[tuple[Word, int]]:
        """The ``(w, m)`` meeting the premise, in scan order, and those whose
        premise raises."""
        v = IDENTITY if w in cyclic else w
        hits = []
        for m in range(1, state.power_bound + 1):
            # a stored pre-test failure (m = 1 stores it) decides every m dividing common
            if by_commutation and not common % m and premises.get((v, common)) is False:
                continue
            try:
                if not meets(z, by_commutation, premises, verdicts, powers, cyclic, w, m):
                    continue
            except MembershipUndecided:
                pass  # the scan raises again and counts the tuple
            hits.append((w, m))
        return hits

    def rigid(subgroup: frozenset, z: Word, by_commutation: bool, premises: dict[tuple[Word, int], bool],
              verdicts: dict, powers: list[Word], cyclic: set[Word], w: Word, m: int) -> bool | None:
        """Premise: ``w y^m w^-1`` lies in <z>.  Conclusion: so does ``w``."""
        if not meets(z, by_commutation, premises, verdicts, powers, cyclic, w, m):
            return None
        if (subgroup, w) not in within:
            within[subgroup, w] = _member_nf(w, z, tower) is not None
        return within[subgroup, w]

    # every other candidate fails the premise for every y
    newest = [(k,) for k in pool if max_stage(k) == top]
    centralizer_witnesses: list[str] = []
    centralizer_undecided = 0
    for y in ledger_ball:
        verdict = _scan("condition-centralizers", newest, partial(escapes, y, {}), checked=len(pool) - len(newest))
        centralizer_witnesses += [f"centralizer:{y}:{k}" for k, in verdict.witnesses[:4]]
        centralizer_undecided += verdict.undecided

    tuples = len(ball) * state.power_bound
    # each element's witness strings and undecided count, emitted in ball order
    scanned: dict[Word, tuple[list[str], int]] = {}
    for first in outside:
        if first in scanned:
            continue
        # y and y^-1 share one Britton dict and a premise table per <z>, freed
        # after the pair; ledger membership by cyclic key is not inverse-symmetric
        verdicts, tables = {}, {}
        for y in (first,) if in_ledger[inverse[first]] else (first, inverse[first]):
            try:
                z = z_witness(y, state)
            except MembershipUndecided:
                # without a witness every tuple of y is undecided
                scanned[y] = ([], tuples)
                continue
            subgroup = frozenset((z, _nf(z.inverse(), tower)))  # <z> = <z^-1>
            by_commutation = nonzero_image(y)
            powers = [_nf(y ** m, tower) for m in range(1, state.power_bound + 1)]
            if by_commutation:
                # the pre-test's power y^N = (y^b)^(b-1), last; products keep no memo entry
                power = powers[-1]
                for _ in range(state.power_bound - 2):
                    power = _nf_product(power, powers[-1], tower)
                powers.append(power)
            # v y^-n v^-1 = (v y^n v^-1)^-1: y and y^-1 share the premise table of one <z>
            premises = tables.setdefault(subgroup, {})
            # the powers of y in the ball, the same set for y^-1
            cyclic = {IDENTITY} | {v for p in powers if p in inverse for v in (p, inverse[p])}
            row = (z, by_commutation, premises, verdicts, powers, cyclic)
            verdict = _scan_hits("condition-rigidity", ((w,) for w in ball), state.power_bound,
                                 partial(hits_of, *row), partial(rigid, subgroup, *row))
            scanned[y] = ([f"rigidity:{y}|{w}|{m}" for w, m in verdict.witnesses[:4]], verdict.undecided)
    rigidity_witnesses = [text for y in outside for text in scanned[y][0]]
    rigidity_undecided = sum(undecided for _, undecided in scanned.values())

    seed_fracs = [f[0] for f in state.fractions]
    progress_pass = all(a <= b + 1e-12 for a, b in zip(seed_fracs, seed_fracs[1:]))

    checks = (
        CheckResult("condition-growth", "pass" if growth_pass else "fail", {"fresh_letter": str(fresh)}),
        CheckResult("condition-centralizers", "counterexample" if centralizer_witnesses else "pass",
                    {"elements": len(ledger_ball), "candidates_per_element": len(pool) if ledger_ball else 0,
                     "undecided": centralizer_undecided}, tuple(centralizer_witnesses)),
        CheckResult("condition-rigidity", "counterexample" if rigidity_witnesses else "pass",
                    {"elements": len(outside), "undecided": rigidity_undecided}, tuple(rigidity_witnesses)),
        CheckResult("condition-progress", "pass" if progress_pass else "fail",
                    {"seed_ball_fractions": [round(f, 6) for f in seed_fracs]}),
    )
    checked = len(ledger_ball) * len(pool) + len(outside) * tuples
    return ConditionReport(checks, checked, centralizer_undecided + rigidity_undecided)


def build_suite(stages: int, radius: int, power_bound: int, check_candidates: int, seed: int) -> RunReport:
    """The scheduled construction over ``stages`` steps: one row for the base
    and one per stage, then the condition checks on the last stage."""
    if stages < 0:
        raise ValueError("stages must be nonnegative")
    if check_candidates < 0:
        raise ValueError("check candidates must be nonnegative")
    # the seed is always the free group; its fixed g0_mode and base_steps
    # keep every pinned build report byte-identical
    report = RunReport("build", {"stages": stages, "radius": radius, "power_bound": power_bound,
                                 "g0_mode": "free", "seed": seed, "check_candidates": check_candidates})

    def ledger_row(state: ConstructionState) -> dict:
        return {"ledger_size": len(state.ledger), "queue_pending": len(state.z_queue),
                "seed_ball_fraction": round(state.fractions[-1][0], 6)}

    state = initial_state(radius=radius, power_bound=power_bound)
    report.add("base", "ok", {"g0_mode": "free", "base_steps": 0, **ledger_row(state)})
    for _ in range(stages):
        state = tower_step(state)
        step = state.tower.steps[-1]
        report.add(f"stage-{state.stage}", "ok", {
            "step": "freeZ" if step.is_free else f"hnn target={step.target}",
            # odd steps are free by schedule; a free even step found no pending witness
            "case2_fallback": step.is_free and state.stage % 2 == 0,
            "current_ball_fraction": round(state.fractions[-1][1], 6),
            **ledger_row(state),
        })
    if stages:
        report.checks.extend(check_conditions(state, check_candidates, seed).checks)
    return report


# --------------------------------------------------------------------------
# classical construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalState:
    """Register of pair letters ``T_st`` over a free base.

    ``pair_stage`` maps each registered pair ``(s, t)`` to the stage of its
    letter.  Like the other states this is a value: registering a pair
    returns a new state with a copied ``pair_stage``, and no dict is mutated
    after its state is built.
    """

    tower: ExtensionTower
    pair_stage: dict[tuple[Word, Word], int]

    def register_pair(self, s: Word, t: Word) -> tuple["ClassicalState", int]:
        """The state with ``T_st`` adjoined (this state if it already is),
        and the stage of ``T_st``."""
        stage = self.pair_stage.get((s, t))
        if stage is not None:
            return self, stage
        tower = self.tower.extend_hnn(s, t)
        return ClassicalState(tower, {**self.pair_stage, (s, t): tower.num_steps}), tower.num_steps


def classical_state() -> ClassicalState:
    """No pair letters yet over a rank-2 free base."""
    return ClassicalState(ExtensionTower(2), {})


def classical_step(state: ClassicalState, ball_radius: int) -> ClassicalState:
    """Adjoin ``T_st`` for every ordered pair of nonidentity normal forms in
    the current ball (finite surrogate of the full pair set)."""
    if ball_radius < 0:
        raise ValueError("ball radius must be nonnegative")
    ball = [w for w in ball_words(state.tower, ball_radius) if w]
    for s in ball:
        for t in ball:
            state, _ = state.register_pair(s, t)
    return state


def classical_centralizer_witnesses(
    state: ClassicalState, t_elt: Word, count: int, max_radius: int = 3
) -> tuple[set[Word], ClassicalState]:
    """Pairwise distinct elements ``T_st T_rs T_tr`` commuting with ``t_elt``,
    one per ordered pair ``(r, s)`` drawn from base balls of growing radius.

    Pair letters not yet present are registered on demand; the returned
    state holds them.  Raises :class:`InsufficientPairs` when the allowed
    balls cannot supply ``count`` distinct pairs.
    """
    if count < 1:
        raise PreconditionViolated("witness count must be positive")
    t_nf = nf_word(t_elt, state.tower)
    if not t_nf or max_stage(t_nf) != 0:
        raise PreconditionViolated("the centralized element must be a nonidentity base element")
    witnesses: set[Word] = set()
    tried: set[tuple[Word, Word]] = set()
    base = state.tower.truncate(0)
    for radius in range(1, max_radius + 1):
        pool = [w for w in ball_words(base, radius) if w]
        for r in pool:
            for s in pool:
                if (r, s) in tried:
                    continue
                tried.add((r, s))
                state, st_stage = state.register_pair(s, t_nf)
                state, rs_stage = state.register_pair(r, s)
                state, tr_stage = state.register_pair(t_nf, r)
                word = stable(st_stage) * stable(rs_stage) * stable(tr_stage)
                wit = nf_word(word, state.tower)
                if wit in witnesses:
                    continue
                if not commutes(wit, t_nf, state.tower):
                    raise AssertionError(f"witness {wit} fails to centralize {t_nf}")
                witnesses.add(wit)
                if len(witnesses) >= count:
                    return witnesses, state
    raise InsufficientPairs(f"only {len(witnesses)} of {count} witnesses within radius {max_radius}")


def classical_suite(radius: int, count: int, t_elt: str) -> RunReport:
    """Pair letters over the radius-``radius`` ball: every registered edge
    relation holds, and ``t_elt`` has ``count`` distinct centralizer
    witnesses."""
    report = RunReport("classical", {"radius": radius, "count": count, "t_elt": t_elt})
    state = classical_step(classical_state(), radius)
    sound = 0
    for (s, t), stage in state.pair_stage.items():
        letter = stable(stage)
        if nf_word(letter * s * letter.inverse(), state.tower) == nf_word(t, state.tower):
            sound += 1
    report.add(
        "pair-relations",
        "pass" if sound == len(state.pair_stage) else "counterexample",
        {"pairs": len(state.pair_stage), "sound": sound},
    )
    try:
        witnesses, _ = classical_centralizer_witnesses(state, parse_word(t_elt), count)
    except InsufficientPairs as exc:
        report.add("centralizer-witnesses", "error", {"reason": str(exc)})
    else:
        distinct = len(witnesses)
        report.add(
            "centralizer-witnesses",
            "pass" if distinct >= count else "fail",
            {"requested": count, "distinct": distinct},
        )
    return report
