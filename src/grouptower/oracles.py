"""Bounded brute-force verifiers for the tower conjugacy and root lemmas.

Every oracle builds a stream of tuples drawn from a ball of normal forms and
a predicate over them, and hands both to one scan driver, ``_scan``.  The
driver reports one of four outcomes: a pass backed by at least one
premise-satisfying tuple, a vacuous pass when no tuple met the premise, a
counterexample carrying replayable witness words, or an undecided verdict
when a predicate raised ``MembershipUndecided`` on some tuple.  The word
calculus decides memberships and cosets exactly and never raises it, so
every oracle here reports 0 undecided.
Identical specs (including the seed) give identical verdicts.
``tower_suite`` runs all eight oracles on one tower;
``run_standard_suite`` and ``lemmas --tower`` both run it.

``_scan`` is the one place where a raise becomes an undecided tuple.
Elsewhere only the construction's witness search (``root_witness``,
``constructions.z_witness``) is caught: its element gets no witness, and
all of the element's rigidity tuples count as undecided.  A raise from any
other exact engine call is a defect: nothing catches it, and the CLI stops
with ``error:`` and exit 2.

The hot scans decide premises from cached tables, never by the lemma under
test, and hand ``_scan`` only the tuples that meet them, in scan order; the
other tuples are counted by arithmetic as ``checked``.  ``aabb`` compares
cached squares per pair (``abba = e`` iff ``b^2 = a^-2``).  ``cent`` tests
one commutation per inverse orbit (``[u, v] = e`` iff ``[u^-1, v] = e``),
keeps per pair element a bitmask of the eligible ball elements commuting
with it, and draws one shared-root conclusion per commuting pair.  ``nn``
and ``jsc`` read equal powers from an index of cached power words, and
``dodatkowy`` decides each element's eligibility once.  The predicate
functions stay as the per-tuple replay reference.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial

from .words import IDENTITY, Word, t_length
from .tower import (
    ExtensionTower,
    MembershipUndecided,
    PreconditionViolated,
    ball_words,
    commutes,
    cyclically_reduce,
    in_cyclic,
    is_conjugate_into_base,
    minimal_root,
    nf_word,
    root_witness,
)

MAX_RADIUS = 6
# all tuples are enumerated when the full product is at most this size
EXHAUSTIVE_TUPLES = 40_000

PASS = "pass"
VACUOUS = "vacuous_pass"
COUNTEREXAMPLE = "counterexample"
UNDECIDED = "undecided"


class CapExceeded(Exception):
    """The ball holds more distinct normal forms than the configured cap."""


@dataclass(frozen=True)
class BallSpec:
    radius: int
    sample_cap: int = 4000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.radius <= MAX_RADIUS:
            raise ValueError(f"radius must lie in 0..{MAX_RADIUS}")
        if self.sample_cap < 1:
            raise ValueError("sample cap must be positive")


@dataclass(frozen=True)
class OracleVerdict:
    lemma_id: str
    outcome: str
    witnesses: tuple[tuple[str, ...], ...] = ()
    checked: int = 0
    premise_hits: int = 0
    undecided: int = 0

    @property
    def is_ok(self) -> bool:
        return self.outcome in (PASS, VACUOUS)


def enumerate_ball(spec: BallSpec, tower: ExtensionTower) -> tuple[Word, ...]:
    """All distinct normal forms of words of unit length <= radius, sorted;
    more than ``spec.sample_cap`` of them raise :class:`CapExceeded`."""
    ball = ball_words(tower, spec.radius)
    if len(ball) > spec.sample_cap:
        raise CapExceeded(f"{len(ball)} normal forms exceed cap {spec.sample_cap}")
    return ball


def _tuples(items: tuple[Word, ...], arity: int, spec: BallSpec):
    """Deterministic tuple stream: exhaustive when small, seeded sample else."""
    total = len(items) ** arity
    if total <= EXHAUSTIVE_TUPLES:
        yield from itertools.product(items, repeat=arity)
        return
    rng = random.Random(f"{spec.seed}:{arity}:{len(items)}")
    for _ in range(spec.sample_cap):
        yield tuple(rng.choice(items) for _ in range(arity))


def _scan(lemma_id: str, tuples, predicate, checked: int = 0) -> OracleVerdict:
    """Evaluate ``predicate(*args)`` on every tuple.  ``None`` means the
    premise is unmet, ``MembershipUndecided`` is counted and skipped, and a
    falsy result is a counterexample whose witness is the text of its
    arguments.  ``checked`` starts from a count the caller made outside the
    stream."""
    hits = undecided = 0
    witnesses = []
    for args in tuples:
        checked += 1
        try:
            res = predicate(*args)
        except MembershipUndecided:
            undecided += 1
            continue
        if res is None:
            continue
        hits += 1
        if not res:
            witnesses.append(tuple(str(x) for x in args))
    if witnesses:
        outcome = COUNTEREXAMPLE
    elif undecided:
        outcome = UNDECIDED
    elif hits == 0:
        outcome = VACUOUS
    else:
        outcome = PASS
    return OracleVerdict(lemma_id, outcome, tuple(witnesses), checked, hits, undecided)


def _scan_hits(lemma_id: str, groups, per_group: int, hits_of, predicate, checked: int = 0) -> OracleVerdict:
    """``_scan`` over premise hits only.  Each group stands for ``per_group``
    tuples, of which ``hits_of(*group)`` yields, in scan order, those that
    meet the premise; the others are counted as checked."""
    groups = list(groups)
    hits = [hit for group in groups for hit in hits_of(*group)]
    return _scan(lemma_id, hits, predicate, checked + len(groups) * per_group - len(hits))


def _eligible(w: Word, tower: ExtensionTower) -> bool:
    """Not conjugate into the stage below the top step."""
    return not is_conjugate_into_base(w, tower)


# --------------------------------------------------------------------------
# predicates (shared by scans and counterexample replay)
# --------------------------------------------------------------------------


def square_inverse_pair_conjugate(tower: ExtensionTower, a: Word, b: Word) -> bool | None:
    """Premise: ab != e and ab = (ba)^-1.  Conclusion: ab is conjugate into
    the stage below the final free-product step.  None = premise unmet."""
    ab = nf_word(a * b, tower)
    if not ab:
        return None
    if nf_word(a * b * b * a, tower):
        return None
    return is_conjugate_into_base(ab, tower)


def powers_stay_outside(tower: ExtensionTower, a: Word, n: int) -> bool | None:
    if not _eligible(a, tower):
        return None
    return _eligible(nf_word(a ** n, tower), tower)


def common_cyclic_centralizer(tower: ExtensionTower, w: Word, c: Word, a: Word) -> bool | None:
    """Premise: w, c, a pairwise commute and a is not conjugate into the
    previous stage.  Conclusion: w and c are powers of one root."""
    if not commutes(w, c, tower) or not commutes(a, w, tower) or not commutes(a, c, tower):
        return None
    return _shared_root(tower, w, c, a)


def _shared_root(tower: ExtensionTower, w: Word, c: Word, a: Word) -> bool | None:
    """``common_cyclic_centralizer`` once w, c, a are known to commute."""
    if not _eligible(a, tower):
        return None
    w_nf, c_nf = nf_word(w, tower), nf_word(c, tower)
    if not w_nf and not c_nf:
        return True
    base = max((c_nf, w_nf), key=lambda u: (t_length(u), bool(u)))
    root = root_witness(base, tower)
    return in_cyclic(w_nf, root, tower) is not None and in_cyclic(c_nf, root, tower) is not None


def root_of_cyclically_reduced_power(tower: ExtensionTower, zeta: Word, n: int) -> bool | None:
    """If zeta^n is a cyclically reduced word, zeta must be one too."""
    if not _eligible(zeta, tower):
        return None
    z_nf = nf_word(zeta, tower)
    power = nf_word(z_nf ** n, tower)
    if cyclically_reduce(power, tower)[1]:
        return None
    return not cyclically_reduce(z_nf, tower)[1]


def minimal_root_bound(tower: ExtensionTower, a: Word) -> bool | None:
    if not _eligible(a, tower):
        return None
    root, degree = minimal_root(a, tower)
    cyc, _ = cyclically_reduce(a, tower)
    if degree > max(t_length(cyc), 1):
        return False
    if nf_word(root ** degree, tower) != nf_word(a, tower):
        return False
    _, again = minimal_root(root, tower)
    return again == 1


def equal_powers_equal(tower: ExtensionTower, a: Word, b: Word, n: int) -> bool | None:
    if not _eligible(a, tower) or not _eligible(b, tower):
        return None
    if nf_word(a ** n, tower) != nf_word(b ** n, tower):
        return None
    return nf_word(a, tower) == nf_word(b, tower)


def has_no_small_torsion(tower: ExtensionTower, w: Word, order_bound: int) -> bool | None:
    if not nf_word(w, tower):
        return None
    return all(nf_word(w ** k, tower) for k in range(2, order_bound + 1))


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def check_aabb(spec: BallSpec, tower: ExtensionTower) -> OracleVerdict:
    """``square_inverse_pair_conjugate`` on every pair, by squares: ``abba =
    e`` iff ``a b^2 a = e`` iff ``b^2 = a^-2``.  Each ball element's normal
    forms of ``x^2`` and ``x^-2`` are computed once, inside the predicate so
    that a raise counts its tuple as undecided; a pair compares two cached
    words, and only a pair meeting the premise normal-forms ``ab``."""
    if tower.num_steps == 0 or not tower.steps[-1].is_free:
        raise PreconditionViolated("this check needs a final free-product step")
    squares: dict[Word, tuple[Word, Word]] = {}

    def square(x: Word) -> tuple[Word, Word]:
        if x not in squares:
            inv = x.inverse()
            squares[x] = (nf_word(x * x, tower), nf_word(inv * inv, tower))
        return squares[x]

    def conjugate_into_base(a: Word, b: Word) -> bool | None:
        if square(b)[0] != square(a)[1]:
            return None
        ab = nf_word(a * b, tower)
        if not ab:
            return None
        return is_conjugate_into_base(ab, tower)

    return _scan("aabb", _tuples(enumerate_ball(spec, tower), 2, spec), conjugate_into_base)


def check_dodatkowy(spec: BallSpec, tower: ExtensionTower, power_bound: int = 4) -> OracleVerdict:
    """``powers_stay_outside`` on every ``(a, n)``, with each element's
    eligibility decided once and its powers read from ``_power_profiles``."""
    ball = enumerate_ball(spec, tower)
    powers = _power_profiles(ball, tower, power_bound, rootless_only=False)
    hits = ((a, n) for a in powers for n in range(1, power_bound + 1))
    ineligible = (len(ball) - len(powers)) * power_bound
    return _scan("dodatkowy", hits, lambda a, n: _eligible(powers[a][n - 1], tower), checked=ineligible)


def check_cent(spec: BallSpec, tower: ExtensionTower) -> OracleVerdict:
    """Scan commuting pairs first, then complete them with a commuting third
    element; this keeps the triple scan exhaustive at small radius.

    Both scans read one commutation table.  ``[u, v] = e`` iff ``[u^-1, v] =
    e`` iff ``[u, v^-1] = e``, and the ball's normal forms are closed under
    inverse, so one ``commutes`` answer is stored under all eight ordered
    pairs ``(u^±1, v^±1)`` and their reverses.  The conclusion reads the
    third element ``a`` only through its eligibility, so a triple meets the
    premise for exactly the eligible ``a`` commuting with both ``w`` and
    ``c``: the bits of ``mask(w) & mask(c)``, in ball order.
    ``_shared_root`` runs once per commuting pair.
    """
    ball = enumerate_ball(spec, tower)
    inv = {x: nf_word(x.inverse(), tower) for x in ball}
    table: dict[tuple[Word, Word], bool] = {}

    def commuting(u: Word, v: Word) -> bool:
        answer = table.get((u, v))
        if answer is None:
            signs = ((u, v), (inv[u], v), (u, inv[v]), (inv[u], inv[v]))
            orbit = [pair for p, q in signs for pair in ((p, q), (q, p))]
            answer = commutes(u, v, tower)
            table.update(dict.fromkeys(orbit, answer))
        return answer

    pairs = [(w, c) for w, c in _tuples(ball, 2, spec) if commuting(w, c)]
    # bit i of a mask stands for ball[i]
    eligible = [i for i, a in enumerate(ball) if _eligible(a, tower)]
    masks: dict[Word, int] = {}
    for w in itertools.chain.from_iterable(pairs):
        if w not in masks:
            masks[w] = sum(1 << i for i in eligible if commuting(ball[i], w))

    def triples(w: Word, c: Word):
        bits = masks[w] & masks[c]
        while bits:
            low = bits & -bits
            yield w, c, ball[low.bit_length() - 1]
            bits ^= low

    shared: dict[tuple[Word, Word], bool] = {}

    def centralized(w: Word, c: Word, a: Word) -> bool:
        if (w, c) not in shared:
            shared[w, c] = _shared_root(tower, w, c, a)
        return shared[w, c]

    return _scan_hits("cent", pairs, len(ball), triples, centralized)


def check_cykr(spec: BallSpec, tower: ExtensionTower, power_bound: int = 3) -> OracleVerdict:
    pairs = ((w, n) for w in enumerate_ball(spec, tower) for n in range(1, power_bound + 1))
    return _scan("cykr", pairs, partial(root_of_cyclically_reduced_power, tower))


def check_ip(spec: BallSpec, tower: ExtensionTower) -> OracleVerdict:
    return _scan("ip", ((a,) for a in enumerate_ball(spec, tower)), partial(minimal_root_bound, tower))


def _power_profiles(ball, tower, power_bound, rootless_only):
    """Per eligible ball element: its normal-form powers up to the bound.

    The hot scans only read these precomputed words; the predicate
    functions above stay as the replay reference.
    """
    profiles = {}
    for a in ball:
        if not _eligible(a, tower):
            continue
        if rootless_only and minimal_root(a, tower)[1] != 1:
            continue
        profiles[a] = tuple(nf_word(a ** n, tower) for n in range(1, power_bound + 1))
    return profiles


def _power_matches(powers):
    """Per profiled ``a`` and ``b``: the exponent pairs ``(n, m)`` with
    ``a^n = b^m``, in order, read from an index of each power word to its
    ``(element, exponent)`` pairs."""
    index: dict[Word, list[tuple[Word, int]]] = {}
    for b, words in powers.items():
        for m, word in enumerate(words, 1):
            index.setdefault(word, []).append((b, m))
    matches = {}
    for a, words in powers.items():
        row = matches[a] = {}
        for n, word in enumerate(words, 1):
            for b, m in index[word]:
                row.setdefault(b, []).append((n, m))
    return matches


def check_nn(spec: BallSpec, tower: ExtensionTower, power_bound: int = 4) -> OracleVerdict:
    ball = enumerate_ball(spec, tower)
    powers = _power_profiles(ball, tower, power_bound, rootless_only=False)
    matches = _power_matches(powers)

    def equal_powers(a, b):
        return ((a, b, n) for n, m in matches[a].get(b, ()) if n == m)

    # ineligible elements are checked too, with their premise unmet
    ineligible = (len(ball) - len(powers)) * power_bound
    pairs = _tuples(tuple(powers), 2, spec)
    return _scan_hits("nn", pairs, power_bound, equal_powers, lambda a, b, n: a == b, checked=ineligible)


def check_jsc(spec: BallSpec, tower: ExtensionTower, power_bound: int = 4) -> OracleVerdict:
    ball = enumerate_ball(spec, tower)
    powers = _power_profiles(ball, tower, power_bound, rootless_only=True)
    matches = _power_matches(powers)

    def equal_powers(a, b):
        return ((a, b, n, m) for n, m in matches[a].get(b, ()))

    pairs = _tuples(tuple(powers), 2, spec)
    return _scan_hits("jsc", pairs, power_bound ** 2, equal_powers, lambda a, b, n, m: n == m and a == b)


def check_torsion(spec: BallSpec, tower: ExtensionTower, order_bound: int = 5) -> OracleVerdict:
    singles = ((w,) for w in enumerate_ball(spec, tower))
    return _scan("torsion", singles, lambda w: has_no_small_torsion(tower, w, order_bound))


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def standard_towers() -> dict[str, ExtensionTower]:
    """The two reference towers the suite runs on: a free-product step on a
    rank-2 base, and the same plus a cyclic-edge step conjugating g0 onto
    the free letter."""
    from .words import generator, stable as stable_word

    free_top = ExtensionTower(2).extend_free()
    mixed = free_top.extend_hnn(generator(0), stable_word(1))
    return {"free_z": free_top, "hnn": mixed}


def tower_suite(
    tower: ExtensionTower, radius: int, pair_radius: int, power_bound: int, order_bound: int, sample_cap: int, seed: int
) -> list[OracleVerdict]:
    """All oracles that apply to ``tower``: ``aabb`` only over a final free
    step, ``cent`` at radius at most 2 and the pair scans ``nn``/``jsc`` at
    ``pair_radius``, all radii trimmed to ``radius``.  A radius below 1
    would leave only the identity to scan, and a power bound below 1 or an
    order bound below 2 would leave scans with no power to test."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if power_bound < 1:
        raise ValueError("power bound must be at least 1")
    if order_bound < 2:
        raise ValueError("order bound must be at least 2")

    def spec(r: int) -> BallSpec:
        return BallSpec(radius=min(r, radius), sample_cap=sample_cap, seed=seed)

    verdicts = []
    if tower.num_steps and tower.steps[-1].is_free:
        verdicts.append(check_aabb(spec(radius), tower))
    verdicts += [
        check_dodatkowy(spec(radius), tower, power_bound),
        check_cent(spec(2), tower),
        check_cykr(spec(radius), tower, min(power_bound, 3)),
        check_ip(spec(radius), tower),
        check_nn(spec(pair_radius), tower, power_bound),
        check_jsc(spec(pair_radius), tower, power_bound),
        check_torsion(spec(radius), tower, order_bound),
    ]
    return verdicts


def run_standard_suite(
    radius: int = 3,
    power_bound: int = 4,
    order_bound: int = 5,
    sample_cap: int = 4000,
    seed: int = 0,
) -> list[tuple[str, OracleVerdict]]:
    """All eight oracles over the reference towers; the pair scans run at
    full radius on ``free_z`` and at radius 2 on ``hnn``, so they stay
    exhaustive where the ball allows."""
    towers = standard_towers()
    results = []
    for name, pair_radius in (("free_z", radius), ("hnn", 2)):
        verdicts = tower_suite(towers[name], radius, pair_radius, power_bound, order_bound, sample_cap, seed)
        results += [(name, verdict) for verdict in verdicts]
    return results


def random_word(rng: random.Random, tower: ExtensionTower, max_units: int) -> Word:
    """Seeded random word of at most ``max_units`` unit letters."""
    alphabet = tower.alphabet()
    w = IDENTITY
    for _ in range(rng.randint(0, max_units)):
        w = w * rng.choice(alphabet)
    return w
