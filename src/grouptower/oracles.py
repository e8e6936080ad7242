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

The hot scans decide premises by group-axiom identities, never by the lemma
under test: ``aabb`` compares cached squares (``abba = e`` iff
``b^2 = a^-2``), ``cent`` tests one commutation per inverse orbit
(``[u, v] = e`` iff ``[u^-1, v] = e``) and draws one shared-root conclusion
per commuting pair, and ``nn`` and ``jsc`` compare cached powers.  The
predicate functions stay as the per-tuple replay reference, and every tuple
is still counted.
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


def _with_powers(ball, power_bound: int):
    return ((w, n) for w in ball for n in range(1, power_bound + 1))


def check_dodatkowy(spec: BallSpec, tower: ExtensionTower, power_bound: int = 4) -> OracleVerdict:
    ball = enumerate_ball(spec, tower)
    return _scan("dodatkowy", _with_powers(ball, power_bound), partial(powers_stay_outside, tower))


def check_cent(spec: BallSpec, tower: ExtensionTower) -> OracleVerdict:
    """Scan commuting pairs first, then complete them with a commuting third
    element; this keeps the triple scan exhaustive at small radius.

    Both scans read one commutation table.  ``[u, v] = e`` iff ``[u^-1, v] =
    e`` iff ``[u, v^-1] = e``, and the ball's normal forms are closed under
    inverse, so one ``commutes`` answer is stored under all eight ordered
    pairs ``(u^±1, v^±1)`` and their reverses.  The conclusion reads the
    third element ``a`` only through its eligibility, so eligibility is kept
    per ``a`` and ``_shared_root`` runs once per commuting pair.
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

    eligible: dict[Word, bool] = {}
    shared: dict[tuple[Word, Word], bool] = {}

    def centralized(w: Word, c: Word, a: Word) -> bool | None:
        if not commuting(a, w) or not commuting(a, c):
            return None
        if a not in eligible:
            eligible[a] = _eligible(a, tower)
        if not eligible[a]:
            return None
        if (w, c) not in shared:
            shared[w, c] = _shared_root(tower, w, c, a)
        return shared[w, c]

    pairs = [(w, c) for w, c in _tuples(ball, 2, spec) if commuting(w, c)]
    triples = ((w, c, a) for w, c in pairs for a in ball)
    return _scan("cent", triples, centralized)


def check_cykr(spec: BallSpec, tower: ExtensionTower, power_bound: int = 3) -> OracleVerdict:
    ball = enumerate_ball(spec, tower)
    return _scan("cykr", _with_powers(ball, power_bound), partial(root_of_cyclically_reduced_power, tower))


def check_ip(spec: BallSpec, tower: ExtensionTower) -> OracleVerdict:
    return _scan("ip", ((a,) for a in enumerate_ball(spec, tower)), partial(minimal_root_bound, tower))


def _power_profiles(ball, tower, power_bound, rootless_only):
    """Per eligible ball element: its normal-form powers up to the bound.

    The hot pair scans only compare these precomputed words; the predicate
    functions above stay as the replay reference.
    """
    profiles = []
    for a in ball:
        if not _eligible(a, tower):
            continue
        if rootless_only and minimal_root(a, tower)[1] != 1:
            continue
        profiles.append((a, tuple(nf_word(a ** n, tower) for n in range(1, power_bound + 1))))
    return profiles


def check_nn(spec: BallSpec, tower: ExtensionTower, power_bound: int = 4) -> OracleVerdict:
    ball = enumerate_ball(spec, tower)
    powers = dict(_power_profiles(ball, tower, power_bound, rootless_only=False))
    pool = tuple(powers)

    def equal_roots(a, b, n):
        if powers[a][n - 1] != powers[b][n - 1]:
            return None
        return nf_word(a, tower) == nf_word(b, tower)

    triples = ((a, b, n) for a, b in _tuples(pool, 2, spec) for n in range(1, power_bound + 1))
    # ineligible elements are checked too, with their premise unmet
    ineligible = (len(ball) - len(pool)) * power_bound
    return _scan("nn", triples, equal_roots, checked=ineligible)


def check_jsc(spec: BallSpec, tower: ExtensionTower, power_bound: int = 4) -> OracleVerdict:
    ball = enumerate_ball(spec, tower)
    powers = dict(_power_profiles(ball, tower, power_bound, rootless_only=True))
    exponents = range(1, power_bound + 1)

    def rigid(a, b, n, m):
        if powers[a][n - 1] != powers[b][m - 1]:
            return None
        return n == m and nf_word(a, tower) == nf_word(b, tower)

    quads = ((a, b, n, m) for a, b in _tuples(tuple(powers), 2, spec) for n in exponents for m in exponents)
    return _scan("jsc", quads, rigid)


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
