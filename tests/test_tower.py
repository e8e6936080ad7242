import gc
import random
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from grouptower import tower as tower_module
from grouptower.words import STABLE, Word, parse_word, stable, t_length, max_stage
from grouptower.tower import (
    ExtensionTower,
    MembershipUndecided,
    PreconditionViolated,
    ball_words,
    britton_reduce,
    centralizer_ball,
    commutes,
    coset_rep,
    cyclically_reduce,
    equal,
    format_tower,
    in_cyclic,
    is_conjugate_into_base,
    minimal_root,
    nf_word,
    parse_tower,
    root_witness,
)

W = parse_word

FREE = ExtensionTower(2)
# t1 g0 t1^-1 = g1 over a rank-2 base
HNN = ExtensionTower(2).extend_hnn(W("g0"), W("g1"))
# one free-product letter
FREEZ = ExtensionTower(2).extend_free()
# free-product letter, then a step conjugating g0 onto it
MIXED = ExtensionTower(2).extend_free().extend_hnn(W("g0"), W("t1"))

TOWERS = [FREE, HNN, FREEZ, MIXED]


def random_words(tower, count, max_units, seed):
    rng = random.Random(seed)
    alphabet = tower.alphabet()
    out = []
    for _ in range(count):
        w = Word()
        for _ in range(rng.randint(0, max_units)):
            w = w * rng.choice(alphabet)
        out.append(w)
    return out


# oracle: rewrite with the unit relation t g0 = g1 t (and inverses) until
# no stable letter has a base letter to its right, then cancel t-pairs
def unit_relation_normal(word: Word) -> Word:
    units = list(word.units())
    changed = True
    while changed:
        changed = False
        for i in range(len(units) - 1):
            a, b = units[i], units[i + 1]
            if a.kind == "t" and b.kind == "g":
                if a.exponent == 1:
                    # t g0^e = g1^e t ; t g1^e stays (g1 not in the source subgroup)
                    if b.index == 0:
                        units[i : i + 2] = [b.__class__("g", 1, b.exponent), a]
                        changed = True
                        break
                else:
                    if b.index == 1:
                        units[i : i + 2] = [b.__class__("g", 0, b.exponent), a]
                        changed = True
                        break
            if a.kind == "t" and b.kind == "t" and a.exponent == -b.exponent:
                del units[i : i + 2]
                changed = True
                break
        merged = Word(units)
        if len(merged.units()) != len(units):
            units = list(merged.units())
            changed = True
    return Word(units)


class TestBrittonReduce:
    def test_relation_collapses_pinch(self):
        assert britton_reduce(W("t1 g0 t1^-1"), HNN) == W("g1")

    def test_free_cancellation(self):
        assert britton_reduce(W("t1 t1^-1"), HNN) == W("e")

    def test_inverse_pinch_power(self):
        # oracle: apply the unit relation t^-1 g1 t = g0 three times
        assert unit_relation_normal(W("t1^-1 g1^3 t1")).unit_length == 3
        assert britton_reduce(W("t1^-1 g1^3 t1"), HNN) == W("g0^3")

    def test_strategies_agree_on_normal_forms(self):
        for tower in TOWERS:
            for w in random_words(tower, 400, 10, seed=11):
                left = nf_word(britton_reduce(w, tower, "leftmost"), tower)
                right = nf_word(britton_reduce(w, tower, "rightmost"), tower)
                assert left == right, str(w)

    def test_reduced_word_keeps_stable_letters(self):
        # a reduced word with stable letters never normalizes to t-length 0
        for tower in (HNN, FREEZ, MIXED):
            for w in random_words(tower, 300, 8, seed=5):
                r = britton_reduce(w, tower)
                if t_length(r) >= 1:
                    assert t_length(nf_word(r, tower)) >= 1

    def test_rejects_unknown_letters(self):
        with pytest.raises(ValueError):
            britton_reduce(W("t2"), HNN)
        with pytest.raises(ValueError):
            britton_reduce(W("g5"), HNN)


class TestNormalForm:
    def test_pinch_then_base(self):
        # oracle: unit-relation rewriting
        assert unit_relation_normal(W("g0^2 t1 g0 t1^-1")) == W("g0^2 g1")
        assert nf_word(W("g0^2 t1 g0 t1^-1"), HNN) == W("g0^2 g1")

    def test_identity(self):
        assert nf_word(W("e"), HNN) == W("e")

    def test_transversal_pushes_source_power_left(self):
        # oracle: t g0 = g1 t by the relation
        assert unit_relation_normal(W("t1 g0")) == W("g1 t1")
        assert nf_word(W("t1 g0"), HNN) == W("g1 t1")

    def test_idempotent(self):
        for tower in TOWERS:
            for w in random_words(tower, 300, 9, seed=23):
                n = nf_word(w, tower)
                assert nf_word(n, tower) == n

    def test_congruence(self):
        # normal_form(u v) only depends on the classes of u and v
        for tower in (HNN, MIXED):
            for u, v in zip(
                random_words(tower, 150, 6, seed=3), random_words(tower, 150, 6, seed=4)
            ):
                assert nf_word(u * v, tower) == nf_word(nf_word(u, tower) * nf_word(v, tower), tower)

    def test_equal_after_inserting_relator_material(self):
        rng = random.Random(9)
        relators = [W("t1 g0 t1^-1 g1^-1"), W("t1 t1^-1"), W("g1 t1 g0^-1 t1^-1")]
        for w in random_words(HNN, 200, 7, seed=8):
            r = rng.choice(relators)
            cut = rng.randint(0, len(w.letters))
            v = Word(w.letters[:cut]) * r * Word(w.letters[cut:])
            assert nf_word(v, HNN) == nf_word(w, HNN)

    def test_stability_under_extension(self):
        # adding steps never changes normal forms of old words
        for w in random_words(FREEZ, 200, 8, seed=31):
            assert nf_word(w, FREEZ) == nf_word(w, MIXED)


class TestInCyclic:
    def test_power_of_generator(self):
        assert in_cyclic(W("g0^5"), W("g0"), FREE) == 5

    def test_absent_is_certified(self):
        # oracle: enumerate g0^k for |k| <= 8 and compare normal forms
        target = nf_word(W("g1"), FREE)
        assert all(nf_word(W("g0") ** k, FREE) != target for k in range(-8, 9))
        assert in_cyclic(W("g1"), W("g0"), FREE) is None

    def test_identity_power(self):
        assert in_cyclic(W("e"), W("g0"), FREE) == 0

    def test_multi_letter_generator(self):
        z = W("t1 g0")
        assert in_cyclic(z ** 4, z, MIXED) == 4
        assert in_cyclic(z ** -3, z, MIXED) == -3
        assert in_cyclic(W("t1 g1"), z, MIXED) is None

    def test_identity_generator_rejected(self):
        with pytest.raises(PreconditionViolated):
            in_cyclic(W("g0"), W("e"), FREE)


# a = t1^-1 g0 t1 has a^6 = g0, and step 2 conjugates the distorted a onto g0
DISTORTED_A = W("t1^-1 g0 t1")
DISTORTED = ExtensionTower(1).extend_hnn(W("g0"), W("g0^6")).extend_hnn(DISTORTED_A, W("g0"))


class TestDistortedEdge:
    def test_edge_relation_at_power_six(self):
        # oracle: t2 a^6 t2^-1 = (t2 a t2^-1)^6 = g0^6 by the stage-2 relation
        t2 = stable(2)
        assert nf_word(t2 * DISTORTED_A ** 6 * t2.inverse(), DISTORTED) == nf_word(W("g0^6"), DISTORTED)

    def test_equal_across_distortion(self):
        # a^6 = t1^-1 g0^6 t1 = g0, so t2 g0 t2^-1 = t2 a^6 t2^-1 = g0^6
        assert equal(W("t2 g0 t2^-1"), W("g0^6"), DISTORTED)

    def test_in_cyclic_finds_the_root_power(self):
        assert nf_word(DISTORTED_A ** 6, DISTORTED) == W("g0")
        assert in_cyclic(W("g0"), DISTORTED_A, DISTORTED.truncate(1)) == 6
        assert in_cyclic(W("g0^-2"), DISTORTED_A, DISTORTED.truncate(1)) == -12
        assert in_cyclic(W("g0 t1"), DISTORTED_A, DISTORTED.truncate(1)) is None

    def test_strategies_agree(self):
        w = W("t2 g0 t2^-1 g0 t1^-1")
        left = nf_word(britton_reduce(w, DISTORTED, "leftmost"), DISTORTED)
        right = nf_word(britton_reduce(w, DISTORTED, "rightmost"), DISTORTED)
        assert left == right == W("g0^7 t1^-1")


def random_distorted_tower(rng):
    """A rank-2 tower of 1-3 steps: free steps, BS(1,n)-type edges
    ``t x t^-1 = x^n`` and edges between two pool words.  The pool holds
    the base generators and their inverses and the conjugates
    ``t^-1 source t`` of earlier edge sources, which are distorted after a
    BS-type edge (as ``DISTORTED_A`` is).  Longer edge words make normal
    forms grow exponentially along stable-letter powers, too fast for a
    quick test."""
    tower = ExtensionTower(2)
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2:
            tower = tower.extend_free()
            continue
        pool = [W("g0"), W("g1"), W("g0^-1"), W("g1^-1")]
        pool += [step.letter.inverse() * step.source * step.letter for step in tower.steps if not step.is_free]
        x = rng.choice(pool)
        if kind < 0.75:
            tower = tower.extend_hnn(x, x ** rng.choice((2, 3, 6)))
        else:
            tower = tower.extend_hnn(x, rng.choice(pool))
    return tower


def power_forms(g, tower, span=40, limit=400):
    """Normal forms of ``g^j`` for ``|j| <= span``, mapped to ``j``; None
    once one passes ``limit`` units (powers of exponentially distorted
    elements outgrow any brute-force scan)."""
    forms = {W("e"): 0}
    for sign in (1, -1):
        p = W("e")
        for j in range(1, span + 1):
            p = nf_word(p * g ** sign, tower)
            if p.unit_length > limit:
                return None
            forms[p] = sign * j
    return forms


@pytest.mark.parametrize("seed", [2024, 106, 111, 124])
def test_membership_matches_brute_force_on_distorted_towers(seed):
    """in_cyclic against power scans on random towers with distorted edges.

    Every answer presumes canonical normal forms, so coset representatives
    must be exact: no query may come back undecided.
    """
    rng = random.Random(seed)
    decided = undecided = skipped = 0
    for _ in range(40):
        try:
            tower = random_distorted_tower(rng)
            gens = [w for w in random_words(tower, 5, 3, rng.random()) if nf_word(w, tower)]
        except MembershipUndecided:
            undecided += 1
            continue
        for step in tower.steps:
            if not step.is_free:
                # t^-1 source t is an n-th root of the source on BS-type edges
                gens += [step.source, step.letter.inverse() * step.source * step.letter]
        for g in gens:
            queries = random_words(tower, 4, 4, rng.random())
            queries += [g ** rng.randint(-3, 3) * q for q in queries]
            try:
                powers = power_forms(g, tower)
                if powers is None:
                    skipped += 1
                    continue
                for k in (2, -2, 3, -3, 6):
                    assert in_cyclic(g ** k, g, tower) == k, (format_tower(tower), str(g), k)
                # normal forms of distorted powers are short words
                for form, j in powers.items():
                    assert in_cyclic(form, g, tower) == j, (format_tower(tower), str(g), j)
                for w in queries:
                    k = in_cyclic(w, g, tower)
                    if k is None:
                        assert nf_word(w, tower) not in powers, (format_tower(tower), str(g), str(w))
                    else:
                        assert nf_word(g ** k, tower) == nf_word(w, tower)
                decided += 1
            except MembershipUndecided:
                undecided += 1
    assert undecided == 0 and decided >= 4 * skipped


@pytest.mark.parametrize("seed", [2024, 106, 111, 124])
def test_identity_coset_and_higher_stage_membership_on_distorted_towers(seed):
    """``coset_rep(e, g)`` is ``(0, e)``, and no word above ``g``'s top stage
    is a power of ``g``; an identity generator still raises first."""
    rng = random.Random(seed)
    higher = 0
    for _ in range(20):
        tower = random_distorted_tower(rng)
        gens = [w for w in random_words(tower, 5, 3, rng.random()) if nf_word(w, tower)]
        gens += [step.source for step in tower.steps if not step.is_free]
        for g in gens:
            assert coset_rep(W("e"), g, tower) == (0, W("e"))
            for w in random_words(tower, 6, 4, rng.random()):
                if max_stage(nf_word(w, tower)) > max_stage(nf_word(g, tower)):
                    assert in_cyclic(w, g, tower) is None, (format_tower(tower), str(g), str(w))
                    higher += 1
        with pytest.raises(PreconditionViolated):
            coset_rep(W("e"), W("e"), tower)
        with pytest.raises(PreconditionViolated):
            in_cyclic(tower.alphabet()[-1], W("e"), tower)
    assert higher >= 20


@pytest.mark.parametrize("seed", [106, 111, 124])
def test_normal_forms_are_canonical_on_distorted_towers(seed):
    # nf(u v) depends only on the classes of u and v
    rng = random.Random(seed)
    for _ in range(40):
        tower = random_distorted_tower(rng)
        us = random_words(tower, 15, 8, rng.random())
        vs = random_words(tower, 15, 8, rng.random())
        for u, v in zip(us, vs):
            assert nf_word(nf_word(u, tower) * v, tower) == nf_word(u * v, tower), (
                format_tower(tower), str(u), str(v))


def brute_coset_rep(a, gen, tower, window=8):
    """Length-minimization oracle over an explicit window."""
    best = None
    for k in range(-window, window + 1):
        cand = nf_word(gen ** -k * a, tower)
        key = (cand.unit_length, str(cand))
        if best is None or key < best[0]:
            best = (key, k, cand)
    return best[1], best[2]


class TestCosetRep:
    def test_strips_power_prefix(self):
        assert brute_coset_rep(W("g0^3 g1"), W("g0"), FREE) == (3, W("g1"))
        assert coset_rep(W("g0^3 g1"), W("g0"), FREE) == (3, W("g1"))

    def test_element_of_subgroup(self):
        assert coset_rep(W("g0^2"), W("g0"), FREE) == (2, W("e"))

    def test_prefix_never_shortens(self):
        assert brute_coset_rep(W("g1 g0"), W("g0"), FREE) == (0, W("g1 g0"))
        assert coset_rep(W("g1 g0"), W("g0"), FREE) == (0, W("g1 g0"))

    def test_representative_is_coset_invariant(self):
        gen = W("g0 g1")
        for a in random_words(FREE, 120, 5, seed=17):
            k, rep = coset_rep(a, gen, FREE)
            for shift in (-2, -1, 1, 2):
                k2, rep2 = coset_rep(gen ** shift * a, gen, FREE)
                assert rep2 == rep
                assert k2 == k + shift

    def test_decomposition_reconstructs(self):
        for gen in (W("g0"), W("g0 g1"), W("t1 g0")):
            tower = MIXED
            for a in random_words(tower, 80, 5, seed=29):
                k, rep = coset_rep(a, gen, tower)
                assert nf_word(gen ** k * rep, tower) == nf_word(a, tower)

    def test_stable_letter_generator_sees_pinched_minimum(self):
        # with t1 g0 t1^-1 = g1 below, the coset <t1>(t1 g1^2 t1) contains
        # g0^2; a leading-run strip would miss it and break canonicity
        tower = ExtensionTower(2).extend_hnn(W("g0"), W("g1")).extend_hnn(W("g0"), W("t1"))
        u1, u2 = W("t1 g1^2 t1"), W("t1^2 g0^2")
        assert nf_word(u1, tower) == nf_word(u2, tower)
        assert coset_rep(u1, W("t1"), tower)[1] == W("g0^2")
        assert coset_rep(u2, W("t1"), tower)[1] == W("g0^2")
        w1 = W("t2^-1") * u1 * W("t2")
        w2 = W("t2^-1") * u2 * W("t2")
        assert nf_word(w1, tower) == nf_word(w2, tower)


# t1 g1 t1^-1 = g1^6 and t2 g1 t2^-1 = g1^2: powers of t1^-1 g1 t2 carry
# leading runs of g1 that grow exponentially with the exponent
SINGLE_RUN = ExtensionTower(2).extend_hnn(W("g1"), W("g1^6")).extend_hnn(W("g1"), W("g1^2"))


class TestSingleRunCosets:
    def test_distorted_power_is_fast(self):
        start = time.perf_counter()
        form = nf_word(W("t1^-1 g1 t2") ** -10, SINGLE_RUN)
        assert time.perf_counter() - start < 0.25
        # each coset strips the leading g1 run modulo its edge exponent
        assert form == W("g1^-29524") * W("t2^-1 g1 t1") ** 10

    def test_matches_brute_force_minimum(self):
        rng = random.Random(61)
        for tower in (SINGLE_RUN, MIXED):
            for e in (2, -2, 3, -3, 6):
                for i in (0, 1):
                    gen = W(f"g{i}^{e}")
                    for w in random_words(tower, 6, 4, rng.random()):
                        a = W(f"g{i}") ** rng.randint(-40, 40) * w
                        assert coset_rep(a, gen, tower) == brute_coset_rep(a, gen, tower, window=60)


BS16 = DISTORTED.truncate(1)
# t1 g1 t1^-1 = g1^6, t2 g1^-1 t2^-1 = g1^-6 and t3 (t1^-1 g1 t1) t3^-1 = g1^-1:
# g1^6 is the 36th power of the t3 edge source
NESTED_EDGE = parse_tower(
    "base rank=2\n"
    "step 1 hnn source=g1 target=g1^6\n"
    "step 2 hnn source=g1^-1 target=g1^-6\n"
    "step 3 hnn source=t1^-1 g1 t1 target=g1^-1\n"
)
# distortion nested on distortion: with x = g1^-1 g0^-1, t1 x t1^-1 = x^6, and
# the t2 edge source x^6 t1 g0 t1^-1 holds a distorted conjugate
X6 = " ".join(["g1^-1 g0^-1"] * 6)
NESTED_DISTORTION = parse_tower(
    "base rank=2\n"
    f"step 1 hnn source=g1^-1 g0^-1 target={X6}\n"
    f"step 2 hnn source={X6} t1 g0 t1^-1 target=g1^-2\n"
    "step 3 hnn source=g1^-1 target=t1^-2\n"
)


class TestExactCosetRegressions:
    def test_distorted_generator_power_is_decided(self):
        # g0^-6 = (t1^-1 g0 t1)^-36 in BS(1,6)
        assert coset_rep(W("g0^-6"), DISTORTED_A, BS16) == (-36, W("e"))

    def test_normal_form_where_the_edge_power_is_36(self):
        g = W("t3^-1 g1")
        assert nf_word(g ** -3, NESTED_EDGE) == W("g1^-31 t3^3")
        assert nf_word(nf_word(g ** -2, NESTED_EDGE) * g ** -1, NESTED_EDGE) == W("g1^-31 t3^3")

    def test_nested_distortion_word_is_its_normal_form(self):
        w = W("t1^-1 t2 t3^-1 g1^-1 g0")
        assert nf_word(britton_reduce(w, NESTED_DISTORTION), NESTED_DISTORTION) == w
        relators = [s.letter * s.source * s.letter.inverse() * s.target.inverse() for s in NESTED_DISTORTION.steps]
        alphabet = NESTED_DISTORTION.alphabet()
        rng = random.Random(47)
        for _ in range(40):
            x = rng.choice(alphabet)
            r = x * rng.choice(relators) ** rng.choice((1, -1)) * x.inverse()
            cut = rng.randint(0, len(w.letters))
            v = Word(w.letters[:cut]) * r * Word(w.letters[cut:])
            assert nf_word(v, NESTED_DISTORTION) == w, str(v)


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
@pytest.mark.parametrize("seed", [2024, 106, 111, 124, "nested"])
def test_one_pass_normal_form_matches_reduce_first(seed, strategy):
    """nf_word(w) against nf_word(britton_reduce(w)), the normal form of a
    word reduced first, on random words with a conjugated relator spliced
    in, so that both routes meet pinches.  The second route runs on a parsed
    copy of the tower, so neither reads the other's memo entries."""
    if seed == "nested":
        rng, towers = random.Random(71), [NESTED_DISTORTION]
    else:
        rng = random.Random(seed)
        towers = [random_distorted_tower(rng) for _ in range(8)]
    for tower in towers:
        copy = parse_tower(format_tower(tower))
        relators = [s.letter * s.source * s.letter.inverse() * s.target.inverse() for s in tower.steps if not s.is_free]
        for u in random_words(tower, 60, 8, rng.random()):
            w = u
            if relators:
                x = random_words(tower, 1, 3, rng.random())[0]
                cut = rng.randint(0, len(u.letters))
                w = Word(u.letters[:cut]) * x * rng.choice(relators) ** rng.choice((1, -1)) * x.inverse() * Word(u.letters[cut:])
            assert nf_word(w, tower) == nf_word(britton_reduce(w, copy, strategy), copy), f"{w} on {format_tower(tower)}"


def product_pairs(tower, rng, count):
    """Pairs of normal forms whose products meet every case of
    ``_nf_product``: random pairs, cascades (``b = nf(a^-1 v)`` for a short
    ``v``), stable runs of |exponent| >= 2 against runs of either length,
    edge powers pushed across a run, and identity factors."""
    pairs = []
    for u, v in zip(random_words(tower, count, 6, rng.random()), random_words(tower, count, 2, rng.random())):
        pairs += [(u, v), (u, nf_word(u, tower).inverse() * v), (u, W("e")), (W("e"), u)]
        step = rng.choice(tower.steps)
        e = rng.choice((2, 3, -2, -3))
        sign = 1 if e > 0 else -1
        a = u * step.letter ** e
        pairs += [(a, step.letter ** (-sign * rng.randint(1, 4)) * v), (a, a)]
        if not step.is_free:
            edge = step.source if e > 0 else step.target
            pairs.append((a, edge ** rng.choice((1, -1, 2, -3)) * v))
    return [(nf_word(a, tower), nf_word(b, tower)) for a, b in pairs]


@pytest.mark.parametrize("seed", [2024, 106, 111, 124, "nested", "free"])
def test_product_normal_form_matches_normal_form_of_product(seed):
    """_nf_product(a, b) against nf_word(a * b), the latter on a parsed copy
    of the tower, so that neither reads the other's memo entries."""
    if seed == "nested":
        # _nf itself is slow on some short words of this tower (a FOUND
        # line in CHANGES.md); this seed's words avoid them
        rng, towers = random.Random(87), [NESTED_DISTORTION]
    elif seed == "free":
        rng, towers = random.Random(89), [FREEZ, MIXED, ExtensionTower(2).extend_hnn(W("g0"), W("g1^2")).extend_free()]
    else:
        rng = random.Random(seed)
        towers = [random_distorted_tower(rng) for _ in range(8)]
    for tower in towers:
        copy = parse_tower(format_tower(tower))
        for a, b in product_pairs(tower, rng, 30):
            got = tower_module._nf_product(a, b, tower)
            assert got == nf_word(a * b, copy), f"{a} | {b} on {format_tower(tower)}"


@pytest.mark.parametrize("seed", [2024, 106, 111, 124, "free"])
def test_conjugate_pinches_matches_the_normal_form_of_the_conjugate(seed):
    """_conjugate_pinches(w, g) against normal forms: with w = A t^e B and
    u = B g B^-1, a pinch means that t^σ u t^-σ falls below t's stage, and
    no pinch means that w g w^-1 keeps it.  Besides random g below w's top
    stage, g runs over e and B^-1 a^k B for the edge words a of t's step,
    so that both answers occur on every tower family."""
    if seed == "free":
        rng, towers = random.Random(89), [FREEZ, MIXED, ExtensionTower(2).extend_hnn(W("g0"), W("g1^2")).extend_free()]
    else:
        rng = random.Random(seed)
        towers = [random_distorted_tower(rng) for _ in range(8)]
    answers = set()
    for tower in towers:
        for w in random_words(tower, 20, 6, rng.random()):
            w = nf_word(w, tower)
            j = max_stage(w)
            if not j:
                continue
            step = tower.step(j)
            last = max(i for i, lt in enumerate(w.letters) if lt.kind == STABLE and lt.index == j)
            sign = 1 if w.letters[last].exponent > 0 else -1
            b = Word(w.letters[last + 1 :])
            gs = random_words(tower.truncate(j - 1), 4, 4, rng.random()) + [W("e")]
            if not step.is_free:
                gs += [b.inverse() * a ** rng.choice((1, -1, 2)) * b for a in (step.source, step.target)]
            for g in gs:
                g = nf_word(g, tower)
                pinches = tower_module._conjugate_pinches(w, g, tower)
                answers.add(pinches)
                if pinches:
                    u = b * g * b.inverse()
                    assert max_stage(nf_word(step.letter ** sign * u * step.letter ** -sign, tower)) < j, (
                        f"{w} | {g} on {format_tower(tower)}")
                else:
                    assert max_stage(nf_word(w * g * w.inverse(), tower)) == j, f"{w} | {g} on {format_tower(tower)}"
    assert answers == {True, False}


def test_product_pushes_across_a_long_run():
    # t1 commutes with g0, so g0 crosses each of the 2000 units in turn
    tower = ExtensionTower(2).extend_hnn(W("g0"), W("g0"))
    a = nf_word(W("g1 t1^2000"), tower)
    assert tower_module._nf_product(a, W("g0"), tower) == W("g1 g0 t1^2000")
    assert not commutes(a, W("g0"), tower)
    assert commutes(W("t1^2000"), W("g0"), tower)


@pytest.mark.parametrize("left, right", [("g1 t2 g0", "g1 t2 g1 t1"), ("t2^-1 g1", "g0 t1^-1 t2^2 g1")])
def test_product_work_does_not_grow_with_the_right_factor(left, right, monkeypatch):
    # the junction of a and b^n does not pinch: only the junction segment is
    # rewritten, however many segments b^n has; a fresh copy of the tower
    # per n starts each product from the same memo state
    names = ("_split", "_member_nf", "_coset", "_nf")
    counted = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(tower_module, name)

        def counting(*args, _real=real, _name=name):
            counted[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tower_module, name, counting)
    counts = []
    for n in (1, 3, 9):
        tower = parse_tower(format_tower(MIXED))
        a, b = nf_word(W(left), tower), nf_word(W(right) ** n, tower)
        counted.update(dict.fromkeys(names, 0))
        product = tower_module._nf_product(a, b, tower)
        counts.append(dict(counted))
        assert product == nf_word(a * b, tower)
    assert all(later[k] <= counts[0][k] for later in counts[1:] for k in names), counts


# one generator per coset branch past the single-run one: the free-base scan
# (g0 g1), the stage-1 scan and, for words with t2, the first-segment
# recursion (t1, t1 g0), and the conjugated core g0 of t1^-1 g0 t1
BRANCH_CASES = [(FREE, W("g0 g1")), (MIXED, W("t1")), (MIXED, W("t1 g0")), (BS16, DISTORTED_A)]
BRANCH_IDS = ["free-scan", "stable-scan", "mixed-scan", "conjugated-core"]


class TestCosetBranches:
    @pytest.mark.parametrize("tower, gen", BRANCH_CASES, ids=BRANCH_IDS)
    def test_shifting_by_the_generator_shifts_only_k(self, tower, gen):
        for a in random_words(tower, 40, 5, seed=71):
            k, rep = coset_rep(a, gen, tower)
            assert nf_word(gen ** k * rep, tower) == nf_word(a, tower)
            for j in (-3, -1, 2, 5):
                assert coset_rep(gen ** j * a, gen, tower) == (k + j, rep), (str(a), j)

    @pytest.mark.parametrize("tower, gen", BRANCH_CASES, ids=BRANCH_IDS)
    def test_subgroup_is_represented_by_identity(self, tower, gen):
        for j in range(-8, 9):
            assert coset_rep(gen ** j, gen, tower) == (j, W("e"))

    @pytest.mark.parametrize("tower, gen", BRANCH_CASES[:3], ids=BRANCH_IDS[:3])
    def test_scans_find_the_brute_force_minimum(self, tower, gen):
        for a in random_words(tower, 30, 5, seed=73):
            assert coset_rep(a, gen, tower) == brute_coset_rep(a, gen, tower, window=60), str(a)

    @pytest.mark.parametrize("tower, gen, a", [
        (MIXED, "t1", "g1^400 g0"), (MIXED, "t1", "g1^400 t1"), (FREE, "g0 g1", "g1^400 g0")])
    def test_scan_bound_counts_the_shared_suffix(self, tower, gen, a):
        # gen^-k a keeps the g1^400 of a for every k, so a few candidates per
        # side bound the rest instead of a walk over hundreds of powers
        a = W(a)
        before = tower_module._nf.cache_info().misses
        assert coset_rep(a, W(gen), tower) == (0, a)
        assert tower_module._nf.cache_info().misses - before < 20


def reference_cyclically_reduce(w, tower, accepted):
    """Cyclic reduction that tries every unit rotation; appends each
    accepted ``(j, c, rotated)`` to ``accepted``."""
    c = tower_module._reduce(w, tower, True)
    conj = Word()
    changed = True
    while changed:
        changed = False
        units = c.units()
        for j in range(1, len(units)):
            rotated = Word(units[j:] + units[:j])
            red = tower_module._reduce(rotated, tower, True)
            # rotation may already cancel at the wrap when re-merged
            if rotated.unit_length < c.unit_length or red != rotated:
                accepted.append((j, c, rotated))
                conj = conj * Word(units[:j])
                c = red
                changed = True
                break
    return c, nf_word(conj, tower)


def count_reduce_calls(monkeypatch):
    """Patch ``_reduce`` to record the word of every call; returns the list."""
    calls = []
    reduce = tower_module._reduce

    def counted(*args):
        calls.append(args[0])
        return reduce(*args)

    monkeypatch.setattr(tower_module, "_reduce", counted)
    return calls


def wrap_case(j, c, rotated):
    """Which way an accepted rotation reduced across its wrap."""
    if rotated.unit_length < c.unit_length:
        return "ends"
    s = max_stage(c)
    units = c.units()
    first = next(i for i, lt in enumerate(units) if lt.kind == "t" and lt.index == s) if s else 0
    # a wrap segment that is not pinch-free, or the last and first top
    # letters pinching across the wrap
    return "segment" if j <= first else "pinch"


class TestCyclicReduction:
    def test_visible_conjugation(self):
        assert cyclically_reduce(W("g1 g0 g1^-1"), FREE) == (W("g0"), W("g1"))

    def test_already_cyclically_reduced(self):
        # oracle: all rotations of g0 t1 stay reduced
        c, conj = cyclically_reduce(W("g0 t1"), FREEZ)
        assert (c, conj) == (W("g0 t1"), W("e"))

    def test_pinch_before_rotation(self):
        assert cyclically_reduce(W("t1 g0 t1^-1"), HNN) == (W("g1"), W("e"))

    def test_conjugation_identity_holds(self):
        for tower in TOWERS:
            for w in random_words(tower, 200, 8, seed=37):
                c, y = cyclically_reduce(w, tower)
                assert nf_word(y * c * y.inverse(), tower) == nf_word(w, tower)

    def test_every_rotation_of_result_is_reduced(self):
        for tower in (HNN, MIXED):
            for w in random_words(tower, 120, 7, seed=41):
                c, _ = cyclically_reduce(w, tower)
                units = c.units()
                for j in range(len(units)):
                    rot = Word(units[j:] + units[:j])
                    assert rot.unit_length == c.unit_length
                    assert britton_reduce(rot, tower) == rot

    def test_matches_every_rotation_loop(self):
        # random words, their conjugates and their squares; both ways a
        # rotation reduces other than at its ends must occur past the first
        # unit
        rng = random.Random(3)
        towers = [random_distorted_tower(rng) for _ in range(40)] + [HNN, MIXED, FREEZ]
        accepted, mismatches = [], []
        for tower in towers:
            words = random_words(tower, 20, 12, rng.random())
            conjugators = random_words(tower, 20, 3, rng.random())
            for w, y in zip(words, conjugators):
                for v in (w, y * w * y.inverse(), w * w):
                    if cyclically_reduce(v, tower) != reference_cyclically_reduce(v, tower, accepted):
                        mismatches.append((format_tower(tower), str(v)))
        assert mismatches == []
        assert {"segment", "pinch"} <= {wrap_case(*a) for a in accepted if a[0] > 1}

    def test_rotations_tried_do_not_grow_with_the_base_run(self, monkeypatch):
        # one reduction of the word and one of its first rotation, not one
        # per unit of g0^50; a fresh tower, so no memo answers the call
        tower = ExtensionTower(2).extend_free()
        calls = count_reduce_calls(monkeypatch)
        assert cyclically_reduce(W("t1 g0^50"), tower) == (W("t1 g0^50"), W("e"))
        assert len(calls) <= 2


class TestConjugacyIntoStage:
    def test_base_conjugate(self):
        assert is_conjugate_into_base(W("g1 g0 g1^-1"), HNN)

    def test_fresh_letter_is_not(self):
        assert not is_conjugate_into_base(W("t1"), FREEZ)

    def test_pinch_reduces_into_base(self):
        assert is_conjugate_into_base(W("t1 g0 t1^-1"), HNN)

    def test_stage_window(self):
        w = W("t1 g0")
        assert is_conjugate_into_base(w, MIXED)

    def test_tower_without_steps_rejected(self):
        with pytest.raises(ValueError):
            is_conjugate_into_base(W("g0"), FREE)


class TestMinimalRoot:
    def test_cube(self):
        root, degree = minimal_root(W("t1 g0") ** 3, FREEZ)
        assert (root, degree) == (W("t1 g0"), 3)
        # oracle: cube the candidate and compare normal forms
        assert nf_word(root ** 3, FREEZ) == nf_word(W("t1 g0") ** 3, FREEZ)

    def test_single_letter_is_rootless(self):
        assert minimal_root(W("t1"), FREEZ) == (W("t1"), 1)

    def test_rotated_cube(self):
        root, degree = minimal_root(W("g0 t1") ** 3, FREEZ)
        assert (root, degree) == (W("g0 t1"), 3)

    def test_power_in_cyclic_edge_tower(self):
        a = nf_word(W("t2 g1") ** 2, MIXED)
        root, degree = minimal_root(a, MIXED)
        assert degree == 2
        assert nf_word(root ** 2, MIXED) == a

    def test_base_element_rejected(self):
        with pytest.raises(PreconditionViolated):
            minimal_root(W("g0^4"), MIXED)
        with pytest.raises(PreconditionViolated):
            minimal_root(W("e"), MIXED)

    @pytest.mark.parametrize("word, root", [
        ("g0 g1^2", "g0 g1^2"),
        ("g0 g1^-1 g0 g1^-1 g0 g1^-1", "g0 g1^-1"),
        ("g1 g0 g1^-1 g0 g1^-2", "g1 g0 g1^-2"),
        ("g0 g1 g0^-1 g1^-1 g0 g1 g0^-1 g1^-1", "g0 g1 g0^-1 g1^-1"),
    ], ids=["primitive", "cube", "conjugated-square", "commutator-square"])
    def test_base_roots_by_literal_period(self, word, root):
        assert root_witness(W(word), FREEZ) == W(root)

    @pytest.mark.xfail(strict=True, reason="a stage-0 cyclic core is read as having no root outside the base")
    def test_base_word_with_a_root_outside_the_base(self):
        # g0 = (t1^-1 g1 t1)^2, so g0 is no minimal root of itself
        tower = ExtensionTower(2).extend_hnn(W("g0"), W("g1^2"))
        assert abs(in_cyclic(W("g0"), root_witness(W("g0"), tower), tower)) >= 2

    def test_roots_are_unique_on_samples(self):
        # equal fourth powers force equal elements
        seen = {}
        for w in random_words(MIXED, 150, 4, seed=43):
            n = nf_word(w, MIXED)
            if not n or is_conjugate_into_base(n, MIXED):
                continue
            p = nf_word(n ** 4, MIXED)
            if p in seen:
                assert seen[p] == n
            seen[p] = n


class TestCommutesAndCentralizers:
    def test_powers_commute(self):
        assert commutes(W("g0"), W("g0^2"), FREE)

    def test_free_generators_do_not(self):
        assert not commutes(W("g0"), W("g1"), FREE)

    def test_identity_commutes(self):
        assert commutes(W("e"), W("g0 g1"), FREE)

    def test_free_base_centralizer_ball(self):
        ball = centralizer_ball(W("g0"), FREE, 2)
        assert ball == {W("e"), W("g0"), W("g0^-1"), W("g0^2"), W("g0^-2")}

    def test_no_stable_letter_enters_centralizer(self):
        ball = centralizer_ball(W("g0"), HNN, 2)
        assert all(max_stage(w) == 0 for w in ball)

    def test_radius_zero(self):
        assert centralizer_ball(W("g0"), FREE, 0) == {W("e")}

    @pytest.mark.parametrize("tower", [FREEZ, MIXED, DISTORTED], ids=["free_z", "hnn", "distorted"])
    def test_matches_the_commutator_reference(self, tower):
        # commutes compares the two products; the reference normal-forms the
        # four-factor commutator
        ball = ball_words(tower, 2)
        for a in ball:
            for b in ball:
                assert commutes(a, b, tower) == (not nf_word(a * b * a.inverse() * b.inverse(), tower)), (str(a), str(b))


class TestRationalImage:
    """``_nonzero_rational_image``: is a word nonzero in ``H1(G; Q)``."""

    def test_a_free_step_adds_no_relation(self):
        nonzero = tower_module._nonzero_rational_image(FREEZ)
        assert nonzero(W("t1")) and nonzero(W("g0 g1^-1"))
        assert not nonzero(W("t1 g0 t1^-1 g0^-1"))

    def test_baumslag_solitar_base_letter_is_zero(self):
        # BS(1,2): t1 g0 t1^-1 = g0^2 makes g0 = 2 g0 in H1
        nonzero = tower_module._nonzero_rational_image(ExtensionTower(1).extend_hnn(W("g0"), W("g0^2")))
        assert not nonzero(W("g0")) and not nonzero(W("g0^5"))
        assert nonzero(W("t1")) and nonzero(W("t1 g0"))

    def test_an_edge_identifies_the_images_of_its_words(self):
        # t1 g0 t1^-1 = g1: g0 and g1 have one image, which is not zero
        nonzero = tower_module._nonzero_rational_image(HNN)
        assert not nonzero(W("g0 g1^-1")) and not nonzero(W("e"))
        assert nonzero(W("g0")) and nonzero(W("g1^-1 t1"))

    def test_relations_are_reduced_against_each_other(self):
        # the second edge g0^2 = g1^2 follows from the first, and the third
        # g0 = t1 makes t1 g1^-1 zero, as an integer combination of all three
        tower = HNN.extend_hnn(W("g0^2"), W("g1^2")).extend_hnn(W("g1"), W("t1"))
        nonzero = tower_module._nonzero_rational_image(tower)
        assert not nonzero(W("t1 g1^-1")) and not nonzero(W("g0^3 t1^-3"))
        assert nonzero(W("t2")) and nonzero(W("t1 g1"))


class TestTorsionFreeness:
    def test_no_small_torsion(self):
        for tower in (HNN, MIXED):
            seen = 0
            for w in random_words(tower, 250, 6, seed=47):
                n = nf_word(w, tower)
                if n:
                    seen += 1
                    for k in range(2, 6):
                        assert nf_word(n ** k, tower) != W("e")
            assert seen > 100


class TestBallEnumeration:
    def test_rank_one_ball(self):
        assert [str(w) for w in ball_words(ExtensionTower(1), 2)] == [
            "e",
            "g0",
            "g0^-1",
            "g0^-2",
            "g0^2",
        ]

    def test_alphabet_grows_with_free_step(self):
        ball = ball_words(FREEZ, 1)
        assert {str(w) for w in ball} == {"e", "g0", "g0^-1", "g1", "g1^-1", "t1", "t1^-1"}


class TestTowerDescriptions:
    def test_round_trip(self):
        text = format_tower(MIXED)
        assert parse_tower(text).steps == MIXED.steps

    def test_multi_letter_edge_words(self):
        tower = ExtensionTower(2).extend_free().extend_hnn(W("g0 g1"), W("t1 g0"))
        again = parse_tower(format_tower(tower))
        assert again.steps == tower.steps

    def test_rejects_bad_headers(self):
        with pytest.raises(ValueError):
            parse_tower("rank=2\n")
        with pytest.raises(ValueError):
            parse_tower("base rank=2\nstep 2 freeZ\n")

    def test_hnn_edge_words_must_lie_in_the_tower(self):
        # g5 is no generator of a rank-2 base; accepted, it came back out of
        # nf_word(t1^-1 g0 t1), which itself rejects g5
        with pytest.raises(ValueError, match="g5"):
            ExtensionTower(2).extend_hnn(W("g5"), W("g0"))
        with pytest.raises(ValueError, match="g2"):
            FREEZ.extend_hnn(W("t1"), W("g2^2"))


def _live_cache_sizes():
    return [f.cache_info().currsize for f in (tower_module._nf, tower_module._coset)]


class TestCacheOwnership:
    def test_a_dropped_tower_frees_its_memos(self):
        # reference counting alone must free them: no memo refers to a tower
        gc.disable()
        try:
            before = _live_cache_sizes()
            tower = ExtensionTower(2).extend_free().extend_hnn(W("g0"), W("t1 g1"))
            # each table is filled by the operation that owns it
            for w in random_words(tower, 50, 8, seed=53):
                nf_word(w, tower)
                britton_reduce(w, tower)
            assert all(now > then for now, then in zip(_live_cache_sizes(), before))
            ref = weakref.ref(tower)
            del tower
            assert ref() is None
            assert _live_cache_sizes() == before
        finally:
            gc.enable()

    def test_an_extension_reuses_its_prefix_normal_forms(self):
        # a stage-0 word is its own normal form and counts as a miss on
        # every call, so the queries are stage-1 words
        base = ExtensionTower(2).extend_hnn(W("g0"), W("g1^2"))
        words = [w for w in random_words(base, 80, 8, seed=59) if max_stage(w) == 1]
        assert len(words) >= 40
        forms = [nf_word(w, base) for w in words]
        misses = tower_module._nf.cache_info().misses
        extended = base.extend_free()
        assert [nf_word(w, extended) for w in words] == forms
        assert [nf_word(w, extended.truncate(1)) for w in words] == forms
        assert tower_module._nf.cache_info().misses == misses

    def test_an_extension_reuses_its_prefix_coset_entries(self):
        # t1 and t2 have one edge, so t2^-1 u rewrites the base word u over
        # the same base subgroup as t1^-1 u; the entry lives in the memo of
        # the stage its arguments reach, stage 0, which both towers hold
        first = ExtensionTower(2).extend_hnn(W("g0 g1"), W("g1 g0"))
        second = first.extend_hnn(W("g0 g1"), W("g1 g0"))
        words = random_words(FREE, 40, 6, seed=67)
        forms = [str(nf_word(W("t1^-1") * u, first)) for u in words]
        misses = tower_module._coset.cache_info().misses
        assert [str(nf_word(W("t2^-1") * u, second)) for u in words] == [f.replace("t1", "t2") for f in forms]
        assert tower_module._coset.cache_info().misses == misses

    def test_siblings_keep_their_own_power_tables(self):
        # g1 t1 is a normal form in both extensions of one base, but its
        # square is not: its power table belongs to stage 1, which each
        # extension holds alone
        base = ExtensionTower(2)
        g = W("g1 t1")
        for tower in (base.extend_hnn(W("g1"), W("g0")), base.extend_hnn(W("g0"), W("g1"))):
            assert tower_module._power_word(g, 2, tower) == nf_word(g ** 2, parse_tower(format_tower(tower)))

    def test_an_extension_reuses_its_prefix_cyclic_reductions_and_roots(self):
        # both results depend only on the stages their argument reaches, so
        # they live in that stage's memo, which every extension holds
        base = ExtensionTower(2).extend_hnn(W("g0"), W("g1^2"))
        words = [nf_word(w, base) for w in random_words(base, 80, 8, seed=71)]
        words = [w for w in words if max_stage(w) == 1 and not is_conjugate_into_base(w, base)]
        assert len(words) >= 20
        reductions = [cyclically_reduce(w, base) for w in words]
        roots = [minimal_root(w, base) for w in words]
        misses = (cyclically_reduce.cache_info().misses, minimal_root.cache_info().misses)
        for tower in (base.extend_free(), base.extend_hnn(W("t1"), W("g0")), base.extend_free().truncate(1)):
            assert [cyclically_reduce(w, tower) for w in words] == reductions
            assert [minimal_root(w, tower) for w in words] == roots
        assert (cyclically_reduce.cache_info().misses, minimal_root.cache_info().misses) == misses

    def test_a_warm_memo_still_rejects_a_word_above_the_top(self):
        # t2 g1 is memoized at stage 2, which the truncated towers lack
        tower = ExtensionTower(2).extend_free().extend_hnn(W("g0"), W("t1 g1"))
        w = W("t2 g1")
        cyclically_reduce(w, tower)
        minimal_root(w, tower)
        for short in (tower.truncate(1), tower.truncate(0)):
            with pytest.raises(ValueError, match="t2"):
                cyclically_reduce(w, short)
            with pytest.raises(ValueError, match="t2"):
                minimal_root(w, short)

    def test_normal_forms_do_not_go_through_britton_reduction(self, monkeypatch):
        # single base runs as edge words: membership, cosets and powers are
        # exact arithmetic, so no cyclic reduction calls _reduce either
        tower = ExtensionTower(2).extend_hnn(W("g0"), W("g1^2"))
        words = [w for w in random_words(tower, 80, 8, seed=61) if max_stage(w) == 1]
        assert len(words) >= 40
        calls = count_reduce_calls(monkeypatch)
        for w in words:
            nf_word(w, tower)
        assert calls == []

    def test_a_full_table_drops_its_older_half(self):
        cache, table = tower_module._Table("nf", 4), {}
        for k in range(5):
            assert cache.store(table, k, -k) == -k
        assert table == {2: -2, 3: -3, 4: -4}
        assert cache.misses == 5


@pytest.mark.parametrize("seed", [2024, 106, 111, 124])
def test_normal_forms_do_not_depend_on_query_history(seed):
    # the parsed copy starts with fresh memos and meets the words backwards
    rng = random.Random(seed)
    for _ in range(20):
        warm = random_distorted_tower(rng)
        words = random_words(warm, 30, 8, rng.random())
        forms = [nf_word(w, warm) for w in words]
        fresh = parse_tower(format_tower(warm))
        assert [nf_word(w, fresh) for w in reversed(words)] == forms[::-1], format_tower(warm)


@pytest.mark.parametrize("seed", [2024, 106, 111, 124])
def test_results_depend_only_on_the_prefix_tower(seed):
    # a result is that of the tower cut at the top stage its arguments
    # reach: the parsed copy of that prefix starts with fresh memos, and a
    # sibling sharing the full tower's lower memos must read none of its
    # entries for words with the top stable letter
    rng = random.Random(seed)
    for _ in range(20):
        tower = random_distorted_tower(rng)
        top = tower.num_steps
        prefixes = [parse_tower(format_tower(tower.truncate(s))) for s in range(top + 1)]
        sibling = tower.truncate(top - 1).extend_hnn(W("g0"), W("g1"))
        fresh_sibling = parse_tower(format_tower(sibling))
        words = [w for s in range(top + 1) for w in random_words(tower.truncate(s), 6, 6, rng.random())]
        gens = [step.source for step in tower.steps if not step.is_free]
        gens += [g for g in random_words(tower, 4, 3, rng.random()) if nf_word(g, tower) and nf_word(g, sibling)]
        for w in words:
            assert nf_word(w, tower) == nf_word(w, prefixes[max_stage(w)]), (format_tower(tower), str(w))
            assert nf_word(w, sibling) == nf_word(w, fresh_sibling), (format_tower(sibling), str(w))
        for a in words[::3]:
            for g in gens:
                s = max(max_stage(a), max_stage(g))
                assert coset_rep(a, g, tower) == coset_rep(a, g, prefixes[s]), (format_tower(tower), str(a), str(g))
                assert coset_rep(a, g, sibling) == coset_rep(a, g, fresh_sibling), (format_tower(sibling), str(a), str(g))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_normal_form_idempotence_property(data):
    tower = data.draw(st.sampled_from(TOWERS))
    alphabet = tower.alphabet()
    letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=8))
    w = Word()
    for piece in letters:
        w = w * piece
    n = nf_word(w, tower)
    assert nf_word(n, tower) == n


def test_package_exports_resolve():
    import grouptower

    for name in grouptower.__all__:
        assert hasattr(grouptower, name), name
