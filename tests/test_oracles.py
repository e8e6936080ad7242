import itertools
from collections import Counter
from functools import partial

import pytest

from grouptower import oracles
from grouptower.cli import main
from grouptower.words import parse_word
from grouptower.tower import ExtensionTower, MembershipUndecided, ball_words, minimal_root, nf_word
from grouptower.oracles import (
    COUNTEREXAMPLE,
    PASS,
    UNDECIDED,
    VACUOUS,
    _scan,
    _tuples,
    BallSpec,
    CapExceeded,
    check_aabb,
    check_cent,
    check_cykr,
    check_dodatkowy,
    check_ip,
    check_jsc,
    check_nn,
    check_torsion,
    common_cyclic_centralizer,
    enumerate_ball,
    equal_powers_equal,
    powers_stay_outside,
    run_standard_suite,
    square_inverse_pair_conjugate,
    standard_towers,
    tower_suite,
)

W = parse_word

FREEZ = standard_towers()["free_z"]
MIXED = standard_towers()["hnn"]
# the Klein bottle group t g0 t^-1 = g0^-1 under a free step: (g0 t1)^2 = t1^2
# with g0 t1 != t1, so pairs meet the aabb premise with ab != e
KLEIN = ExtensionTower(1).extend_hnn(W("g0"), W("g0^-1")).extend_free()


class TestEnumerateBall:
    def test_rank_one_radius_two(self):
        ball = enumerate_ball(BallSpec(radius=2), ExtensionTower(1))
        assert [str(w) for w in ball] == ["e", "g0", "g0^-1", "g0^-2", "g0^2"]

    def test_radius_zero(self):
        ball = enumerate_ball(BallSpec(radius=0), FREEZ)
        assert [str(w) for w in ball] == ["e"]

    def test_free_step_enlarges_alphabet(self):
        ball = enumerate_ball(BallSpec(radius=1), FREEZ)
        assert {str(w) for w in ball} == {"e", "g0", "g0^-1", "g1", "g1^-1", "t1", "t1^-1"}

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            enumerate_ball(BallSpec(radius=3, sample_cap=10), FREEZ)

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            BallSpec(radius=9)

    def test_deterministic(self):
        a = enumerate_ball(BallSpec(radius=2, seed=1), MIXED)
        b = enumerate_ball(BallSpec(radius=2, seed=1), MIXED)
        assert a == b


class TestSquareInversePairs:
    def test_premise_excludes_plain_inverses(self):
        # ab = e pairs fall outside the premise
        assert square_inverse_pair_conjugate(FREEZ, W("g0"), W("g0^-1")) is None

    def test_vacuous_over_free_product(self):
        verdict = check_aabb(BallSpec(radius=3), FREEZ)
        assert verdict.outcome == VACUOUS
        assert verdict.premise_hits == 0

    def test_requires_free_top_step(self):
        from grouptower.tower import PreconditionViolated

        with pytest.raises(PreconditionViolated):
            check_aabb(BallSpec(radius=2), MIXED)


def reference_aabb(spec, tower, keep=lambda a, b: True):
    """check_aabb as one replay predicate per pair, over the kept pairs."""
    pairs = (p for p in _tuples(ball_words(tower, spec.radius), 2, spec) if keep(*p))
    return _scan("aabb", pairs, partial(square_inverse_pair_conjugate, tower))


class TestSquaresForAabb:
    @pytest.mark.parametrize(
        "tower, radius",
        # radius 4 holds 937 (free_z) and 609 (klein) normal forms, so its
        # pairs are sampled; radii 2 and 3 are exhaustive
        [(FREEZ, 2), (FREEZ, 3), (FREEZ, 4), (KLEIN, 2), (KLEIN, 3), (KLEIN, 4)],
        ids=["free_z-2", "free_z-3", "free_z-4", "klein-2", "klein-3", "klein-4"],
    )
    def test_matches_replay_predicate(self, tower, radius):
        spec = BallSpec(radius=radius)
        assert check_aabb(spec, tower) == reference_aabb(spec, tower)

    def test_klein_tower_meets_the_premise(self):
        verdict = check_aabb(BallSpec(radius=2), KLEIN)
        assert verdict.outcome == PASS and verdict.premise_hits == 12

    def test_undecided_square_counts_its_tuples(self, monkeypatch):
        spec = BallSpec(radius=2)
        ball = ball_words(KLEIN, 2)
        # g0^2 is the square of g0 and the inverse square of g0^-1
        touched = {W("g0"), W("g0^-1")}
        kept = reference_aabb(spec, KLEIN, lambda a, b: not {a, b} & touched)
        real = oracles.nf_word

        def nf_word(w, tower):
            if w == W("g0^2"):
                raise MembershipUndecided("blocked")
            return real(w, tower)

        monkeypatch.setattr(oracles, "nf_word", nf_word)
        verdict = check_aabb(spec, KLEIN)
        assert verdict.outcome == UNDECIDED
        assert verdict.checked == len(ball) ** 2
        assert verdict.undecided == len(ball) ** 2 - (len(ball) - 2) ** 2
        assert (verdict.premise_hits, verdict.witnesses) == (kept.premise_hits, kept.witnesses)


class TestLemmaOracles:
    def test_dodatkowy_passes(self):
        verdict = check_dodatkowy(BallSpec(radius=3), FREEZ, power_bound=4)
        assert verdict.outcome == PASS
        assert verdict.premise_hits > 0

    def test_cent_passes_with_real_hits(self):
        verdict = check_cent(BallSpec(radius=2), MIXED)
        assert verdict.outcome == PASS
        assert verdict.premise_hits > 0

    def test_cykr_passes(self):
        assert check_cykr(BallSpec(radius=3), MIXED).outcome == PASS

    def test_ip_degree_bound(self):
        verdict = check_ip(BallSpec(radius=3), FREEZ)
        assert verdict.outcome == PASS

    def test_nn_passes(self):
        assert check_nn(BallSpec(radius=2), MIXED, power_bound=4).outcome == PASS

    def test_jsc_passes(self):
        assert check_jsc(BallSpec(radius=2), MIXED, power_bound=4).outcome == PASS

    def test_torsion_passes(self):
        assert check_torsion(BallSpec(radius=3), MIXED, order_bound=5).outcome == PASS

    def test_predicates_replay_on_witness_words(self):
        # verdict witnesses are plain word text; feeding them back through
        # the predicate must reproduce the original evaluation
        from grouptower.oracles import equal_powers_equal, powers_stay_outside

        a = nf_word(W("t1 g0"), FREEZ)
        assert equal_powers_equal(FREEZ, a, a, 2) is True
        assert powers_stay_outside(FREEZ, W(str(a)), 3) is True
        assert powers_stay_outside(FREEZ, W("g0 g1"), 3) is None  # premise unmet

    def test_determinism(self):
        one = run_standard_suite(radius=2, sample_cap=500, seed=7)
        two = run_standard_suite(radius=2, sample_cap=500, seed=7)
        assert [(n, v.outcome, v.checked, v.premise_hits) for n, v in one] == [
            (n, v.outcome, v.checked, v.premise_hits) for n, v in two
        ]

    def test_full_suite_green(self):
        results = run_standard_suite(radius=3, power_bound=4, order_bound=5, sample_cap=4000, seed=0)
        assert all(v.is_ok for _, v in results)
        vacuous = [v.lemma_id for _, v in results if v.outcome == VACUOUS]
        assert vacuous == ["aabb"]


# (lemma@tower, outcome, checked, premise_hits, undecided) of the radius-2
# standard suite with default bounds, cap and seed
RADIUS_2_ROWS = [
    ("aabb@free_z", "vacuous_pass", 1369, 0, 0),
    ("dodatkowy@free_z", "pass", 148, 80, 0),
    ("cent@free_z", "pass", 6253, 244, 0),
    ("cykr@free_z", "pass", 111, 60, 0),
    ("ip@free_z", "pass", 37, 20, 0),
    ("nn@free_z", "pass", 1668, 80, 0),
    ("jsc@free_z", "pass", 5184, 72, 0),
    ("torsion@free_z", "pass", 37, 36, 0),
    ("dodatkowy@hnn", "pass", 244, 96, 0),
    ("cent@hnn", "pass", 16653, 280, 0),
    ("cykr@hnn", "pass", 183, 72, 0),
    ("ip@hnn", "pass", 61, 24, 0),
    ("nn@hnn", "pass", 2452, 96, 0),
    ("jsc@hnn", "pass", 7744, 88, 0),
    ("torsion@hnn", "pass", 61, 60, 0),
]


def rows(results):
    return [(f"{v.lemma_id}@{n}", v.outcome, v.checked, v.premise_hits, v.undecided) for n, v in results]


class TestSuites:
    def test_radius_two_standard_suite_pinned(self):
        assert rows(run_standard_suite(radius=2)) == RADIUS_2_ROWS

    def test_tower_suite_trims_radii(self):
        # cent and the pair scans never exceed the suite radius
        by_id = {v.lemma_id: v for v in tower_suite(FREEZ, 1, 3, 4, 5, 4000, 0)}
        assert by_id["cent"] == check_cent(BallSpec(radius=1), FREEZ)
        assert by_id["nn"] == check_nn(BallSpec(radius=1), FREEZ, 4)


class TestScanDriver:
    def test_counts_undecided_and_keeps_argument_text(self):
        def predicate(w, n):
            if n == 1:
                raise MembershipUndecided("no certificate")
            if n == 2:
                return None
            return str(w) != "g0"

        verdict = _scan("demo", [(W("g0"), n) for n in (1, 2, 3)] + [(W("g1"), 3)], predicate)
        assert (verdict.checked, verdict.premise_hits, verdict.undecided) == (4, 2, 1)
        assert verdict.outcome == COUNTEREXAMPLE
        assert verdict.witnesses == (("g0", "3"),)

    def test_outcomes_without_witnesses(self):
        def raises_at_two(k):
            if k == 2:
                raise MembershipUndecided("no certificate")
            return True

        assert _scan("demo", [(1,), (2,)], lambda k: None).outcome == VACUOUS
        assert _scan("demo", [(1,)], lambda k: True).outcome == PASS
        assert _scan("demo", [(1,), (2,)], raises_at_two).outcome == UNDECIDED
        assert _scan("demo", [(1,)], lambda k: True, checked=5).checked == 6


def reference_cent(spec, tower):
    """check_cent without the commutation table: every commutator of the
    pair pre-scan and of every triple is normal-formed afresh."""
    ball = ball_words(tower, spec.radius)
    pairs = [(w, c) for w, c in _tuples(ball, 2, spec) if oracles.commutes(w, c, tower)]
    triples = ((w, c, a) for w, c in pairs for a in ball)
    return _scan("cent", triples, partial(common_cyclic_centralizer, tower))


def inverse_orbit(u, v, tower):
    """The ordered pairs ``(u^±1, v^±1)`` and their reverses."""
    us, vs = (u, nf_word(u.inverse(), tower)), (v, nf_word(v.inverse(), tower))
    return {pair for x in us for y in vs for pair in ((x, y), (y, x))}


def undecided_on(blocked, monkeypatch):
    """Patch ``oracles.commutes`` to raise on the ordered pairs in ``blocked``."""
    real = oracles.commutes

    def commutes(a, b, tower):
        if (a, b) in blocked:
            raise MembershipUndecided("blocked")
        return real(a, b, tower)

    monkeypatch.setattr(oracles, "commutes", commutes)


class TestCentCommutationTable:
    SPEC = BallSpec(radius=2)
    PAIR = (W("g0"), W("g0^2"))

    @pytest.mark.parametrize("tower", [FREEZ, MIXED, KLEIN], ids=["free_z", "hnn", "klein"])
    def test_matches_unmemoised_reference(self, tower):
        assert check_cent(self.SPEC, tower) == reference_cent(self.SPEC, tower)

    def test_one_commutes_call_per_inverse_orbit(self, monkeypatch):
        calls = []
        real = oracles.commutes

        def counting(a, b, tower):
            calls.append((a, b))
            return real(a, b, tower)

        monkeypatch.setattr(oracles, "commutes", counting)
        ball = ball_words(FREEZ, 2)
        orbits = {frozenset(inverse_orbit(u, v, FREEZ)) for u, v in itertools.product(ball, ball)}
        verdict = check_cent(self.SPEC, FREEZ)
        assert len(calls) <= len(orbits)
        assert verdict.checked == 6253 and verdict.premise_hits == 244

    def test_one_shared_root_call_per_commuting_pair(self, monkeypatch):
        calls = Counter()
        real = oracles._shared_root

        def counting(tower, w, c, a):
            calls[w, c] += 1
            return real(tower, w, c, a)

        monkeypatch.setattr(oracles, "_shared_root", counting)
        for tower in (FREEZ, MIXED):
            calls.clear()
            verdict = check_cent(self.SPEC, tower)
            assert max(calls.values()) == 1
            assert verdict == reference_cent(self.SPEC, tower)

    def test_raise_filling_the_table_stops_lemmas(self, monkeypatch, capsys):
        # the pair pre-scan runs outside the scan driver, so a raise there
        # is a defect: the run stops instead of counting an undecided pair
        undecided_on(inverse_orbit(*self.PAIR, FREEZ), monkeypatch)
        assert main(["lemmas", "--radius", "2", "--format", "structured"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def reference_dodatkowy(spec, tower, power_bound=4):
    """check_dodatkowy as one replay predicate per ``(a, n)``."""
    ball = ball_words(tower, spec.radius)
    pairs = ((a, n) for a in ball for n in range(1, power_bound + 1))
    return _scan("dodatkowy", pairs, partial(powers_stay_outside, tower))


def reference_nn(spec, tower, power_bound=4):
    """check_nn as one replay predicate per triple, over the pairs that
    ``_tuples`` draws from the eligible elements; each ineligible element
    counts its ``power_bound`` tuples."""
    ball = ball_words(tower, spec.radius)
    pool = tuple(a for a in ball if oracles._eligible(a, tower))
    triples = ((a, b, n) for a, b in _tuples(pool, 2, spec) for n in range(1, power_bound + 1))
    return _scan("nn", triples, partial(equal_powers_equal, tower), checked=(len(ball) - len(pool)) * power_bound)


def only_equal_powers_equal(tower, a, b, n, m):
    """Premise: ``a^n = b^m``.  Conclusion: ``n = m`` and ``a = b``."""
    if nf_word(a ** n, tower) != nf_word(b ** m, tower):
        return None
    return n == m and nf_word(a, tower) == nf_word(b, tower)


def reference_jsc(spec, tower, power_bound=4):
    """check_jsc as one replay predicate per quad, over the pairs that
    ``_tuples`` draws from the eligible elements without a proper root."""
    ball = ball_words(tower, spec.radius)
    pool = tuple(a for a in ball if oracles._eligible(a, tower) and minimal_root(a, tower)[1] == 1)
    exponents = range(1, power_bound + 1)
    quads = ((a, b, n, m) for a, b in _tuples(pool, 2, spec) for n in exponents for m in exponents)
    return _scan("jsc", quads, partial(only_equal_powers_equal, tower))


REFERENCES = {"nn": (check_nn, reference_nn), "jsc": (check_jsc, reference_jsc),
              "dodatkowy": (check_dodatkowy, reference_dodatkowy)}


class TestPremiseHitScans:
    @pytest.mark.parametrize("lemma", sorted(REFERENCES))
    @pytest.mark.parametrize("tower", [FREEZ, MIXED, KLEIN], ids=["free_z", "hnn", "klein"])
    # radius 4 holds 744 eligible elements on free_z, so its pair draws are
    # sampled; radius 2 is exhaustive, and so is radius 3 but for nn on hnn
    @pytest.mark.parametrize("radius", [2, 3, 4])
    def test_matches_replay_predicate(self, lemma, tower, radius):
        check, reference = REFERENCES[lemma]
        spec = BallSpec(radius=radius, seed=1001)
        assert check(spec, tower) == reference(spec, tower)

    def test_predicates_see_only_premise_hits_in_scan_order(self, monkeypatch):
        real = oracles._scan

        def recording(log):
            def scan(lemma_id, tuples, predicate, checked=0):
                def recorded(*args):
                    result = predicate(*args)
                    log.append((args, result is not None))
                    return result

                return real(lemma_id, tuples, recorded, checked)

            return scan

        spec = BallSpec(radius=2)
        scans = [(check_cent, reference_cent)] + [REFERENCES[lemma] for lemma in ("nn", "jsc", "dodatkowy")]
        for check, reference in scans:
            fast, replay = [], []
            monkeypatch.setattr(oracles, "_scan", recording(fast))
            verdict = check(spec, MIXED)
            monkeypatch.setitem(globals(), "_scan", recording(replay))
            reference(spec, MIXED)
            assert len(fast) == verdict.premise_hits > 0
            assert [args for args, hit in fast if hit] == [args for args, hit in replay if hit]
