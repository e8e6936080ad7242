from functools import partial

import pytest

from grouptower import oracles
from grouptower.words import parse_word
from grouptower.tower import ExtensionTower, MembershipUndecided, ball_words, nf_word
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
    run_standard_suite,
    square_inverse_pair_conjugate,
    standard_towers,
    tower_suite,
)

W = parse_word

FREEZ = standard_towers()["free_z"]
MIXED = standard_towers()["hnn"]


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
        assert _scan("demo", [(1,), (2,)], lambda k: None).outcome == VACUOUS
        assert _scan("demo", [(1,)], lambda k: True).outcome == PASS
        assert _scan("demo", [(1,)], lambda k: True, undecided=1).outcome == UNDECIDED
        assert _scan("demo", [(1,)], lambda k: True, checked=5).checked == 6


def reference_cent(spec, tower):
    """check_cent without the commutation table: every commutator of the
    pair pre-scan and of every triple is normal-formed afresh."""
    ball = ball_words(tower, spec.radius)
    undecided = 0
    pairs = []
    for w, c in _tuples(ball, 2, spec):
        try:
            if oracles.commutes(w, c, tower):
                pairs.append((w, c))
        except MembershipUndecided:
            undecided += 1
    triples = ((w, c, a) for w, c in pairs for a in ball)
    return _scan("cent", triples, partial(common_cyclic_centralizer, tower), undecided=undecided)


def undecided_on(pair, monkeypatch, both_orders):
    """Patch ``oracles.commutes`` to raise on ``pair`` (and on its reverse
    when ``both_orders``)."""
    real = oracles.commutes
    blocked = {pair, pair[::-1]} if both_orders else {pair}

    def commutes(a, b, tower):
        if (a, b) in blocked:
            raise MembershipUndecided("blocked")
        return real(a, b, tower)

    monkeypatch.setattr(oracles, "commutes", commutes)


class TestCentCommutationTable:
    SPEC = BallSpec(radius=2)
    PAIR = (W("g0"), W("g0^2"))

    @pytest.mark.parametrize("tower", [FREEZ, MIXED], ids=["free_z", "hnn"])
    def test_matches_unmemoised_reference(self, tower):
        assert check_cent(self.SPEC, tower) == reference_cent(self.SPEC, tower)

    def test_one_commutes_call_per_unordered_pair(self, monkeypatch):
        calls = []
        real = oracles.commutes

        def counting(a, b, tower):
            calls.append((a, b))
            return real(a, b, tower)

        monkeypatch.setattr(oracles, "commutes", counting)
        n = len(ball_words(FREEZ, 2))
        verdict = check_cent(self.SPEC, FREEZ)
        assert len(calls) <= n * (n + 1) // 2
        assert verdict.checked == 6253 and verdict.premise_hits == 244

    def test_pair_undecided_in_both_orders_counts_as_today(self, monkeypatch):
        undecided_on(self.PAIR, monkeypatch, both_orders=True)
        verdict = check_cent(self.SPEC, FREEZ)
        assert verdict.outcome == UNDECIDED
        assert verdict == reference_cent(self.SPEC, FREEZ)

    def test_pair_undecided_in_one_order_is_decided(self, monkeypatch):
        plain = check_cent(self.SPEC, FREEZ)
        undecided_on(self.PAIR, monkeypatch, both_orders=False)
        assert reference_cent(self.SPEC, FREEZ).undecided > 0
        assert check_cent(self.SPEC, FREEZ) == plain
