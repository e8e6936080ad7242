import random
import tracemalloc

import pytest

from grouptower import minstruct
from grouptower.minstruct import (
    MODE_I,
    OMEGA,
    AxiomReport,
    AxiomResult,
    F2Element,
    ModeMismatch,
    add,
    axiom_suite,
    chain_cross_check,
    degree,
    domain_points,
    element,
    elements_over,
    embedding_check,
    less,
    max_chain_brute,
    p_n,
    parse_element,
    points_between,
    pred_point,
    sim,
    succ_point,
    zero,
)


def e(*points):
    return element(OMEGA, points)


def skewed(a, b):
    """A commutative sum with identity and x+x = 0 that is not associative:
    ({p0}+{p1})+{p1} = {p0,p2} for the first three domain points."""
    p0, p1, p2 = domain_points(a.mode, 3)
    if {a.support, b.support} == {frozenset({p0}), frozenset({p1})}:
        return element(a.mode, (p0, p1, p2))
    return add(a, b)


OUTSIDE = {OMEGA: 9, MODE_I: (3, 9)}  # beyond every exhaustive domain


def leaky(a, b):
    """Sums of two nonzero elements with three points gain a point outside
    the domain."""
    total = add(a, b)
    if a.support and b.support and len(total.support) == 3:
        return element(a.mode, (*total.support, OUTSIDE[a.mode]))
    return total


def reference_sum_axioms(mode, bound):
    """Axioms 1 and 7 of :func:`axiom_suite` as plain element-level loops:
    a fresh ``minstruct.add`` for every check, the order read through
    ``less`` and ``sim`` on elements."""
    points = domain_points(mode, bound)
    dom = elements_over(mode, points)
    masks = {x: sum(1 << points.index(p) for p in x.support) for x in dom}
    zero_el = zero(mode)
    checked, bad = 0, []
    for x in dom:
        checked += 2
        if minstruct.add(x, zero_el) != x or minstruct.add(x, x) != zero_el:
            bad.append(str(x))
    for x in dom:
        for y in dom:
            checked += 1
            if masks.get(minstruct.add(x, y)) != masks[x] ^ masks[y]:
                bad.append(f"{x}+{y}")
    first = AxiomResult("1-group-exponent-2", not bad, checked, tuple(bad[:4]))
    checked, bad = 0, []
    for x in dom:
        for y in dom:
            if less(x, y):
                checked += 1
                if degree(minstruct.add(x, y)) != degree(y):
                    bad.append(f"below {x},{y}")
            elif sim(x, y) and x.support:
                checked += 1
                if not less(minstruct.add(x, y), x):
                    bad.append(f"equal {x},{y}")
    return first, AxiomResult("7-addition-vs-order", not bad, checked, tuple(bad[:4]))


def reference_chain_cross_check(support_bound):
    """:func:`chain_cross_check` with one brute chain per ordered pair."""
    dom = elements_over(OMEGA, list(range(support_bound)))
    pairs = mismatches = 0
    for a in dom:
        for b in dom:
            if less(a, b):
                pairs += 1
                if minstruct.max_chain_brute(a, b, dom) != points_between(OMEGA, degree(a), degree(b)):
                    mismatches += 1
    return pairs, mismatches


class TestElements:
    @pytest.mark.parametrize("mode", [OMEGA, MODE_I])
    def test_degree_is_the_largest_support_point(self, mode):
        for x in elements_over(mode, domain_points(mode, 6)):
            assert degree(x) == (max(x.support) if x.support else None)

    @pytest.mark.parametrize("mode", [OMEGA, MODE_I])
    def test_equal_supports_are_equal_elements(self, mode):
        for x in elements_over(mode, domain_points(mode, 6)):
            twin = element(mode, reversed(sorted(x.support)))
            assert twin == x and hash(twin) == hash(x)


class TestAddition:
    def test_exponent_two(self):
        assert add(add(e(0, 1), e(1)), zero(OMEGA)) == e(0)

    def test_identity(self):
        a = e(2, 5)
        assert add(a, zero(OMEGA)) == a

    def test_symmetric_difference(self):
        assert add(e(0), e(3)) == e(0, 3)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            add(e(0), element(MODE_I, [(0, 0)]))
        with pytest.raises(ModeMismatch):
            add(element(MODE_I, [(1, -3)]), e(0))

    @pytest.mark.parametrize("mode", [OMEGA, MODE_I])
    def test_sum_is_the_element_of_the_symmetric_difference(self, mode):
        pool = elements_over(mode, domain_points(mode, 6))
        rng = random.Random(f"add:{mode}")
        for _ in range(500):
            x, y = rng.choice(pool), rng.choice(pool)
            total, expected = add(x, y), element(mode, x.support ^ y.support)
            assert total == expected
            assert (total.top, hash(total), str(total)) == (expected.top, hash(expected), str(expected))

    @pytest.mark.parametrize("mode, point", [(OMEGA, True), (OMEGA, False), (MODE_I, (0, True)), (MODE_I, (True, 0))])
    def test_bool_points_are_rejected(self, mode, point):
        # True == 1, but a bool is no index point
        with pytest.raises(ValueError):
            element(mode, [point])

    def test_outside_input_is_still_validated(self):
        # sums skip the point check; every other way in keeps it
        for build in (
            lambda: element(OMEGA, [-1]),
            lambda: element(MODE_I, [(0, -1)]),
            lambda: F2Element(OMEGA, frozenset({2, -1})),
            lambda: F2Element(MODE_I, frozenset({(1, 2, 3)})),
            lambda: parse_element("{(0,-2)}", MODE_I),
        ):
            with pytest.raises(ValueError):
                build()


class TestOrder:
    def test_zero_below_everything(self):
        assert less(zero(OMEGA), e(0))
        assert not less(zero(OMEGA), zero(OMEGA))

    def test_same_degree_incomparable(self):
        assert not less(e(0, 2), e(1, 2))
        assert not less(e(1, 2), e(0, 2))
        assert sim(e(0, 2), e(1, 2))

    def test_degree_comparison(self):
        assert less(e(1), e(0, 3))

    def test_mode_i_lexicographic(self):
        a = element(MODE_I, [(0, 5)])
        b = element(MODE_I, [(1, -100)])
        assert less(a, b)


class TestGapPredicates:
    def test_adjacent_degrees(self):
        assert p_n(0, e(1), e(2))

    def test_two_between(self):
        # oracle: exhaustive chains over a small domain
        dom = elements_over(OMEGA, list(range(4)))
        assert max_chain_brute(e(0), e(3), dom) == 2
        assert p_n(2, e(0), e(3))

    def test_mutually_exclusive(self):
        assert not p_n(1, e(0), e(3))

    def test_zero_to_element(self):
        assert p_n(0, zero(OMEGA), e(0))
        assert p_n(3, zero(OMEGA), e(3))

    def test_infinite_gap_in_mode_i(self):
        a = element(MODE_I, [(0, 1)])
        b = element(MODE_I, [(2, 0)])
        assert less(a, b)
        assert not any(p_n(n, a, b) for n in range(40))
        assert points_between(MODE_I, degree(a), degree(b)) is None

    def test_chain_cross_check_matches_one_brute_chain_per_pair(self, monkeypatch):
        assert chain_cross_check(5) == reference_chain_cross_check(5) == (341, 0)
        real = minstruct.max_chain_brute
        calls = []

        def off_on_one_degree_pair(a, b, dom):
            calls.append((degree(a), degree(b)))
            return real(a, b, dom) + ((degree(a), degree(b)) == (1, 3))

        monkeypatch.setattr(minstruct, "max_chain_brute", off_on_one_degree_pair)
        # the 2 elements of degree 1 against the 8 of degree 3 mismatch
        assert chain_cross_check(5) == (341, 16)
        # one brute chain for each of the 5 + 10 degree pairs
        assert len(calls) == len(set(calls)) == 15
        assert reference_chain_cross_check(5) == (341, 16)

    def test_closed_form_matches_chains_support_six(self):
        pts = list(range(6))
        dom = elements_over(OMEGA, pts)
        for a in dom:
            for b in dom:
                if less(a, b):
                    gap = points_between(OMEGA, degree(a), degree(b))
                    assert max_chain_brute(a, b, dom) == gap


class TestNeighbours:
    def test_mode_i_interior_points(self):
        assert succ_point(MODE_I, (2, -1)) == (2, 0)
        assert pred_point(MODE_I, (2, -1)) == (2, -2)

    def test_first_point_has_zero_class_predecessor(self):
        assert pred_point(MODE_I, (0, 0)) is None
        assert pred_point(OMEGA, 0) is None


class TestAxiomSuite:
    def test_omega_bound_eight(self):
        report = axiom_suite(OMEGA, 8)
        assert isinstance(report, AxiomReport)
        assert report.domain_size == 256
        assert report.all_passed

    def test_mode_i_three_copies(self):
        report = axiom_suite(MODE_I, 8)
        assert report.domain_size == 256
        assert report.all_passed

    def test_reports_every_axiom(self):
        report = axiom_suite(OMEGA, 5)
        assert [r.axiom for r in report.results] == [
            "1-group-exponent-2",
            "2-zero-minimal",
            "3-gap-predicates",
            "4-equivalence",
            "5-order-congruence",
            "6-discrete-linear-classes",
            "7-addition-vs-order",
        ]

    @pytest.mark.parametrize("mutant", [None, skewed, leaky], ids=["add", "skewed", "leaky"])
    @pytest.mark.parametrize("bound", [4, 5, 6])
    @pytest.mark.parametrize("mode", [OMEGA, MODE_I])
    def test_sum_axioms_match_element_level_loops(self, mode, bound, mutant, monkeypatch):
        if mutant is not None:
            monkeypatch.setattr(minstruct, "add", mutant)
        results = axiom_suite(mode, bound).results
        expected = reference_sum_axioms(mode, bound)
        assert (results[0], results[6]) == expected
        assert expected[0].passed == (mutant is None)

    def test_axiom_suite_keeps_no_table_of_sums(self):
        # one pass computes each sum and drops it; a table of the 65,536
        # sums at bound 8 peaks near 41 MiB
        tracemalloc.start()
        try:
            axiom_suite(OMEGA, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_non_associative_addition_fails_axiom_one(self, monkeypatch):
        monkeypatch.setattr(minstruct, "add", skewed)
        assert skewed(skewed(e(0), e(1)), e(1)) != e(0)
        first = axiom_suite(OMEGA, 4).results[0]
        assert first.axiom == "1-group-exponent-2"
        assert not first.passed
        assert "{0}+{1}" in first.witnesses

    def test_sum_outside_domain_is_an_axiom_one_counterexample(self, monkeypatch):
        # sums of two nonzero elements with three points gain point 9,
        # outside the 4-point domain
        monkeypatch.setattr(minstruct, "add", leaky)
        report = axiom_suite(OMEGA, 4)
        first = report.results[0]
        assert first.axiom == "1-group-exponent-2"
        assert not first.passed
        assert "{0}+{1,2}" in first.witnesses

    def test_domain_cap(self):
        with pytest.raises(ValueError):
            elements_over(OMEGA, list(range(20)))

    def test_bound_beyond_mode_i_section_fails_before_any_suite(self, monkeypatch):
        # mode I holds 11 points; the omega suite alone would take minutes at 12
        def no_suite(*args):
            raise AssertionError("an axiom suite ran")

        monkeypatch.setattr(minstruct, "axiom_suite", no_suite)
        with pytest.raises(ValueError, match="mode I section"):
            minstruct.minstruct_suite(12, 1, 1)


class TestEmbedding:
    def test_bound_six(self):
        assert embedding_check(6)

    def test_wrong_order_on_one_mode_i_pair_fails(self, monkeypatch):
        real = minstruct.less
        pair = (element(MODE_I, [(0, 1)]), element(MODE_I, [(0, 2)]))

        def wrong(a, b):
            return (not real(a, b)) if (a, b) == pair else real(a, b)

        monkeypatch.setattr(minstruct, "less", wrong)
        assert not embedding_check(4)

    @pytest.mark.parametrize("side", [OMEGA, MODE_I])
    @pytest.mark.parametrize("name", ["less", "p_n"])
    def test_wrong_on_one_degree_pair_fails(self, name, side, monkeypatch):
        # wrong on every element pair of degrees 1 and 3 on one side only
        real = getattr(minstruct, name)
        degrees = (1, 3) if side == OMEGA else ((0, 1), (0, 3))

        def wrong(*args):
            a, b = args[-2:]
            flip = a.mode == side and (degree(a), degree(b)) == degrees
            return (not real(*args)) if flip else real(*args)

        monkeypatch.setattr(minstruct, name, wrong)
        assert not embedding_check(4)

    def test_wrong_sum_on_one_element_pair_fails(self, monkeypatch):
        # neither operand is the first element of its degree
        def wrong(a, b):
            return e(3) if (a, b) == (e(0, 1), e(0, 2)) else add(a, b)

        monkeypatch.setattr(minstruct, "add", wrong)
        assert not embedding_check(4)

    def test_zero_maps_to_zero(self):
        img = element(MODE_I, ((0, i) for i in ()))
        assert img == zero(MODE_I)

    def test_order_of_images(self):
        a, b = element(MODE_I, [(0, 2)]), element(MODE_I, [(0, 5)])
        assert less(a, b) == less(e(2), e(5))


class TestParsing:
    def test_omega(self):
        assert parse_element("{0,3,5}", OMEGA) == e(0, 3, 5)

    def test_mode_i(self):
        assert parse_element("{(0,2),(3,-1)}", MODE_I) == element(MODE_I, [(0, 2), (3, -1)])

    def test_empty(self):
        assert parse_element("{}", OMEGA) == zero(OMEGA)

    def test_mode_i_spacing(self):
        assert parse_element("{ (0, 2) ,(3 ,-1) }", MODE_I) == element(MODE_I, [(0, 2), (3, -1)])

    @pytest.mark.parametrize("text", ["{(0,1),xyz}", "{(0,1),5}", "{(0,1)(0,2)}", "{(0,1),}", "{xyz}", "{5}"])
    def test_mode_i_rejects_text_outside_its_pairs(self, text):
        with pytest.raises(ValueError):
            parse_element(text, MODE_I)

    @pytest.mark.parametrize("text", ["{1_0}", "{+3}", "{ 2 ,٣}"])
    def test_omega_takes_only_ascii_digit_naturals(self, text):
        # int() reads these as 10, 3 and 3 (an Arabic-Indic three)
        with pytest.raises(ValueError):
            parse_element(text, OMEGA)

    def test_mode_i_takes_only_ascii_digits(self):
        with pytest.raises(ValueError):
            parse_element("{(0,2),(٣,1)}", MODE_I)

    @pytest.mark.parametrize("text, mode", [("{0,0}", OMEGA), ("{(0,2),( 0 , 2 )}", MODE_I)])
    def test_rejects_a_repeated_point(self, text, mode):
        # {0}+{0} is zero in an exponent-2 group, so {0,0} is not {0}
        with pytest.raises(ValueError):
            parse_element(text, mode)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            element(MODE_I, [(0, -1)])
        with pytest.raises(ValueError):
            element(OMEGA, [-2])
