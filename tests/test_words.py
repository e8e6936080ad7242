import pytest
from hypothesis import given, settings, strategies as st

from grouptower.tower import ExtensionTower, _assemble, _split
from grouptower.words import (
    GENERATOR,
    STABLE,
    Letter,
    Word,
    max_stage,
    merged_word,
    parse_word,
    t_length,
)

W = parse_word


# independent oracle: merge one unit letter at a time against a stack
def naive_merge(units):
    stack = []
    for kind, index, step in units:
        if stack and stack[-1][0] == (kind, index):
            stack[-1][1] += step
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([(kind, index), step])
    return [(sym, exp) for sym, exp in stack]


def as_pairs(w: Word):
    return [((lt.kind, lt.index), lt.exponent) for lt in w.letters]


letters = st.builds(
    Letter,
    kind=st.sampled_from([GENERATOR, STABLE]),
    index=st.integers(min_value=1, max_value=3),
    exponent=st.integers(min_value=-3, max_value=3).filter(bool),
)
words = st.lists(letters, max_size=8).map(Word)


class TestConcat:
    def test_inverse_cancellation(self):
        assert W("g0^2") * W("g0^-2") == W("e")

    def test_distinct_symbols_do_not_merge(self):
        assert W("g0") * W("g1") == W("g0 g1")

    def test_stable_letter_cancels_at_junction(self):
        # oracle: naive letter-by-letter merge
        u, v = W("g0 t1"), W("t1^-1")
        units = [(lt.kind, lt.index, 1 if lt.exponent > 0 else -1) for lt in (u * v).units()]
        assert naive_merge(units) == [((GENERATOR, 0), 1)]
        assert u * v == W("g0")

    @given(u=words, v=words, w=words)
    @settings(max_examples=200, deadline=None)
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)


class TestInvert:
    def test_identity(self):
        assert W("e").inverse() == W("e")

    def test_group_inverse_rule(self):
        assert W("g0 g1^2").inverse() == W("g1^-2 g0^-1")

    def test_reverse_and_negate(self):
        # oracle: reverse the letter list and flip exponents
        w = W("t1 g0 t1^-1")
        expected = Word(tuple(lt.inverse() for lt in reversed(w.letters)))
        assert expected == W("t1 g0^-1 t1^-1")
        assert w.inverse() == expected

    @given(w=words)
    @settings(max_examples=200, deadline=None)
    def test_involution(self, w):
        assert w.inverse().inverse() == w

    @given(w=words)
    @settings(max_examples=200, deadline=None)
    def test_product_with_inverse_is_identity(self, w):
        assert w * w.inverse() == W("e")


class TestTLength:
    def test_empty(self):
        assert t_length(W("e")) == 0

    def test_counts_with_multiplicity(self):
        assert t_length(W("t1^2 g0 t1^-1")) == 3

    def test_no_stable_letters(self):
        assert t_length(W("g0^5")) == 0

    @given(u=words, v=words)
    @settings(max_examples=200, deadline=None)
    def test_subadditive(self, u, v):
        assert t_length(u * v) <= t_length(u) + t_length(v)


class TestWordInvariants:
    @given(w=words)
    @settings(max_examples=300, deadline=None)
    def test_no_adjacent_equal_symbols(self, w):
        symbols = [lt.symbol for lt in w.letters]
        assert all(a != b for a, b in zip(symbols, symbols[1:]))
        assert all(lt.exponent != 0 for lt in w.letters)

    @given(w=words)
    @settings(max_examples=200, deadline=None)
    def test_text_round_trip(self, w):
        assert parse_word(str(w)) == w

    def test_parse_rejects_garbage(self):
        for bad in ("x1", "g", "t0", "g1^0", "g1^", "h2"):
            with pytest.raises(ValueError):
                parse_word(bad)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            Letter(GENERATOR, 0, 0)

    def test_max_stage(self):
        assert max_stage(W("g0 g1^3")) == 0
        assert max_stage(W("g0 t2 t5^-1")) == 5

    def test_empty_word_prints_as_e(self):
        assert str(W("e")) == "e"
        assert str(W("g0^2 t1^-1 g1")) == "g0^2 t1^-1 g1"


# few symbols and runs of |exponent| > 1, so junctions merge and cancel often
runs = st.builds(
    Letter,
    kind=st.sampled_from([GENERATOR, STABLE]),
    index=st.integers(min_value=1, max_value=2),
    exponent=st.integers(min_value=-4, max_value=4).filter(bool),
)
run_words = st.lists(runs, max_size=10).map(Word)


def scanned_max_stage(w: Word) -> int:
    return max((lt.index for lt in w.letters if lt.kind == STABLE), default=0)


def assert_merged(w: Word) -> None:
    # a trusted construction must equal the merging constructor on its letters
    assert w == Word(w.letters)
    assert w.letters == Word(w.letters).letters


class TestTrustedKernel:
    def test_cascading_cancellation(self):
        assert W("g0 g1") * W("g1^-1 g0^-1") == W("e")
        assert W("g0^2 g1^3") * W("g1^-3 g0^-1 t1") == W("g0 t1")
        assert W("t1 g0^2") * W("g0^-2 t1^-1 g0") == W("g0")

    @given(u=run_words, v=run_words)
    @settings(max_examples=300, deadline=None)
    def test_product_matches_full_merge(self, u, v):
        assert u * v == Word(u.letters + v.letters)
        # u times the inverse of a suffix of u cancels all the way back
        for cut in range(len(u.letters) + 1):
            tail = Word(u.letters[cut:])
            assert u * tail.inverse() == Word(u.letters[:cut])
            assert_merged(u * tail.inverse() * v)

    @given(w=run_words, n=st.integers(min_value=-4, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_powers_and_inverses_are_merged(self, w, n):
        assert w ** n == Word((w if n >= 0 else w.inverse()).letters * abs(n))
        assert_merged(w ** n)
        assert_merged(w.inverse())

    @given(w=run_words)
    @settings(max_examples=300, deadline=None)
    def test_split_assemble_round_trip(self, w):
        for stage in range(1, 4):
            segments, signs = _split(w, stage)
            assert len(segments) == len(signs) + 1
            for seg in segments:
                assert_merged(seg)
                assert all(lt.kind != STABLE or lt.index != stage for lt in seg.letters)
            rebuilt = _assemble(segments, signs, stage)
            assert rebuilt == w
            assert_merged(rebuilt)

    def test_assemble_cancels_across_empty_segment(self):
        e = W("e")
        assert _assemble([W("g0"), e, W("g0^-1 g1")], [1, -1], 1) == W("g1")

    @given(u=run_words, v=run_words)
    @settings(max_examples=200, deadline=None)
    def test_cached_max_stage_matches_scan(self, u, v):
        for w in (u, v, u * v, u.inverse(), v ** 2):
            assert max_stage(w) == scanned_max_stage(w)
            # the second read comes from the slot
            assert max_stage(w) == scanned_max_stage(w)

    def test_trusted_constructor_keeps_letters(self):
        letters = W("g0^2 t1 g1^-1").letters
        assert merged_word(letters) == W("g0^2 t1 g1^-1")
        assert max_stage(merged_word(letters)) == 1


class TestValidation:
    def test_accepts_words_within_bounds(self):
        ExtensionTower(2).extend_free().validate_word(W("g1^3 t1^-2 g0"))

    def test_error_texts(self):
        tower = ExtensionTower(2).extend_free()
        with pytest.raises(ValueError, match=r"^generator g2 outside base of rank 2$"):
            tower.validate_word(W("t1 g2 t1^-1"))
        with pytest.raises(ValueError, match=r"^stable letter t2 outside tower of 1 steps$"):
            tower.validate_word(W("g0 t2"))
        # the first bad letter in reading order is named
        with pytest.raises(ValueError, match="t3"):
            tower.validate_word(W("t3 g5"))
