import random
from fractions import Fraction

import pytest

from grouptower import fieldext
from grouptower.fieldext import (
    BivariatePoly,
    ExtFieldSpec,
    SingularDenominator,
    SquareMatrix,
    companion,
    denominator,
    explicit_inverse,
    field_suite,
    inverse_numerator,
    m_entry_formula,
    m_entry_numerator_symbolic,
    m_matrix,
    mul_matrix,
    q_values,
    random_instance,
)

F = Fraction
QUAD = ExtFieldSpec((F(1), F(1)))  # f = X^2 - X - 1


def frac_matrix(rows):
    return SquareMatrix(tuple(tuple(F(x) for x in row) for row in rows))


# oracle: direct Gaussian elimination over Fraction
def gauss_inverse(mat: SquareMatrix) -> SquareMatrix:
    n = mat.n
    a = [list(row) for row in mat.rows]
    b = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = F(1) / a[col][col]  # exact for int and Fraction pivots
        a[col] = [x * inv for x in a[col]]
        b[col] = [x * inv for x in b[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] = [x - factor * y for x, y in zip(b[r], b[col])]
    return SquareMatrix(tuple(tuple(row) for row in b))


def triple_loop_product(a: SquareMatrix, b: SquareMatrix) -> tuple:
    n = a.n
    return tuple(
        tuple(sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), F(0)) for j in range(n)) for i in range(n)
    )


class TestSquareMatrix:
    def test_product_of_sparse_matrices_matches_triple_loop(self):
        rng = random.Random(37)
        values = [F(p, q) for p in range(-4, 5) if p for q in (1, 2, 3)]

        def sparse(n: int) -> list[list[Fraction]]:
            # at most half the entries nonzero
            rows = [[F(0)] * n for _ in range(n)]
            for cell in rng.sample(range(n * n), n * n // 2):
                rows[cell // n][cell % n] = rng.choice(values)
            return rows

        for n in range(2, 7):
            for _ in range(20):
                a, b = sparse(n), sparse(n)
                a[rng.randrange(n)] = [F(0)] * n
                col = rng.randrange(n)
                for row in b:
                    row[col] = F(0)
                left, right = frac_matrix(a), frac_matrix(b)
                assert (left @ right).rows == triple_loop_product(left, right)


class TestMulMatrix:
    def test_worked_quadratic(self):
        # cross-check by multiplying basis vectors with a^2 = a + 1
        assert mul_matrix(F(1), QUAD).rows == frac_matrix([[1, 1], [1, 2]]).rows

    def test_alpha_zero_is_identity(self):
        assert mul_matrix(F(0), QUAD).rows == SquareMatrix.identity(2).rows

    def test_last_column_pattern(self):
        spec = ExtFieldSpec((F(2), F(-3), F(5), F(7)))
        alpha = F(3, 2)
        mat = mul_matrix(alpha, spec)
        m = spec.m
        for i in range(m):
            assert mat.entry(i, m) == alpha * spec.coeffs[i]
        assert mat.entry(m, m) == 1 + alpha * spec.coeffs[m]


class TestQValues:
    def test_worked_quadratic(self):
        assert q_values(F(1), QUAD) == (F(1), F(0))

    def test_alpha_zero_gives_coefficients(self):
        spec = ExtFieldSpec((F(4), F(-1), F(2)))
        assert q_values(F(0), spec) == spec.coeffs

    def test_recurrence(self):
        rng = random.Random(5)
        for _ in range(50):
            spec, alpha, _ = random_instance(rng, rng.randint(2, 6))
            q = q_values(alpha, spec)
            # direct evaluation of the defining sum
            for j in range(spec.n):
                total = sum(((-alpha) ** (j - i)) * spec.coeffs[i] for i in range(j + 1))
                assert q[j] == total
            for j in range(1, spec.n):
                assert q[j] == (-alpha) * q[j - 1] + spec.coeffs[j]


class TestExplicitInverse:
    def test_worked_quadratic(self):
        # oracle: direct 2x2 inversion of [[1,1],[1,2]]
        assert gauss_inverse(mul_matrix(F(1), QUAD)).rows == frac_matrix([[2, -1], [-1, 1]]).rows
        assert explicit_inverse(F(1), QUAD).rows == frac_matrix([[2, -1], [-1, 1]]).rows

    def test_alpha_zero_is_identity(self):
        assert explicit_inverse(F(0), QUAD).rows == SquareMatrix.identity(2).rows

    def test_inverse_identity_random(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for _ in range(25):
                spec, alpha, _ = random_instance(rng, n)
                prod = explicit_inverse(alpha, spec) @ mul_matrix(alpha, spec)
                assert prod.rows == SquareMatrix.identity(n).rows

    def test_matches_gaussian_elimination(self):
        rng = random.Random(13)
        for _ in range(20):
            spec, alpha, _ = random_instance(rng, rng.randint(2, 5))
            assert explicit_inverse(alpha, spec).rows == gauss_inverse(mul_matrix(alpha, spec)).rows

    def test_singular_denominator(self):
        # alpha = -1 makes 1 + alpha*q_m vanish for f = X^2 - X
        spec = ExtFieldSpec((F(0), F(1)))
        with pytest.raises(SingularDenominator):
            explicit_inverse(F(-1), spec)

    def test_symbolic_cleared_inverse_identity(self):
        rng = random.Random(17)
        for n in range(2, 6):
            spec, _, _ = random_instance(rng, n)
            numerator = inverse_numerator(spec)
            product = numerator @ mul_matrix(BivariatePoly.alpha(), spec)
            denom = denominator(spec)
            for i in range(n):
                for j in range(n):
                    expected = denom if i == j else BivariatePoly.const(0)
                    assert (product.entry(i, j) - expected).is_zero


class TestRings:
    """Integer inputs stay integers up to the one division by ``d``; the
    rational forms are Fractions whatever the ring of their inputs."""

    SPECS = [
        ExtFieldSpec((2, -3, 5)),
        ExtFieldSpec((F(2), F(-3), F(5), F(1))),
        ExtFieldSpec((F(1, 2), F(3), F(-2, 3))),
    ]

    def test_integral_coefficients_are_ints(self):
        coeffs = ExtFieldSpec((F(4), F(-2, 1), 3)).coeffs
        assert coeffs == (4, -2, 3) and all(type(c) is int for c in coeffs)
        coeffs = ExtFieldSpec((F(1, 2), 3)).coeffs
        assert coeffs == (F(1, 2), 3) and [type(c) for c in coeffs] == [Fraction, int]

    def test_integer_instance_stays_in_the_integers(self):
        spec, alpha, beta = random_instance(random.Random(3), 4)
        assert all(type(x) is int for x in (alpha, beta, denominator(spec, alpha), *spec.coeffs))
        for mat in (mul_matrix(alpha, spec), inverse_numerator(spec, alpha)):
            assert all(type(x) is int for row in mat.rows for x in row)

    @pytest.mark.parametrize("spec", SPECS, ids=["int", "fraction", "rational"])
    @pytest.mark.parametrize("alpha, beta", [(2, -3), (F(2), F(5)), (F(3, 2), F(-1, 3))])
    def test_rational_forms_are_numerators_over_d(self, spec, alpha, beta):
        d = denominator(spec, alpha)
        inverse = explicit_inverse(alpha, spec)
        numerator = inverse_numerator(spec, alpha)
        assert all(type(x) is Fraction for row in inverse.rows for x in row)
        assert inverse.rows == tuple(tuple(F(x) / d for x in row) for row in numerator.rows)
        assert inverse.rows == gauss_inverse(mul_matrix(alpha, spec)).rows
        entry = m_entry_formula(alpha, beta, spec)
        assert type(entry) is Fraction
        symbolic = m_entry_numerator_symbolic(spec)
        assert entry == symbolic.evaluate(alpha, beta) / d == m_matrix(alpha, beta, spec).entry(spec.m - 1, spec.m)


class TestMMatrix:
    def test_beta_equal_alpha_is_identity(self):
        assert m_matrix(F(2), F(2), QUAD).rows == SquareMatrix.identity(2).rows

    def test_worked_entry_nonzero(self):
        m = m_matrix(F(1), F(2), QUAD)
        assert m.entry(0, 1) == m_entry_formula(F(1), F(2), QUAD) != 0

    def test_entry_formula_matches_product(self):
        rng = random.Random(19)
        for n in range(2, 7):
            for _ in range(25):
                spec, alpha, beta = random_instance(rng, n)
                assert m_matrix(alpha, beta, spec).entry(n - 2, n - 1) == m_entry_formula(
                    alpha, beta, spec
                )

    def test_beta_zero_reduces_to_last_term(self):
        q = q_values(F(1), QUAD)
        h = 1 / (1 + F(1) * q[QUAD.m])
        assert m_entry_formula(F(1), F(0), QUAD) == -F(1) * q[QUAD.m - 1] * h

    def test_alpha_zero_reduces_to_coefficient(self):
        spec = ExtFieldSpec((F(3), F(2), F(5)))
        assert m_entry_formula(F(0), F(7), spec) == 7 * spec.coeffs[spec.m - 1]


class TestFieldSuite:
    def test_wrong_entry_formula_is_a_counterexample(self, monkeypatch):
        real = fieldext.m_entry_formula

        def off_by_one(alpha, beta, spec):
            value = real(alpha, beta, spec)
            return value + 1 if spec.n == 4 else value

        monkeypatch.setattr(fieldext, "m_entry_formula", off_by_one)
        verdicts = {c.check_id: c.verdict for c in field_suite(3, 0).checks}
        assert verdicts["entry-formula-n4"] == "counterexample"
        assert verdicts["identities-n3"] == verdicts["identities-n5"] == "pass"

    def test_wrong_inverse_numerator_is_a_counterexample(self, monkeypatch):
        real = fieldext.inverse_numerator

        def one_entry_off(spec, alpha=None):
            numerator = real(spec, alpha)
            if spec.n != 5:
                return numerator
            rows = [list(row) for row in numerator.rows]
            rows[3][1] += 1
            return SquareMatrix(tuple(map(tuple, rows)))

        monkeypatch.setattr(fieldext, "inverse_numerator", one_entry_off)
        verdicts = {c.check_id: c.verdict for c in field_suite(3, 0).checks}
        assert verdicts["inverse-identity-n5"] == "counterexample"
        assert "identities-n5" not in verdicts
        assert verdicts["identities-n3"] == "pass"


class TestSymbolicMode:
    def test_polynomials_have_no_zero_terms(self):
        p = BivariatePoly.alpha() - BivariatePoly.alpha()
        assert p.is_zero and p.coeffs == ()

    def test_arithmetic(self):
        a, b = BivariatePoly.alpha(), BivariatePoly.beta()
        p = (a + b) * (a - b)
        assert p == a * a - b * b
        assert p.evaluate(3, 2) == 5

    def test_nonvanishing_for_small_degrees(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            spec, _, _ = random_instance(rng, n)
            numerator = m_entry_numerator_symbolic(spec)
            assert not numerator.is_zero
            assert not denominator(spec).is_zero

    def test_numerator_matches_scalar_formula(self):
        rng = random.Random(29)
        for n in (2, 3, 4):
            spec, alpha, beta = random_instance(rng, n)
            numerator = m_entry_numerator_symbolic(spec)
            denom = 1 + alpha * q_values(alpha, spec)[spec.m]
            assert numerator.evaluate(alpha, beta) == m_entry_formula(alpha, beta, spec) * denom


class TestCompanion:
    def test_minimal_polynomial_annihilates(self):
        rng = random.Random(31)
        for _ in range(20):
            spec, _, _ = random_instance(rng, rng.randint(2, 6))
            a = companion(spec)
            power = SquareMatrix.identity(spec.n)
            for _ in range(spec.n):
                power = power @ a
            acc = [[F(0)] * spec.n for _ in range(spec.n)]
            basis = SquareMatrix.identity(spec.n)
            for k in range(spec.n):
                for i in range(spec.n):
                    for j in range(spec.n):
                        acc[i][j] += spec.coeffs[k] * basis.rows[i][j]
                basis = basis @ a
            assert power.rows == tuple(tuple(row) for row in acc)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            ExtFieldSpec((F(1),))
