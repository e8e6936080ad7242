"""Exact matrix identities for multiplication by ``alpha*a + 1`` in a simple
field extension.

With ``f = X^n - b_{n-1} X^{n-1} - ... - b_0`` the minimal polynomial of a
generator ``a`` and basis ``(1, a, ..., a^{n-1})``, multiplication by
``alpha*a + 1`` is the identity plus ``alpha`` times the companion matrix of
``f``.  Its inverse is ``N / d`` with ``d = 1 + alpha*q_m`` and ``N`` driven
by the partial Horner sums

    q_j = sum_{i<=j} (-alpha)^(j-i) * b_i,

and the (m-1, m) entry of ``(alpha*a+1)^-1 (beta*a+1)`` is a closed-form
numerator over the same ``d``.  Each numerator is written once and computed
in the ring of its inputs: integers, rationals, or bivariate polynomials in
a symbolic alpha and beta.  The rational forms divide by ``d`` once, into
``Fraction``s.  :func:`field_suite`, the suite the CLI and the acceptance
criteria share, checks ``N @ A == d*I`` and the entry numerator in the ring
of each instance, with denominators cleared.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .report import RunReport


class SingularDenominator(ZeroDivisionError):
    """``1 + alpha*q_m`` vanished; the inverse formula needs another alpha."""


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in two indeterminates over the rationals; no zero terms."""

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...] = ()

    @staticmethod
    def _normalize(items) -> "BivariatePoly":
        acc: dict[tuple[int, int], Fraction] = {}
        for key, val in items:
            acc[key] = acc.get(key, Fraction(0)) + val
        return BivariatePoly(tuple(sorted((k, v) for k, v in acc.items() if v)))

    @classmethod
    def const(cls, value) -> "BivariatePoly":
        value = Fraction(value)
        return cls(((( 0, 0), value),) if value else ())

    @classmethod
    def alpha(cls) -> "BivariatePoly":
        return cls((((1, 0), Fraction(1)),))

    @classmethod
    def beta(cls) -> "BivariatePoly":
        return cls((((0, 1), Fraction(1)),))

    def _coerce(self, other) -> "BivariatePoly | None":
        if isinstance(other, BivariatePoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BivariatePoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._normalize(list(self.coeffs) + list(other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly(tuple((k, -v) for k, v in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        items = []
        for (i, j), u in self.coeffs:
            for (k, l), v in other.coeffs:
                items.append(((i + k, j + l), u * v))
        return self._normalize(items)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePoly":
        out = BivariatePoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, alpha, beta) -> Fraction:
        alpha, beta = Fraction(alpha), Fraction(beta)
        return sum((v * alpha**i * beta**j for (i, j), v in self.coeffs), Fraction(0))


@dataclass(frozen=True)
class ExtFieldSpec:
    """Degree-n extension data: ``f = X^n - b_{n-1} X^{n-1} - ... - b_0``."""

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ValueError("extension degree must be at least 2")
        # integral coefficients stay ints, so integer instances stay in the integers
        coeffs = map(Fraction, self.coeffs)
        object.__setattr__(self, "coeffs", tuple(c.numerator if c.denominator == 1 else c for c in coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def m(self) -> int:
        return self.n - 1


@dataclass(frozen=True)
class SquareMatrix:
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        rows = []
        for left in self.rows:
            row = []
            for col in cols:
                # the first product fixes the entry's type; a zero factor
                # elsewhere adds nothing
                acc = left[0] * col[0]
                for x, y in zip(left[1:], col[1:]):
                    if x and y:
                        acc = acc + x * y
                row.append(acc)
            rows.append(tuple(row))
        return SquareMatrix(tuple(rows))

    @classmethod
    def identity(cls, n: int, scale=1) -> "SquareMatrix":
        return cls(tuple(tuple(scale if i == j else 0 * scale for j in range(n)) for i in range(n)))

    def format_rows(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def companion(spec: ExtFieldSpec) -> SquareMatrix:
    """Multiplication-by-a matrix: subdiagonal ones, last column the b's."""
    n = spec.n
    rows = []
    for i in range(n):
        row = [0] * n
        if i:
            row[i - 1] = 1
        row[n - 1] = spec.coeffs[i]
        rows.append(tuple(row))
    return SquareMatrix(tuple(rows))


def mul_matrix(alpha, spec: ExtFieldSpec) -> SquareMatrix:
    """Matrix of ``x -> (alpha*a + 1) * x`` in the power basis."""
    one = alpha * 0 + 1  # stays in alpha's ring
    zero = 0 * one
    rows = [[one if i == j else zero for j in range(spec.n)] for i in range(spec.n)]
    for i, comp_row in enumerate(companion(spec).rows):
        for j, c in enumerate(comp_row):
            if c:
                rows[i][j] = rows[i][j] + alpha * c
    return SquareMatrix(tuple(map(tuple, rows)))


def q_values(alpha, spec: ExtFieldSpec):
    """The sums ``q_j = sum_{i<=j} (-alpha)^(j-i) b_i``, via the recurrence
    ``q_j = (-alpha) q_{j-1} + b_j``."""
    out = [alpha * 0 + spec.coeffs[0]]
    for j in range(1, spec.n):
        out.append((-alpha) * out[-1] + spec.coeffs[j])
    return tuple(out)


def denominator(spec: ExtFieldSpec, alpha=None):
    """``d = 1 + alpha*q_m`` in alpha's ring; alpha is symbolic when omitted."""
    if alpha is None:
        alpha = BivariatePoly.alpha()
    return 1 + alpha * q_values(alpha, spec)[spec.m]


def _regular_denominator(alpha, spec: ExtFieldSpec):
    d = denominator(spec, alpha)
    if d == 0:
        raise SingularDenominator(f"1 + alpha*q_m vanishes at alpha={alpha}")
    return d


def inverse_numerator(spec: ExtFieldSpec, alpha=None) -> SquareMatrix:
    """``d * (alpha*a+1)^-1`` in alpha's ring (symbolic when omitted): entry
    (i, j) is ``(-alpha)^(m+1-j) q_i`` plus ``(-alpha)^(i-j) d`` on and below
    the diagonal."""
    if alpha is None:
        alpha = BivariatePoly.alpha()
    q, d, m = q_values(alpha, spec), denominator(spec, alpha), spec.m
    rows = []
    for i in range(spec.n):
        row = []
        for j in range(spec.n):
            val = (-alpha) ** (m + 1 - j) * q[i]
            if i >= j:
                val = val + (-alpha) ** (i - j) * d
            row.append(val)
        rows.append(tuple(row))
    return SquareMatrix(tuple(rows))


def explicit_inverse(alpha, spec: ExtFieldSpec) -> SquareMatrix:
    """Closed-form ``(alpha*a + 1)^-1``: :func:`inverse_numerator` over ``d``,
    entrywise, as ``Fraction``s."""
    d = _regular_denominator(alpha, spec)
    rows = inverse_numerator(spec, alpha).rows
    return SquareMatrix(tuple(tuple(Fraction(x, d) for x in row) for row in rows))


def m_matrix(alpha, beta, spec: ExtFieldSpec) -> SquareMatrix:
    """``(alpha*a + 1)^-1 (beta*a + 1)``, exactly."""
    return explicit_inverse(alpha, spec) @ mul_matrix(beta, spec)


def _entry_numerator(alpha, beta, spec: ExtFieldSpec):
    """``d * M_{m-1,m}`` in the ring of alpha and beta: the closed form of
    row m-1 of :func:`inverse_numerator` against the last column of the beta
    matrix, ``beta*b_i`` above its last entry ``1 + beta*b_m``."""
    q, d, m = q_values(alpha, spec), denominator(spec, alpha), spec.m
    b = spec.coeffs
    total = -(1 + beta * b[m]) * (alpha * q[m - 1])
    for i in range(m):
        total = total + beta * b[i] * ((-alpha) ** (m - 1 - i) * d + (-alpha) ** (m + 1 - i) * q[m - 1])
    return total


def m_entry_formula(alpha, beta, spec: ExtFieldSpec) -> Fraction:
    """Closed form of the (m-1, m) entry of :func:`m_matrix`."""
    d = _regular_denominator(alpha, spec)
    return Fraction(_entry_numerator(alpha, beta, spec), d)


def m_entry_numerator_symbolic(spec: ExtFieldSpec) -> BivariatePoly:
    """``(1 + alpha*q_m) * M_{m-1,m}`` with alpha, beta symbolic.

    The entry itself is this polynomial over ``1 + alpha*q_m``; since the
    denominator is a nonzero polynomial, the entry vanishes identically only
    if this numerator is the zero polynomial.
    """
    return _entry_numerator(BivariatePoly.alpha(), BivariatePoly.beta(), spec)


_B0_CHOICES = tuple(c for c in range(-5, 6) if c != 0)
_SCALAR_CHOICES = tuple(c for c in range(-9, 10) if c != 0)


def random_instance(rng: random.Random, n: int) -> tuple[ExtFieldSpec, int, int]:
    """Small integer instance; retries until the inverse denominator is regular."""
    while True:
        coeffs = [rng.choice(_B0_CHOICES)] + [rng.randint(-5, 5) for _ in range(n - 1)]
        spec = ExtFieldSpec(tuple(coeffs))
        alpha = rng.choice(_SCALAR_CHOICES)
        beta = rng.choice(_SCALAR_CHOICES)
        if denominator(spec, alpha) != 0:
            return spec, alpha, beta


def field_suite(cap: int, seed: int) -> RunReport:
    """The identity suite: ``cap`` seeded random instances per degree 2..6
    of the inverse and entry closed forms, the worked quadratic instance,
    and symbolic nonvanishing of the entry for degrees 2..4.

    Each instance is checked with denominators cleared, in its own ring (the
    integers for :func:`random_instance`): ``N @ A == d*I`` for the inverse
    numerator ``N``, ``A = mul_matrix(alpha)`` and ``d = 1 + alpha*q_m``, and
    row m-1 of ``N`` times the last column of the beta matrix, over ``d``,
    against :func:`m_entry_formula`.  Since ``d != 0``, the first holds iff
    ``(N / d) @ A == I``, the inverse identity over the rationals, and the
    second is the (m-1, m) entry of ``(N / d) @ mul_matrix(beta)``.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1, or no identity is checked")
    report = RunReport("field", {"cap": cap, "seed": seed})
    rng = random.Random(seed)
    for n in range(2, 7):
        ok = 0
        for _ in range(cap):
            spec, alpha, beta = random_instance(rng, n)
            numerator = inverse_numerator(spec, alpha)
            d = denominator(spec, alpha)
            if (numerator @ mul_matrix(alpha, spec)).rows != SquareMatrix.identity(n, d).rows:
                report.add(f"inverse-identity-n{n}", "counterexample", {"alpha": str(alpha)})
                break
            beta_col = [row[n - 1] for row in mul_matrix(beta, spec).rows]
            entry = Fraction(sum(x * y for x, y in zip(numerator.rows[n - 2], beta_col)), d)
            if entry != m_entry_formula(alpha, beta, spec):
                report.add(f"entry-formula-n{n}", "counterexample", {"alpha": str(alpha)})
                break
            ok += 1
        else:
            report.add(f"identities-n{n}", "pass", {"instances": ok})
    worked = explicit_inverse(1, ExtFieldSpec((1, 1)))
    report.add(
        "worked-instance",
        "pass" if worked.rows == ((2, -1), (-1, 1)) else "fail",
        {"rows": worked.format_rows().split("\n")},
    )
    for n in (2, 3, 4):
        spec, _, _ = random_instance(random.Random(seed + n), n)
        numerator = m_entry_numerator_symbolic(spec)
        report.add(
            f"symbolic-nonvanishing-n{n}",
            "pass" if not numerator.is_zero and not denominator(spec).is_zero else "fail",
            {"terms": len(numerator.coeffs)},
        )
    return report
