"""Exponent-2 groups ordered by top support index, with gap predicates.

Elements are finite subsets of an index set: addition is symmetric
difference and ``a < b`` compares the largest index in the supports (the
zero element sits strictly below everything else).  ``P_n(a, b)`` holds when
``a < b`` and the longest strict chain between them has length exactly n,
which reduces to counting the index points strictly between the two top
indices.

Two index modes exist.  Mode ``omega`` indexes by the naturals.  Mode ``I``
indexes by a copy of the naturals followed by copies of the integers,
ordered lexicographically; every nonminimal position there has an immediate
neighbour on both sides, which is the feature the mode exists to exhibit.
The axiom suite checks the first-order axioms of these structures over an
exhaustive finite domain, and the embedding check verifies that mode omega
sits inside mode I via ``i -> (0, i)``.  :func:`minstruct_suite` runs all of
them as the one suite that the CLI and the acceptance criteria share.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable

from .report import RunReport

OMEGA = "omega"
MODE_I = "I"

Point = object  # int in mode omega, (copy, offset) pairs in mode I


class ModeMismatch(TypeError):
    """Operands from different index modes."""


def _is_int(c) -> bool:
    # bool is an int subclass, but True is not the point 1
    return isinstance(c, int) and not isinstance(c, bool)


def _check_point(mode: str, p) -> None:
    if mode == OMEGA:
        if not _is_int(p) or p < 0:
            raise ValueError(f"mode omega points are naturals, got {p!r}")
    elif mode == MODE_I:
        if not (isinstance(p, tuple) and len(p) == 2 and all(_is_int(c) for c in p)):
            raise ValueError(f"mode I points are integer pairs, got {p!r}")
        if p[0] < 0 or (p[0] == 0 and p[1] < 0):
            raise ValueError(f"bad mode I point {p!r}: copy 0 holds the naturals")
    else:
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class F2Element:
    mode: str
    support: frozenset
    # the largest support point, or None for zero; the order reads only this
    top: object = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for p in self.support:
            _check_point(self.mode, p)
        object.__setattr__(self, "top", max(self.support) if self.support else None)

    def __str__(self) -> str:
        if not self.support:
            return "{}"
        return "{" + ",".join(str(p).replace(" ", "") for p in sorted(self.support)) + "}"


def element(mode: str, points: Iterable) -> F2Element:
    return F2Element(mode, frozenset(points))


def zero(mode: str) -> F2Element:
    return F2Element(mode, frozenset())


def _same_mode(a: F2Element, b: F2Element) -> None:
    if a.mode != b.mode:
        raise ModeMismatch(f"cannot mix modes {a.mode!r} and {b.mode!r}")


def add(a: F2Element, b: F2Element) -> F2Element:
    """Symmetric difference of supports; every element is its own inverse.

    The sum's points are a subset of the operands' validated points, so it
    is built without ``_check_point``."""
    _same_mode(a, b)
    support = a.support ^ b.support
    total = object.__new__(F2Element)
    object.__setattr__(total, "mode", a.mode)
    object.__setattr__(total, "support", support)
    object.__setattr__(total, "top", max(support) if support else None)
    return total


def degree(a: F2Element):
    """Largest support point, or None for the zero element."""
    return a.top


def less(a: F2Element, b: F2Element) -> bool:
    """Compare top support indices; zero is strictly below everything else."""
    _same_mode(a, b)
    da, db = a.top, b.top
    if db is None:
        return False
    if da is None:
        return True
    return da < db


def sim(a: F2Element, b: F2Element) -> bool:
    """Neither a < b nor b < a: equal degree."""
    return not less(a, b) and not less(b, a)


def points_between(mode: str, da, db) -> int | None:
    """Number of index points strictly between two degrees (None marks the
    zero degree below everything; returns None when the count is infinite)."""
    if db is None:
        raise ValueError("nothing lies below the zero degree")
    if mode == OMEGA:
        return db if da is None else db - da - 1
    if da is None:
        if db[0] == 0:
            return db[1]
        return None
    if da[0] != db[0]:
        return None
    return db[1] - da[1] - 1


def p_n(n: int, a: F2Element, b: F2Element) -> bool:
    """True iff ``a < b`` and the longest strict chain between them has
    length exactly n (closed form via the gap count of inhabited degrees)."""
    if n < 0:
        raise ValueError("chain lengths are nonnegative")
    _same_mode(a, b)
    if not less(a, b):
        return False
    return points_between(a.mode, degree(a), degree(b)) == n


def max_chain_brute(a: F2Element, b: F2Element, domain: list[F2Element]) -> int:
    """Longest strict chain between a and b drawn from ``domain``; the
    independent reference for the closed form (valid when the domain carries
    every degree between a and b)."""
    _same_mode(a, b)
    middle = [x for x in domain if less(a, x) and less(x, b)]
    best = {}

    def climb(x) -> int:
        key = degree(x)
        if key in best:
            return best[key]
        best[key] = 0  # cycle guard; degrees strictly increase anyway
        longest = max((climb(y) for y in middle if less(x, y)), default=0)
        best[key] = 1 + longest
        return best[key]

    return max((climb(x) for x in middle), default=0)


def chain_cross_check(support_bound: int) -> tuple[int, int]:
    """Compare the closed-form gap with :func:`max_chain_brute` for every
    ordered pair of omega elements supported below ``support_bound``.

    Returns ``(pairs, mismatches)``.

    The brute chain reads only the degrees of its endpoints, so it runs once
    per degree pair; every ordered pair is still counted.
    """
    dom = elements_over(OMEGA, list(range(support_bound)))
    pairs = mismatches = 0
    wrong: dict = {}
    for a in dom:
        for b in dom:
            if less(a, b):
                pairs += 1
                key = (degree(a), degree(b))
                if key not in wrong:
                    wrong[key] = max_chain_brute(a, b, dom) != points_between(OMEGA, *key)
                mismatches += wrong[key]
    return pairs, mismatches


def succ_point(mode: str, p):
    if mode == OMEGA:
        return p + 1
    return (p[0], p[1] + 1)


def pred_point(mode: str, p):
    """Immediate predecessor point, or None when the predecessor is the zero
    class (only at the very first point)."""
    if mode == OMEGA:
        return p - 1 if p > 0 else None
    if p == (0, 0):
        return None
    return (p[0], p[1] - 1)


# --------------------------------------------------------------------------
# exhaustive axiom suite
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    checked: int
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class AxiomReport:
    mode: str
    domain_size: int
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def domain_points(mode: str, bound: int) -> list:
    """The first ``bound`` points of the exhaustive domain.

    Mode omega: an initial segment of the naturals.  Mode I: a fixed
    section, the points 0 and 1 of the leading natural copy and the offsets
    -3, 0 and 3 in each of the integer copies 1 to 3; full copies would make
    exhaustive element enumeration infeasible, while the section still
    exercises every cross-copy comparison.
    """
    if mode == OMEGA:
        return list(range(bound))
    section = [(0, 0), (0, 1)]
    for copy in range(1, 4):
        section.extend(((copy, -3), (copy, 0), (copy, 3)))
    section.sort()
    if bound > len(section):
        raise ValueError(f"mode I section holds only {len(section)} points")
    return section[:bound]


def elements_over(mode: str, points: list) -> list[F2Element]:
    if len(points) > 16:
        raise ValueError("exhaustive domains are capped at 16 index points")
    out = []
    for r in range(len(points) + 1):
        for combo in itertools.combinations(points, r):
            out.append(element(mode, combo))
    return out


def axiom_suite(mode: str, domain_bound: int = 8) -> AxiomReport:
    """Check the seven structure axioms over all elements supported inside
    the chosen points.

    Universal quantifiers range over the finite domain; inner existential
    facts (immediate neighbours, chain gaps) use the closed forms of the
    unbounded structure, since a truncated domain cannot witness them at its
    edges.
    """
    points = domain_points(mode, domain_bound)
    dom = elements_over(mode, points)
    deg = {el: degree(el) for el in dom}
    masks = {el: sum(1 << points.index(p) for p in el.support) for el in dom}
    results = []

    # Comparisons read only the degrees of their operands, so order axioms
    # checked over all degree tuples cover all element tuples; only the
    # axioms involving addition (1 and 7) need element-level loops, and they
    # share one pass that computes each sum once and keeps none of them.

    def deg_less(da, db) -> bool:
        if db is None:
            return False
        return True if da is None else da < db

    # 1: group of exponent 2 with neutral element 0
    checked = 0
    bad: list[str] = []
    zero_el = zero(mode)
    for x in dom:
        checked += 2
        if add(x, zero_el) != x or add(x, x) != zero_el:
            bad.append(str(x))
    # 1: addition agrees with xor on support masks (a sum outside the domain
    # has no mask and is a counterexample); masks are injective, so this
    # carries associativity and commutativity of xor over to ``add``.
    # 7: adding below keeps the top; adding equals drops below (the sum's
    # degree depends on the supports, not just the degrees)
    checked7 = 0
    bad7: list[str] = []
    rows = [(x, masks[x], deg[x]) for x in dom]
    checked += len(dom) ** 2
    for x, mx, dx in rows:
        for y, my, dy in rows:
            total = add(x, y)
            if masks.get(total) != mx ^ my:
                bad.append(f"{x}+{y}")
            if deg_less(dx, dy):
                checked7 += 1
                if degree(total) != dy:
                    bad7.append(f"below {x},{y}")
            elif dx == dy and (dx is not None):
                # the zero pair is excluded: 0 ~ 0 but 0 + 0 is not below 0
                checked7 += 1
                if not deg_less(degree(total), dx):
                    bad7.append(f"equal {x},{y}")
    results.append(AxiomResult("1-group-exponent-2", not bad, checked, witnesses=tuple(bad[:4])))

    # 2: zero below every nonzero element
    checked = len(dom)
    bad = [str(x) for x in dom if x.support and not less(zero_el, x)]
    if less(zero_el, zero_el):
        bad.append("0<0")
    results.append(AxiomResult("2-zero-minimal", not bad, checked, witnesses=tuple(bad[:4])))

    degs = sorted({d for d in deg.values() if d is not None})
    all_degs: list = [None] + degs
    reps = {d: next(x for x in dom if deg[x] == d) for d in all_degs}

    # 3: gap predicates partition and agree with their chain definition
    checked = 0
    bad = []
    max_n = len(points)
    for da in all_degs:
        for db in all_degs:
            a, b = reps[da], reps[db]
            if not deg_less(da, db):
                if any(p_n(n, a, b) for n in range(max_n + 1)):
                    bad.append(f"P_n without order {a},{b}")
                continue
            checked += 1
            holds = [n for n in range(max_n + 1) if p_n(n, a, b)]
            gap = points_between(mode, da, db)
            if gap is not None and gap <= max_n:
                if holds != [gap]:
                    bad.append(f"partition {a},{b}: {holds}")
                # chain cross-check where the domain carries every
                # intermediate degree
                if _between_in_domain(mode, da, db, points):
                    if max_chain_brute(a, b, dom) != gap:
                        bad.append(f"chain {a},{b}")
            elif holds:
                bad.append(f"finite P_n across infinite gap {a},{b}")
    results.append(AxiomResult("3-gap-predicates", not bad, checked, witnesses=tuple(bad[:4])))

    # 4: incomparability is an equivalence
    checked = 0
    bad = []
    for x in dom:
        checked += 1
        if not sim(x, x):
            bad.append(f"refl {x}")
    for da in all_degs:
        for db in all_degs:
            x, y = reps[da], reps[db]
            checked += 1
            if sim(x, y) != sim(y, x):
                bad.append(f"sym {x},{y}")
            for dz in all_degs:
                z = reps[dz]
                checked += 1
                if sim(x, y) and sim(y, z) and not sim(x, z):
                    bad.append(f"trans {x},{y},{z}")
    results.append(AxiomResult("4-equivalence", not bad, checked, witnesses=tuple(bad[:4])))

    # 5: order respects the equivalence
    checked = 0
    bad = []
    for da in all_degs:
        for db in all_degs:
            for dz in all_degs:
                checked += 2
                x, y, z = reps[da], reps[db], reps[dz]
                if sim(x, y):
                    if less(x, z) and not less(y, z):
                        bad.append(f"{x},{y},{z}")
                    if less(z, x) and not less(z, y):
                        bad.append(f"{z},{x},{y}")
    results.append(AxiomResult("5-order-congruence", not bad, checked, witnesses=tuple(bad[:4])))

    # 6: the class order is linear with least class [0], an immediate
    # successor of [0], and immediate neighbours everywhere else
    checked = 0
    bad = []
    for da in all_degs:
        for db in all_degs:
            x, y = reps[da], reps[db]
            checked += 1
            if not (less(x, y) or less(y, x) or sim(x, y)):
                bad.append(f"linear {x},{y}")
    for d in all_degs:
        x = reps[d]
        checked += 1
        if d is None:
            if any(less(reps[e], x) for e in all_degs):
                bad.append("zero not least")
            if points_between(mode, None, _first_point(mode)) != 0:
                bad.append("zero successor not immediate")
            continue
        if points_between(mode, d, succ_point(mode, d)) != 0:
            bad.append(f"succ {x}")
        prev = pred_point(mode, d)
        if prev is None:
            if points_between(mode, None, d) != 0:
                bad.append(f"pred {x}")
        elif points_between(mode, prev, d) != 0:
            bad.append(f"pred {x}")
    results.append(AxiomResult("6-discrete-linear-classes", not bad, checked, witnesses=tuple(bad[:4])))

    results.append(AxiomResult("7-addition-vs-order", not bad7, checked7, witnesses=tuple(bad7[:4])))

    return AxiomReport(mode, len(dom), tuple(results))


def _first_point(mode: str):
    return 0 if mode == OMEGA else (0, 0)


def _between_in_domain(mode: str, da, db, points: list) -> bool:
    """Whether every index point strictly between the degrees is in the domain."""
    gap = points_between(mode, da, db)
    if gap is None:
        return False
    cur = _first_point(mode) if da is None else succ_point(mode, da)
    available = set(points)
    for _ in range(gap):
        if cur not in available:
            return False
        cur = succ_point(mode, cur)
    return True


def embedding_check(bound: int = 6) -> bool:
    """The map sending omega index i to the mode-I point (0, i) preserves
    addition, order, and every gap predicate up to ``bound``."""
    points = list(range(bound))
    dom = elements_over(OMEGA, points)

    def image(x: F2Element) -> F2Element:
        return element(MODE_I, ((0, i) for i in x.support))

    images = {x: image(x) for x in dom}
    for x, ix in images.items():
        for y, iy in images.items():
            total = add(x, y)
            itotal = images.get(total)
            if itotal is None:
                itotal = image(total)
            if itotal != add(ix, iy):
                return False
    # ``less`` and ``p_n`` read only the mode and the top point of their
    # operands, so one representative per (degree, image degree) tuple, the
    # first in domain order, covers every element pair
    reps: dict = {}
    for x, ix in images.items():
        reps.setdefault((degree(x), degree(ix)), (x, ix))
    for x, ix in reps.values():
        for y, iy in reps.values():
            if less(x, y) != less(ix, iy):
                return False
            for n in range(bound + 1):
                if p_n(n, x, y) != p_n(n, ix, iy):
                    return False
    return True


def minstruct_suite(bound: int, support_bound: int, embed_bound: int) -> RunReport:
    """Both axiom suites over ``bound`` index points, the chain cross-check
    below ``support_bound`` and the embedding check up to ``embed_bound``."""
    for name, value in (("bound", bound), ("support bound", support_bound), ("embed bound", embed_bound)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, or its checks test nothing")
    # a bound one mode's domain cannot hold fails before any suite runs
    for mode in (OMEGA, MODE_I):
        domain_points(mode, bound)
    report = RunReport(
        "minstruct", {"bound": bound, "support_bound": support_bound, "embed_bound": embed_bound}
    )
    for mode in (OMEGA, MODE_I):
        for res in axiom_suite(mode, bound).results:
            report.add(
                f"{mode}:{res.axiom}",
                "pass" if res.passed else "counterexample",
                {"checked": res.checked},
                witnesses=res.witnesses,
            )
    pairs, mismatches = chain_cross_check(support_bound)
    report.add(
        "chain-cross-check",
        "pass" if mismatches == 0 else "counterexample",
        {"pairs": pairs, "mismatches": mismatches},
    )
    embedded = embedding_check(embed_bound)
    report.add("embedding", "pass" if embedded else "counterexample", {"bound": embed_bound})
    return report


_PAIR = r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)"


def parse_element(text: str, mode: str) -> F2Element:
    """Parse ``{0,3,5}`` (mode omega) or ``{(0,2),(3,-1)}`` (mode I)."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"element text must be braced: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return zero(mode)
    if mode == OMEGA:
        return element(mode, (int(tok) for tok in inner.split(",")))
    if not re.fullmatch(rf"{_PAIR}(\s*,\s*{_PAIR})*", inner):
        raise ValueError(f"mode I elements are comma-separated index pairs, got {text!r}")
    return element(mode, ((int(c), int(o)) for c, o in re.findall(_PAIR, inner)))
