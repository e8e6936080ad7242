"""Relation-aware word calculus over layered extension towers.

A tower starts from a free group of a given rank and grows one step at a
time.  Each step adjoins a fresh stable letter ``t`` and is either

* a free product with Z (the associated subgroups are trivial), or
* a cyclic-edge extension ``t source t^-1 = target`` identifying the cyclic
  subgroups generated by ``source`` and ``target`` of the tower built so far.

On top of the resulting groups this module provides reduction to pinch-free
words, canonical normal forms (so word equality decides group equality),
cyclic reduction, conjugacy into the stage below the top step,
cyclic-subgroup membership, root extraction, commutation tests and
centralizer balls.  A normal form takes one pass per stage: split at the top
stable letter, normal-form the segments one stage down, remove pinches, and
rewrite each later segment to its coset representative, right to left.
Pinch-free words (``britton_reduce``) share that pinch loop.  The normal
form of a product of two normal forms (``_nf_product``) looks only at the
junction: by Britton's lemma pinches occur only there, cascading outward,
so only the junction segment is rewritten to its coset representative and
the other segments of both factors are kept as they are.  The one
commutation test (``_commutes_nf``) tries Britton's lemma before it
compares products.

Membership in a cyclic subgroup and coset representatives are decided
exactly.  After cyclic reduction of the generator, Britton's lemma fixes the
only possible membership exponent up to sign, and bounds the powers that can
still shorten a coset representative.  No operation here raises
:class:`MembershipUndecided`.

Every memoized result belongs to a tower: the tower holds one memo per
stage, and dropping the tower frees its memos.  Each stage group embeds in
the next, so the engine works at the highest stage its arguments reach and
keeps the result in that stage's memo; only a ball, which enumerates every
letter of its tower, stays in the memo of the tower's top.  A tower made by
``extend_free``, ``extend_hnn`` or ``truncate`` shares the memos of the
stages it has in common with the tower it came from, so an extension reuses
its prefix's work.  The ``cache_info()`` of ``_nf``, ``_coset``, ``_table``,
``cyclically_reduce`` (the table of ``_axis`` records), ``minimal_root`` and
``ball_words`` counts hits and misses over every tower so far (a call on a
stage-0 word, its own result, is a miss) and entries over the live towers
only.  ``_nf_product`` is not memoized, and the Britton verdicts of
``_conjugate_pinches`` live in a dict that the caller owns.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import InitVar, dataclass
from functools import wraps
from itertools import islice
from weakref import WeakSet

from .words import (
    GENERATOR,
    STABLE,
    IDENTITY,
    Letter,
    Word,
    max_stage,
    merged_word,
    parse_word,
    sort_key,
    stable,
)


# minimum |m| window of minimal_root's edge-twist search
BOUND_FLOOR = 16

# entries per memo table of one stage; a full table drops its older half
NF_BOUND = 1 << 20
COSET_BOUND = CYCLIC_BOUND = 1 << 18
ROOT_BOUND = 1 << 16


class MembershipUndecided(Exception):
    """A membership or coset question left undecided.  No word-calculus
    operation raises it, since both are decided exactly; scans still count
    it, so an operation that cannot decide can raise it instead of guessing."""


class PreconditionViolated(ValueError):
    """An operation was applied outside its stated domain."""


@dataclass(frozen=True)
class ExtensionStep:
    """One tower step; ``source is None`` marks a free product with Z."""

    stage: int
    source: Word | None = None
    target: Word | None = None

    def __post_init__(self) -> None:
        if self.stage < 1:
            raise ValueError("steps are numbered from 1")
        if (self.source is None) != (self.target is None):
            raise ValueError("source and target must be given together")
        if self.source is not None:
            if not self.source or not self.target:
                raise ValueError("cyclic-edge subgroups need nonidentity generators")
            if max_stage(self.source) >= self.stage or max_stage(self.target) >= self.stage:
                raise ValueError("edge words must live strictly below their step")

    @property
    def is_free(self) -> bool:
        return self.source is None

    @property
    def letter(self) -> Word:
        return stable(self.stage)


class _StageMemo:
    """The memo tables of one tower stage, one dict each.

    ``nf``, ``coset``, ``powers``, ``cyclic`` and ``roots`` hold the results
    whose arguments reach this stage and no higher.  Such a result depends
    only on the tower up to this stage, so every tower holding the memo
    shares it.  ``balls`` holds the balls of the tower whose top stage
    this is.  A memo refers to no tower, so it is freed as soon as the last
    tower holding it is.
    """

    __slots__ = ("nf", "coset", "powers", "cyclic", "roots", "balls", "__weakref__")

    def __init__(self) -> None:
        for name in self.__slots__[:-1]:
            setattr(self, name, {})
        _live_memos.add(self)


_live_memos: WeakSet[_StageMemo] = WeakSet()

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_Axis = namedtuple("_Axis", "core conj stage length first")


class _Table:
    """One memo table, named by its attribute in every stage memo.

    Counts hits and misses over every tower so far; its length and
    ``values()`` read the live memos only.
    """

    __slots__ = ("name", "bound", "hits", "misses")

    def __init__(self, name: str, bound: int | None = None):
        self.name, self.bound = name, bound
        self.hits = self.misses = 0

    def store(self, table: dict, key, value):
        """Remember a computed result; returns it."""
        self.misses += 1
        if self.bound is not None and len(table) >= self.bound:
            for old in list(islice(table, len(table) // 2)):
                del table[old]
        table[key] = value
        return value

    def __len__(self) -> int:
        return sum(len(getattr(memo, self.name)) for memo in _live_memos)

    def values(self) -> list:
        return [v for memo in _live_memos for v in getattr(memo, self.name).values()]

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, self.bound, len(self))


_NF = _Table("nf", NF_BOUND)
_COSET = _Table("coset", COSET_BOUND)
_CYCLIC = _Table("cyclic", CYCLIC_BOUND)
_ROOTS = _Table("roots", ROOT_BOUND)
# the power tables (each with ``.words``) and the enumerated balls
_power_tables = _Table("powers")
_ball_cache = _Table("balls")


def _memoized(cache: _Table, locate):
    """Memoize ``fn`` in the stage memos' table named by ``cache``.

    ``locate(*args)`` gives a call's stage memo and key, or None when the
    call's first argument is its result (a stage-0 word), which counts as a
    miss and is not stored.
    """

    def decorate(fn):
        name = cache.name

        @wraps(fn)
        def memoized(*args):
            where = locate(*args)
            if where is None:
                cache.misses += 1
                return args[0]
            memo, key = where
            table = getattr(memo, name)
            hit = table.get(key)
            if hit is not None:
                cache.hits += 1
                return hit
            return cache.store(table, key, fn(*args))

        memoized.cache_info = cache.cache_info
        return memoized

    return decorate


def _at_stage(word: Word, tower: ExtensionTower):
    """The memo of the top stage of ``word``, keyed by it; None at stage 0."""
    s = max_stage(word)
    return (tower._memos[s], word) if s else None


def _at_any_stage(w: Word, tower: ExtensionTower):
    """The memo of the top stage of ``w``, keyed by ``w``; above the tower's
    top, the top memo, where ``w`` misses and validation rejects it."""
    return tower._memos[min(max_stage(w), len(tower.steps))], w


@dataclass(frozen=True, eq=False)
class ExtensionTower:
    """A base free group plus an ordered sequence of extension steps.

    The tower holds one memo per stage ``0..num_steps``.  A tower built
    directly starts with fresh memos; ``extend_free``, ``extend_hnn`` and
    ``truncate`` share this tower's memos up to the stages both towers have,
    passing them as ``_prefix_memos``.
    """

    base_rank: int
    steps: tuple[ExtensionStep, ...] = ()
    _prefix_memos: InitVar[tuple[_StageMemo, ...]] = ()

    def __post_init__(self, _prefix_memos: tuple[_StageMemo, ...]) -> None:
        if self.base_rank < 1:
            raise ValueError("base rank must be positive")
        for i, step in enumerate(self.steps, start=1):
            if step.stage != i:
                raise ValueError(f"step {i} carries stage {step.stage}")
        shared = _prefix_memos[: len(self.steps) + 1]
        fresh = tuple(_StageMemo() for _ in range(len(shared), len(self.steps) + 1))
        object.__setattr__(self, "_memos", shared + fresh)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtensionTower)
            and self.base_rank == other.base_rank
            and self.steps == other.steps
        )

    def __hash__(self) -> int:
        return hash((self.base_rank, self.steps))

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def step(self, stage: int) -> ExtensionStep:
        return self.steps[stage - 1]

    def truncate(self, stage: int) -> "ExtensionTower":
        """The tower consisting of the first ``stage`` steps."""
        if not 0 <= stage <= self.num_steps:
            raise ValueError(f"no stage {stage} in this tower")
        return ExtensionTower(self.base_rank, self.steps[:stage], self._memos)

    def extend_free(self) -> "ExtensionTower":
        step = ExtensionStep(self.num_steps + 1)
        return ExtensionTower(self.base_rank, self.steps + (step,), self._memos)

    def extend_hnn(self, source: Word, target: Word) -> "ExtensionTower":
        """Adjoin ``t source t^-1 = target``; edge words are canonicalized first."""
        self.validate_word(source)
        self.validate_word(target)
        src = _nf(source, self)
        tgt = _nf(target, self)
        if not src or not tgt:
            raise PreconditionViolated("edge words must be nonidentity")
        step = ExtensionStep(self.num_steps + 1, src, tgt)
        return ExtensionTower(self.base_rank, self.steps + (step,), self._memos)

    def validate_word(self, w: Word) -> None:
        gens, stage = w.bounds()
        if gens < self.base_rank and stage <= self.num_steps:
            return
        for lt in w.letters:
            if lt.kind == GENERATOR and lt.index >= self.base_rank:
                raise ValueError(f"generator g{lt.index} outside base of rank {self.base_rank}")
            if lt.kind == STABLE and lt.index > self.num_steps:
                raise ValueError(f"stable letter t{lt.index} outside tower of {self.num_steps} steps")

    def alphabet(self) -> tuple[Word, ...]:
        """Unit letters (and inverses) of the tower, in fixed order."""
        units: list[Word] = []
        for i in range(self.base_rank):
            units.append(Word((Letter(GENERATOR, i, 1),)))
            units.append(Word((Letter(GENERATOR, i, -1),)))
        for s in range(1, self.num_steps + 1):
            units.append(Word((Letter(STABLE, s, 1),)))
            units.append(Word((Letter(STABLE, s, -1),)))
        return tuple(units)


# --------------------------------------------------------------------------
# internal engine
# --------------------------------------------------------------------------


def _split(word: Word, stage: int) -> tuple[list[Word], list[int]]:
    """Split at unit occurrences of the stage letter.

    Returns ``segments, signs`` with ``len(segments) == len(signs) + 1``;
    segments contain no stage letter.  They are slices of a merged word, so
    they are merged too.
    """
    letters = word.letters
    segments: list[Word] = []
    signs: list[int] = []
    start = 0
    for i, (kind, index, exp) in enumerate(letters):
        if index == stage and kind == STABLE:
            segments.append(merged_word(letters[start:i]))
            if exp == 1 or exp == -1:
                signs.append(exp)
            else:
                segments.extend([IDENTITY] * (abs(exp) - 1))
                signs.extend([1 if exp > 0 else -1] * abs(exp))
            start = i + 1
    segments.append(merged_word(letters[start:]))
    return segments, signs


def _assemble(segments: list[Word], signs: list[int], stage: int) -> Word:
    """Inverse of :func:`_split` for segments without the stage letter.

    Such segments cannot merge with their neighbours, so stage letters merge
    only with each other, into one run across empty segments.  A run that
    cancels (no reduced word has one) falls back to a full merge.
    """
    letters: list[Letter] = list(segments[0].letters)
    run = 0
    cancelled = False
    for sign, seg in zip(signs, segments[1:]):
        if run and (run > 0) != (sign > 0):
            cancelled = True
        run += sign
        if seg.letters:
            if run:
                letters.append(tuple.__new__(Letter, (STABLE, stage, run)))
            letters.extend(seg.letters)
            run = 0
    if run:
        letters.append(tuple.__new__(Letter, (STABLE, stage, run)))
    return Word(letters) if cancelled else merged_word(tuple(letters))


def _edge(step: ExtensionStep, sign: int) -> tuple[Word, Word]:
    """``(gen, other)`` with ``t^sign gen^k = other^k t^sign``."""
    return (step.source, step.target) if sign > 0 else (step.target, step.source)


def _pinch_free(word: Word, tower: ExtensionTower, s: int, leftmost: bool, rewrite) -> tuple[list[Word], list[int]]:
    """Split ``word`` at stage ``s`` and remove its pinches there, leftmost or
    rightmost first; ``rewrite`` reduces each segment with a stable letter,
    and each segment a pinch merges, one stage down."""
    step = tower.step(s)
    segments, signs = _split(word, s)
    # a segment without stable letters is reduced already
    segments = [rewrite(seg) if max_stage(seg) else seg for seg in segments]
    while True:
        m = len(signs)
        positions = range(m - 1) if leftmost else range(m - 2, -1, -1)
        hit = None
        for i in positions:
            if signs[i] != -signs[i + 1]:
                continue
            interior = segments[i + 1]
            if step.is_free:
                if not interior:
                    hit = (i, IDENTITY)
                    break
            else:
                gen, other = _edge(step, signs[i])
                k = _member(interior, gen, tower)
                if k is not None:
                    hit = (i, _power_word(other, k, tower))
                    break
        if hit is None:
            return segments, signs
        i, image = hit
        segments[i : i + 3] = [rewrite(segments[i] * image * segments[i + 2])]
        del signs[i : i + 2]


def _reduce(word: Word, tower: ExtensionTower, leftmost: bool) -> Word:
    """Eliminate pinches and stable-letter cancellations."""
    s = max_stage(word)
    if not s:
        return word
    segments, signs = _pinch_free(word, tower, s, leftmost, lambda seg: _reduce(seg, tower, leftmost))
    return _assemble(segments, signs, s) if signs else segments[0]


@_memoized(_NF, _at_stage)
def _nf(word: Word, tower: ExtensionTower) -> Word:
    """Canonical form in one pass: split at the top stage, normal-form the
    segments one stage down and remove pinches, then rewrite each post-letter
    segment to its coset-transversal representative, pushing the cyclic part
    across the stable letter (right to left, so pushes land before
    decomposition)."""
    s = max_stage(word)  # >= 1: the memo returns stage-0 words
    segments, signs = _pinch_free(word, tower, s, True, lambda seg: _nf(seg, tower))
    step = tower.step(s)
    # the segments are normal forms, and a free step has no coset to rewrite
    for i in range(0 if step.is_free else len(signs), 0, -1):
        gen, other = _edge(step, signs[i - 1])
        k, segments[i] = _coset(segments[i], gen, tower)
        if k:  # _coset normal-forms every pushed segment but the first
            pushed = segments[i - 1] * _power_word(other, k, tower)
            segments[i - 1] = pushed if i > 1 else _nf(pushed, tower)
    return _assemble(segments, signs, s) if signs else segments[0]


def _run_before(letters: tuple[Letter, ...], end: int, s: int) -> int:
    """Index of the last ``t_s`` letter before ``end``, or -1."""
    for i in range(end - 1, -1, -1):
        if letters[i][1] == s and letters[i][0] == STABLE:
            return i
    return -1


def _run_from(letters: tuple[Letter, ...], start: int, s: int) -> int:
    """Index of the first ``t_s`` letter from ``start`` on, or ``len(letters)``."""
    for j in range(start, len(letters)):
        if letters[j][1] == s and letters[j][0] == STABLE:
            return j
    return len(letters)


def _after_run(s: int, e: int, letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """``t_s^e`` followed by ``letters``, merged with a ``t_s`` run that
    starts them; in a pinch-free word that run has the sign of ``e``."""
    if letters and letters[0][1] == s and letters[0][0] == STABLE:
        return (tuple.__new__(Letter, (STABLE, s, e + letters[0][2])),) + letters[1:]
    return (tuple.__new__(Letter, (STABLE, s, e)),) + letters


def _nf_product(a: Word, b: Word, tower: ExtensionTower) -> Word:
    """``_nf(a * b)`` for normal forms ``a`` and ``b``, from the junction.

    By Britton's lemma a product of reduced words pinches only across the
    junction.  With ``a = H t^ea A`` and ``b = B t^eb T`` at the top stage,
    ``A`` and ``B`` free of ``t``, the pinches cancel units of the two runs
    while the junction segment lies in the edge subgroup; a run used up
    peels the next segment of its factor into the junction.  Every other
    segment keeps its letters, so only the junction segment is rewritten to
    its coset representative; a power pushed across ``t^ea`` goes left into
    the segments of ``a``, right to left, as in :func:`_nf`.  Not memoized:
    entries keyed by products would hold more memory than they save.
    """
    x, y = a.letters, b.letters
    if not x:
        return b
    if not y:
        return a
    s = max(max_stage(a), max_stage(b))
    if not s:
        return a * b
    step = tower.step(s)
    i, j = _run_before(x, len(x), s), _run_from(y, 0, s)
    ea = x[i][2] if i >= 0 else 0
    eb = y[j][2] if j < len(y) else 0
    mid = _nf_product(merged_word(x[i + 1 :]), merged_word(y[:j]), tower)
    # with B empty the junction is A, a coset representative: it lies in
    # the edge subgroup only when empty, and rewriting leaves it as it is
    settled = not j
    while ea and eb and (ea > 0) != (eb > 0):
        sign = 1 if ea > 0 else -1
        if step.is_free or settled:
            if mid:
                break
        else:
            gen, other = _edge(step, sign)
            k = _member_nf(mid, gen, tower)
            if k is None:
                break
            mid = _power_word(other, k, tower)
        settled = False
        ea -= sign
        eb += sign
        if not ea:
            end, i = i, _run_before(x, i, s)
            ea = x[i][2] if i >= 0 else 0
            mid = _nf_product(merged_word(x[i + 1 : end]), mid, tower)
        if not eb:
            start, j = j + 1, _run_from(y, j + 1, s)
            eb = y[j][2] if j < len(y) else 0
            mid = _nf_product(mid, merged_word(y[start:j]), tower)
    tail = _after_run(s, eb, y[j + 1 :]) if eb else ()
    # right to left, as in _nf: rewrite the junction segment to its coset
    # representative, and push the edge power across one unit of a's run
    # into the segment on its left, which is rewritten in turn
    while ea and not settled and not step.is_free:
        sign = 1 if ea > 0 else -1
        gen, other = _edge(step, sign)
        k, mid = _coset(mid, gen, tower)
        if not k:
            break
        tail = _after_run(s, sign, mid.letters + tail)
        mid = _power_word(other, k, tower)
        ea -= sign
        if not ea:
            end, i = i, _run_before(x, i, s)
            ea = x[i][2] if i >= 0 else 0
            mid = _nf_product(merged_word(x[i + 1 : end]), mid, tower)
    return merged_word(x[:i] + _after_run(s, ea, mid.letters + tail) if ea else mid.letters + tail)


def _conjugate_pinches(w: Word, g: Word, tower: ExtensionTower, verdicts: dict) -> bool:
    """Whether ``w g w^-1`` pinches at the innermost junction, for normal
    forms ``w`` and ``g`` with ``g`` below ``w``'s top stage ``j``.

    With ``w = A t^e B``, ``B`` free of ``t = t_j`` and ``u = nf(B g B^-1)``,
    the conjugate is ``A t^e u t^-e A^-1``.  ``A t^e`` is a prefix of the
    reduced word ``w`` and ``t^-e A^-1`` a suffix of its inverse, so ``u``
    is the only new ``t``-free segment, and the only possible pinch is
    ``t^σ u t^-σ`` with ``σ`` the sign of ``e``.  When it does not pinch, the
    conjugate is reduced and keeps its ``t`` letters, so by Britton's lemma
    it lies outside ``G_{j-1}``.  At a free step ``u`` is trivial iff ``g``
    is.  At a cyclic edge the verdict reads only ``(j, B, g, σ)``, so every
    ``w`` with that last segment and sign shares it in the caller's
    ``verdicts``, keyed by B's letters (a Word per key would add an object and
    its hash to every entry); a raise keeps nothing.
    """
    j = max_stage(w)
    if tower.step(j).is_free:
        return not g
    x = w.letters
    i = _run_before(x, len(x), j)
    key = (j, x[i + 1 :], g, 1 if x[i][2] > 0 else -1)
    if key not in verdicts:
        b = merged_word(key[1])
        u = _nf_product(_nf_product(b, g, tower), _nf(b.inverse(), tower), tower)
        verdicts[key] = _member_nf(u, _edge(tower.step(j), key[3])[0], tower) is not None
    return verdicts[key]


class _PowerTable:
    """Lazily extended cache of the normal forms of powers of one word."""

    __slots__ = ("words",)

    def __init__(self, base: Word, tower: ExtensionTower):
        self.words = {0: IDENTITY, 1: base, -1: _nf(base.inverse(), tower)}

    def power(self, k: int, tower: ExtensionTower) -> Word:
        # halving keeps the work logarithmic in |k|: exact cosets push the
        # true exponents of distorted elements, which run into the millions
        words = self.words
        if k not in words:
            half = k // 2
            words[k] = _nf(self.power(half, tower) * self.power(k - half, tower), tower)
        return words[k]


@_memoized(_power_tables, lambda base, tower: (tower._memos[max_stage(base)], base))
def _table(base: Word, tower: ExtensionTower) -> _PowerTable:
    return _PowerTable(base, tower)


def _power_word(base: Word, k: int, tower: ExtensionTower) -> Word:
    if k == 0:
        return IDENTITY
    nfb = _nf(base, tower)
    if len(nfb.letters) == 1:
        lt = nfb.letters[0]
        return merged_word((Letter(lt.kind, lt.index, lt.exponent * k),))
    return _table(nfb, tower).power(k, tower)


def _stage_length(w: Word, stage: int) -> int:
    """Number of t_stage units of ``w``; its unit length when ``stage == 0``."""
    if stage == 0:
        return w.unit_length
    return sum(abs(lt[2]) for lt in w.letters if lt[0] == STABLE and lt[1] == stage)


def _member(w: Word, gen: Word, tower: ExtensionTower) -> int | None:
    """k with w == gen^k, or None."""
    return _member_nf(_nf(w, tower), gen, tower)


def _member_nf(nfw: Word, gen: Word, tower: ExtensionTower) -> int | None:
    """:func:`_member` for a word ``nfw`` that is a normal form already.

    Decided exactly: with ``gen = y c y^-1`` and ``c`` cyclically reduced
    at top stage ``s``, every power ``c^k`` is reduced with ``|k| L``
    stage-``s`` units (in the free base: ``|c^k| = |k||c|``), and reduced
    words of one element agree on that count (Britton's lemma).  So
    ``y^-1 w y`` fixes ``k`` up to sign and two power comparisons decide.
    """
    nfg = _nf(gen, tower)
    if not nfg:
        raise PreconditionViolated("membership in the trivial subgroup has no generator")
    if not nfw:
        return 0
    if len(nfg.letters) == 1:
        # powers of a single run are single runs; matching is exact arithmetic
        glt = nfg.letters[0]
        if len(nfw.letters) != 1:
            return None
        wlt = nfw.letters[0]
        if wlt.symbol != glt.symbol or wlt.exponent % glt.exponent:
            return None
        return wlt.exponent // glt.exponent
    if max_stage(nfw) > max_stage(nfg):
        # normal forms are stage-local: no power of gen leaves its stage
        return None
    c, y, s, length, _ = _axis(nfg, tower)
    v = _nf(y.inverse() * nfw * y, tower) if y else nfw
    if max_stage(v) > s:
        return None
    k, rest = divmod(_stage_length(v, s), length)
    if rest or not k:
        return None
    for cand in (k, -k):
        if _power_word(c, cand, tower) == v:
            return cand
    return None


@_memoized(_COSET, lambda a, gen, tower: (tower._memos[max(max_stage(a), max_stage(gen))], (a, gen)))
def _coset(a: Word, gen: Word, tower: ExtensionTower) -> tuple[int, Word]:
    """Decompose ``a = gen^k * rep`` with ``rep`` depending only on the right
    coset <gen>*a, so normal forms built from it are canonical.

    Exact in every branch, with ``gen = y c y^-1`` and ``c`` cyclically
    reduced: a single-run base ``g^e`` strips the leading ``g`` exponent
    modulo ``e``; when ``a`` lies above ``gen`` only its first segment moves;
    when ``c`` lies below ``gen``'s top stage, ``rep`` is ``y`` times the
    representative of ``y^-1 a`` over ``<c>`` (``e`` on ``<gen>`` itself),
    which need not minimize (unit length, text); otherwise ``k`` is scanned
    until Britton's lemma puts every further candidate above the best, and
    ``rep`` is that minimum.
    """
    nfa = _nf(a, tower)
    nfg = _nf(gen, tower)
    if not nfg:
        raise PreconditionViolated("coset decomposition needs a nonidentity generator")
    if not nfa:
        return 0, IDENTITY
    glt = nfg.letters[0]
    if len(nfg.letters) == 1 and glt.kind == GENERATOR:
        # single-run base generator g^e: prepending powers of g changes only
        # the leading g run of nfa = g^x rest (false for stable-letter
        # generators, whose powers can pinch into the rest), so the coset is
        # {g^y rest : y = x mod |e|} and its minimum has y nearest zero
        x, rest = 0, nfa
        if nfa.letters and nfa.letters[0].symbol == glt.symbol:
            x, rest = nfa.letters[0].exponent, merged_word(nfa.letters[1:])
        period = abs(glt.exponent)
        r = x % period
        if r:
            runs = ((y, Word((Letter(GENERATOR, glt.index, y),)) * rest) for y in (r, r - period))
            r, rest = min(runs, key=lambda run: sort_key(run[1]))
        return (x - r) // glt.exponent, rest
    top, gen_top = max_stage(nfa), max_stage(nfg)
    if top > gen_top:
        # the later segments of a normal form are coset representatives
        # already, so nothing is pushed into them
        segments, signs = _split(nfa, top)
        k, segments[0] = _coset(segments[0], nfg, tower)
        return k, _assemble(segments, signs, top)
    c, y, s, length, _ = _axis(nfg, tower)
    b = _nf(y.inverse() * nfa, tower) if y else nfa
    if s < gen_top:
        k = _member_nf(nfa, nfg, tower)
        if k is not None:
            return k, IDENTITY
        k, rep = _coset(b, c, tower)
        return k, _nf(y * rep, tower)
    # gen^-k a = y c^-k b, and a pinch at either junction removes one t_s
    # (one unit when s == 0) from each side, so every reduced form keeps at
    # least |k| L - n_s(y) - n_s(b) of them.  When z = nf(c^-m b) keeps the
    # first t_s of c^-m (fewer than m L pinches, sure once m L > n_s(b)) and
    # (|k| - m) L > n_s(y) keeps y's pinches inside c^-(k-m), nf(gen^-k a)
    # keeps (|k| - m) L - n_s(y) of them and ends in z from that t_s (unit)
    # on, tail + m L more units.  Past these bounds no candidate wins
    ny, nb = _stage_length(y, s), _stage_length(b, s)
    best_k, best, best_key = 0, nfa, sort_key(nfa)
    for side in (1, -1):
        for m in (1, nb // length + 1):
            z = _nf(_power_word(c, -side * m, tower) * b, tower)
            if nb - _stage_length(z, s) < m * length:
                break
        tail = z.unit_length - (_split(z, s)[0][0].unit_length if s else 0) - m * length
        k = side
        while abs(k) * length - ny + (tail if abs(k) > m + ny // length else -nb) <= best.unit_length:
            cand = _nf(_power_word(nfg, -k, tower) * nfa, tower)
            key = sort_key(cand)
            if key < best_key:
                best_k, best, best_key = k, cand, key
            k += side
    return best_k, best


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def britton_reduce(w: Word, tower: ExtensionTower, strategy: str = "leftmost") -> Word:
    """A pinch-free word equal to ``w``; strategy picks which pinch goes first."""
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    tower.validate_word(w)
    return _reduce(w, tower, strategy == "leftmost")


def nf_word(w: Word, tower: ExtensionTower) -> Word:
    """Canonical representative; two words are equal in the group iff their
    normal forms are identical."""
    tower.validate_word(w)
    return _nf(w, tower)


def equal(u: Word, v: Word, tower: ExtensionTower) -> bool:
    return nf_word(u, tower) == nf_word(v, tower)


def in_cyclic(w: Word, g: Word, tower: ExtensionTower) -> int | None:
    """k with ``w == g^k``, or None when ``w`` is no power of ``g``; exact."""
    tower.validate_word(w)
    tower.validate_word(g)
    return _member(w, g, tower)


def coset_rep(a: Word, generator: Word, tower: ExtensionTower) -> tuple[int, Word]:
    tower.validate_word(a)
    tower.validate_word(generator)
    return _coset(a, generator, tower)


@_memoized(_CYCLIC, _at_any_stage)
def _axis(w: Word, tower: ExtensionTower) -> _Axis:
    """The cyclic structure of ``w``: ``w = conj core conj^-1`` with every
    rotation of ``core`` reduced and ``conj`` a normal form, ``core``'s top
    ``stage``, its translation ``length`` (its ``t_stage`` units; at stage 0
    its units) and the index of its ``first`` ``t_stage`` unit (0 at stage 0).

    Rotating by a prefix conjugates, so whenever some rotation still reduces
    we take it and remember the prefix; each pass strictly shrinks the
    stage-count measure, so this terminates.  The core is pinch-free, so a
    rotation reduces only across its wrap: its ends cancel (alike for every
    prefix), its wrap segment is not pinch-free (only for prefixes before
    the first top-stage letter), or the last and first top letters pinch
    (alike for every prefix from there to the last).  Past the last top
    letter the wrap segment is a subword of an earlier one, so no prefix
    more than one unit past the first top letter reduces first.
    """
    tower.validate_word(w)
    c = _reduce(w, tower, True)
    conj = IDENTITY
    changed = True
    while changed:
        changed = False
        units = c.units()
        s = max_stage(c)
        first = next(i for i, lt in enumerate(units) if lt.kind == STABLE and lt.index == s) if s else 0
        for j in range(1, min(first + 2, len(units))):
            rotated = Word(units[j:] + units[:j])
            red = _reduce(rotated, tower, True)
            # rotation may already cancel at the wrap when re-merged
            if rotated.unit_length < c.unit_length or red != rotated:
                conj = conj * Word(units[:j])
                c = red
                changed = True
                break
    return _Axis(c, _nf(conj, tower), s, _stage_length(c, s), first)


def cyclically_reduce(w: Word, tower: ExtensionTower) -> tuple[Word, Word]:
    """``(c, y)`` with ``w = y c y^-1`` and every rotation of ``c`` reduced."""
    return _axis(w, tower)[:2]


cyclically_reduce.cache_info = _axis.cache_info


def is_conjugate_into_base(w: Word, tower: ExtensionTower) -> bool:
    """True iff the conjugacy class of ``w`` meets the stage below the top
    step: the base together with every step but the last.

    Exact by Collins's lemma: a cyclically reduced word containing the top
    stable letter has no conjugate without it.
    """
    top = tower.num_steps
    if not top:
        raise ValueError("a tower without steps has no stage below its top")
    return _axis(w, tower).stage < top


def _root(a: Word, axis: _Axis, tower: ExtensionTower) -> tuple[Word, int]:
    """``(w, n)`` with ``w^n = a``, searched along ``a``'s ``axis`` record
    (a nontrivial core) at every stage.  The core, rotated to its first
    top-stage unit, is cut into ``length`` pieces: units at stage 0, above
    it a ``t_s^±1`` unit and the segment after it.  For each degree dividing
    ``length``, largest first, a root lies in the family ``head * edge^m``,
    ``head`` one period of pieces (commuting the edge-subgroup freedom
    across the stable letters telescopes everything else away), and is
    verified by its power.  Only ``m = 0`` applies at stage 0 and at a free
    step, where the root is the shortest literal period."""
    c, conj, s, length, first = axis
    units = c.units()
    body = units[first:] + units[:first]
    conj = _nf(conj * Word(units[:first]), tower)
    cuts = [i for i, lt in enumerate(body) if not s or lt.kind == STABLE and lt.index == s]
    target = _nf(Word(body), tower)
    step = tower.step(s) if s else None
    for degree in range(length, 1, -1):
        if length % degree:
            continue
        cut = cuts[length // degree]
        head = Word(body[:cut])
        twists = [IDENTITY]
        if step and not step.is_free:
            edge = step.target if body[cut].exponent > 0 else step.source
            for m in range(1, len(units) + BOUND_FLOOR + 1):
                twists += [_power_word(edge, m, tower), _power_word(edge, -m, tower)]
        for twist in twists:
            cand = head * twist
            if _nf(cand ** degree, tower) == target:
                return _nf(conj * cand * conj.inverse(), tower), degree
    return _nf(a, tower), 1


@_memoized(_ROOTS, _at_any_stage)
def minimal_root(a: Word, tower: ExtensionTower) -> tuple[Word, int]:
    """``(w, n)`` with ``w^n = a`` and ``w`` admitting no proper root
    (:func:`_root`); only for elements not conjugate into the base stage."""
    tower.validate_word(a)
    axis = _axis(a, tower)
    if not axis.core:
        raise PreconditionViolated("the identity has no minimal root")
    if not axis.stage:
        raise PreconditionViolated("element is conjugate into the base stage")
    return _root(a, axis, tower)


def root_witness(y: Word, tower: ExtensionTower) -> Word:
    """Minimal root of ``y``, also when ``y`` is conjugate into the base stage."""
    axis = _axis(y, tower)
    if not axis.core:
        raise PreconditionViolated("the identity has no root witness")
    return (minimal_root(y, tower) if axis.stage else _root(y, axis, tower))[0]


def _nonzero_rational_image(tower: ExtensionTower):
    """A test of whether a word is nonzero in ``H1(G; Q)``, ``G`` the tower's
    top group.

    ``H1(G; Q)`` is the rational vector space on the letters ``g_i`` and
    ``t_s`` modulo the span of the edge relations ``ab(source) - ab(target)``;
    a free step adds none.  The relations are row-reduced once, in exact
    integer arithmetic (a row is scaled, never divided), and a word's
    exponent-sum vector is nonzero in the quotient iff it does not reduce to
    zero.
    """
    rank = tower.base_rank
    rows: list[tuple[int, list[int]]] = []  # (pivot, row), zero at earlier pivots

    def sums(w: Word) -> list[int]:
        v = [0] * (rank + tower.num_steps)
        for kind, index, exp in w.letters:
            v[index if kind == GENERATOR else rank + index - 1] += exp
        return v

    def reduce(v: list[int]) -> list[int]:
        for p, row in rows:
            if v[p]:
                v = [row[p] * a - v[p] * b for a, b in zip(v, row)]
        return v

    for step in tower.steps:
        if not step.is_free:
            r = reduce([a - b for a, b in zip(sums(step.source), sums(step.target))])
            if any(r):
                rows.append((next(i for i, a in enumerate(r) if a), r))
    return lambda w: any(reduce(sums(w)))


def _commutes_nf(a: Word, b: Word, tower: ExtensionTower, verdicts: dict) -> bool:
    """``a b == b a`` for normal forms.  With ``h`` the higher of the two and
    ``low`` the other, ``h low h^-1`` can pinch only at its innermost junction
    (:func:`_conjugate_pinches`, which keeps its verdict in the caller's
    ``verdicts``); if it does not, it keeps ``h``'s top letter (Britton's
    lemma), so it is not ``low``.  Pairs at one top stage, and pairs that
    pinch, compare the two products."""
    h, low = (a, b) if max_stage(a) > max_stage(b) else (b, a)
    return ((max_stage(h) == max_stage(low) or _conjugate_pinches(h, low, tower, verdicts))
            and _nf_product(a, b, tower) == _nf_product(b, a, tower))


def commutes(a: Word, b: Word, tower: ExtensionTower) -> bool:
    return _commutes_nf(nf_word(a, tower), nf_word(b, tower), tower, {})


@_memoized(_ball_cache, lambda tower, radius: (tower._memos[-1], radius))
def ball_words(tower: ExtensionTower, radius: int) -> tuple[Word, ...]:
    """All distinct normal forms of words of unit length <= radius, sorted."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    units = tower.alphabet()
    seen = {IDENTITY}
    frontier = [IDENTITY]
    for _ in range(radius):
        fresh = []
        for w in frontier:
            for u in units:
                v = _nf(w * u, tower)
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
        frontier = sorted(fresh, key=sort_key)
    return tuple(sorted(seen, key=sort_key))


def centralizer_ball(y: Word, tower: ExtensionTower, radius: int) -> set[Word]:
    """Ball elements commuting with ``y``."""
    if not nf_word(y, tower):
        raise PreconditionViolated("centralizer balls are for nonidentity elements")
    return {k for k in ball_words(tower, radius) if commutes(k, y, tower)}


# --------------------------------------------------------------------------
# tower description files
# --------------------------------------------------------------------------


def format_tower(tower: ExtensionTower) -> str:
    lines = [f"base rank={tower.base_rank}"]
    for step in tower.steps:
        if step.is_free:
            lines.append(f"step {step.stage} freeZ")
        else:
            lines.append(f"step {step.stage} hnn source={step.source} target={step.target}")
    return "\n".join(lines) + "\n"


def parse_tower(text: str) -> ExtensionTower:
    """Parse the line-oriented tower description format written by
    :func:`format_tower`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].startswith("base rank="):
        raise ValueError("tower description must start with 'base rank=<r>'")
    tower = ExtensionTower(int(lines[0].split("=", 1)[1]))
    for ln in lines[1:]:
        parts = ln.split(maxsplit=3)
        if len(parts) < 3 or parts[0] != "step":
            raise ValueError(f"bad tower line {ln!r}")
        stage = int(parts[1])
        if stage != tower.num_steps + 1:
            raise ValueError(f"step {stage} out of order")
        if parts[2] == "freeZ":
            tower = tower.extend_free()
        elif parts[2] == "hnn":
            rest = parts[3] if len(parts) > 3 else ""
            if not rest.startswith("source=") or " target=" not in rest:
                raise ValueError(f"bad hnn step line {ln!r}")
            source_text, target_text = rest[len("source="):].split(" target=", 1)
            tower = tower.extend_hnn(parse_word(source_text), parse_word(target_text))
        else:
            raise ValueError(f"unknown step kind {parts[2]!r}")
    return tower
