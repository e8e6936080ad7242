"""Words over a mixed alphabet of free-group generators and stable letters.

A word is a run-length sequence of letters.  Adjacent letters with the same
symbol are always merged and zero exponents dropped, so within one symbol
free cancellation is automatic and the empty word is the identity.  Nothing
relation-aware happens here; that belongs to :mod:`grouptower.tower`.

Text syntax (used by the CLI and by test fixtures): generators ``g0 g1 ...``,
stable letters ``t1 t2 ...`` (the index is the tower stage that introduced
the letter), caret exponents, whitespace separation, ``e`` for the empty
word.  Example: ``g0^2 t1^-1 g3``.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator

GENERATOR = "g"
STABLE = "t"


class Letter(tuple):
    """One run ``symbol^exponent``; exponent is never zero.

    A bare tuple subclass: letters are created and hashed in bulk inside the
    reduction engine, so construction and comparison must stay cheap.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int, exponent: int) -> "Letter":
        if kind not in (GENERATOR, STABLE):
            raise ValueError(f"unknown letter kind {kind!r}")
        if index < 0 or (kind == STABLE and index < 1):
            raise ValueError(f"bad letter index {index} for kind {kind!r}")
        if exponent == 0:
            raise ValueError("letters carry nonzero exponents")
        return tuple.__new__(cls, (kind, index, exponent))

    @property
    def kind(self) -> str:
        return self[0]

    @property
    def index(self) -> int:
        return self[1]

    @property
    def exponent(self) -> int:
        return self[2]

    @property
    def symbol(self) -> tuple[str, int]:
        return (self[0], self[1])

    def inverse(self) -> "Letter":
        return tuple.__new__(Letter, (self[0], self[1], -self[2]))

    def __str__(self) -> str:
        base = f"{self[0]}{self[1]}"
        return base if self[2] == 1 else f"{base}^{self[2]}"

    def __repr__(self) -> str:
        return f"Letter({self[0]!r}, {self[1]}, {self[2]})"


def _merge(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for lt in letters:
        if out and out[-1][0] == lt[0] and out[-1][1] == lt[1]:
            exp = out[-1][2] + lt[2]
            out.pop()
            if exp:
                out.append(tuple.__new__(Letter, (lt[0], lt[1], exp)))
        else:
            out.append(lt)
    return tuple(out)


def _join(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Concatenate two merged letter tuples.  Only the junction can merge; a
    full cancellation there exposes the next pair, so it may cascade."""
    i, j, n = len(a), 0, len(b)
    while i and j < n:
        x, y = a[i - 1], b[j]
        if x[1] != y[1] or x[0] != y[0]:
            break
        exp = x[2] + y[2]
        if exp:
            return a[: i - 1] + (tuple.__new__(Letter, (x[0], x[1], exp)),) + b[j + 1 :]
        i -= 1
        j += 1
    return a[:i] + b[j:]


class Word:
    """Immutable merged letter sequence; ``Word()`` is the identity ``e``."""

    __slots__ = ("letters", "_hash", "_ulen", "_text", "_bounds")

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters: tuple[Letter, ...] = _merge(letters)
        self._hash: int | None = None
        self._ulen: int | None = None
        self._text: str | None = None
        # (highest generator index or -1, highest stable stage or 0)
        self._bounds: tuple[int, int] | None = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.letters)
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not other.letters:
            return self
        if not self.letters:
            return other
        return merged_word(_join(self.letters, other.letters))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return IDENTITY
        letters = (self if n > 0 else self.inverse()).letters
        out = letters
        for _ in range(abs(n) - 1):
            out = _join(out, letters)
        return merged_word(out)

    def inverse(self) -> "Word":
        return merged_word(tuple(lt.inverse() for lt in reversed(self.letters)))

    @property
    def unit_length(self) -> int:
        if self._ulen is None:
            self._ulen = sum(abs(lt.exponent) for lt in self.letters)
        return self._ulen

    def bounds(self) -> tuple[int, int]:
        """``(highest generator index, highest stable stage)``; -1 and 0 when absent."""
        if self._bounds is None:
            gens, stage = -1, 0
            for kind, index, _ in self.letters:
                if kind == STABLE:
                    if index > stage:
                        stage = index
                elif index > gens:
                    gens = index
            self._bounds = (gens, stage)
        return self._bounds

    def units(self) -> tuple[Letter, ...]:
        """The word split into exponent-(+/-1) letters."""
        out: list[Letter] = []
        for lt in self.letters:
            step = 1 if lt.exponent > 0 else -1
            out.extend(Letter(lt.kind, lt.index, step) for _ in range(abs(lt.exponent)))
        return tuple(out)

    def __str__(self) -> str:
        if self._text is None:
            self._text = " ".join(str(lt) for lt in self.letters) if self.letters else "e"
        return self._text

    def __repr__(self) -> str:
        return f"Word({self})"

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)


def merged_word(letters: tuple[Letter, ...]) -> Word:
    """Trusted constructor for a tuple that is already merged: no two
    adjacent letters share a symbol.  Slices and inverses of merged words
    qualify.  Skips ``Word.__init__`` and its merge pass."""
    w = object.__new__(Word)
    w.letters = letters
    w._hash = w._ulen = w._text = w._bounds = None
    return w


IDENTITY = Word()


def generator(index: int, exponent: int = 1) -> Word:
    return Word((Letter(GENERATOR, index, exponent),))


def stable(stage: int, exponent: int = 1) -> Word:
    return Word((Letter(STABLE, stage, exponent),))


def t_length(w: Word) -> int:
    """Total number of stable-letter units, counted with multiplicity."""
    return sum(abs(lt.exponent) for lt in w.letters if lt.kind == STABLE)


def max_stage(w: Word) -> int:
    """Highest stable-letter stage occurring in ``w`` (0 if none)."""
    bounds = w._bounds
    return (w.bounds() if bounds is None else bounds)[1]


def sort_key(w: Word) -> tuple[int, str]:
    """Deterministic ordering used wherever word sets are serialized."""
    return (w.unit_length, str(w))


_TOKEN_RE = re.compile(r"^([gt])(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse the whitespace-separated word syntax; inverse of ``str``."""
    text = text.strip()
    if text == "e" or not text:
        return Word()
    letters = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"bad word token {token!r}")
        kind, index, exp = m.group(1), int(m.group(2)), m.group(3)
        exponent = 1 if exp is None else int(exp)
        if exponent == 0:
            raise ValueError(f"zero exponent in token {token!r}")
        letters.append(Letter(kind, index, exponent))
    return Word(letters)
