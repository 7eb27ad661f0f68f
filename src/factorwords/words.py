"""Binary words and their primitive combinatorics.

A Word is an immutable binary string backed by an integer code with the
leftmost letter as the most significant bit, so that lexicographic order on
equal-length words coincides with numeric order on codes. Positions are
1-based throughout: ``w.letter(1)`` is the leftmost letter.

Also provides minimal periods and roots, (root-)conjugacy, the Möbius
function, Lyndon word counting/enumeration and lexicographically least
de Bruijn words, all in pure Python: the package's numpy word scan is
``scan``, so a command that scans no array of words never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class InvalidLength(ValueError):
    """A word is too short (or otherwise badly sized) for the operation."""


@dataclass(frozen=True)
class Word:
    """A non-empty binary word: ``length`` letters packed into ``code``.

    ``code`` holds the letters with w.letter(1) as the most significant bit:
    code = sum of w.letter(i) * 2**(length - i).
    """

    length: int
    code: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidLength("words must have at least one letter")
        if not 0 <= self.code < (1 << self.length):
            raise ValueError(f"code {self.code} out of range for length {self.length}")

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse an ASCII string of '0'/'1' characters, leftmost first."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a binary word: {text!r}")
        return cls(len(text), int(text, 2))

    def __str__(self) -> str:
        return format(self.code, f"0{self.length}b")

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __len__(self) -> int:
        return self.length

    def letter(self, i: int) -> int:
        """The i-th letter, 1-based from the left."""
        if not 1 <= i <= self.length:
            raise IndexError(f"position {i} out of range 1..{self.length}")
        return (self.code >> (self.length - i)) & 1

    def segment(self, i: int, j: int) -> "Word":
        """The factor occupying positions i..j inclusive, 1-based."""
        if not (1 <= i <= j <= self.length):
            raise IndexError(f"bad segment {i}..{j} of length-{self.length} word")
        n = j - i + 1
        return Word(n, (self.code >> (self.length - j)) & ((1 << n) - 1))

    def __add__(self, other: "Word") -> "Word":
        return Word(self.length + other.length,
                    (self.code << other.length) | other.code)

    def rotated(self, k: int) -> "Word":
        """Left rotation by k letters."""
        k %= self.length
        if k == 0:
            return self
        mask = (1 << self.length) - 1
        return Word(self.length,
                    ((self.code << k) & mask) | (self.code >> (self.length - k)))

    def bits(self) -> Iterator[int]:
        """Letters left to right."""
        for i in range(self.length - 1, -1, -1):
            yield (self.code >> i) & 1

    def repeated_to(self, total: int) -> "Word":
        """Periodic extension of this word to ``total`` letters."""
        if total < 1:
            raise InvalidLength("cannot extend to an empty word")
        reps = -(-total // self.length)
        return Word(total, int(str(self) * reps, 2) >> (reps * self.length - total))


@dataclass(frozen=True)
class PeriodInfo:
    """Minimal period of a word and the corresponding root prefix."""

    period: int
    root: Word


def period(w: Word) -> PeriodInfo:
    """Minimal period via the border (failure-function) relation.

    p is a period of w when w is a prefix of the infinite repetition of its
    length-p prefix; the minimal one equals |w| minus the longest proper
    border length.
    """
    bits = list(w.bits())
    n = len(bits)
    border = [0] * n
    k = 0
    for q in range(1, n):
        while k and bits[k] != bits[q]:
            k = border[k - 1]
        if bits[k] == bits[q]:
            k += 1
        border[q] = k
    p = n - border[-1]
    return PeriodInfo(p, w.segment(1, p))


def root(w: Word) -> Word:
    """The prefix of w whose length is the minimal period."""
    return period(w).root


def are_conjugate(w: Word, w2: Word) -> bool:
    """True when w2 is a rotation of w."""
    if w.length != w2.length:
        return False
    s = str(w)
    return str(w2) in s + s


def are_root_conjugate(w: Word, w2: Word) -> bool:
    """True when the roots of w and w2 are rotations of each other."""
    return are_conjugate(period(w).root, period(w2).root)


def mobius(m: int) -> int:
    """Möbius function by trial factorization."""
    if m < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def lyndon_count(i: int) -> int:
    """Number of binary Lyndon words of length i: (1/i) * sum mu(i/d) 2^d."""
    if i < 1:
        raise ValueError("length must be positive")
    return sum(mobius(i // d) << d for d in divisors(i)) // i


def _duval(max_len: int) -> Iterator[list[int]]:
    """All binary Lyndon words of length <= max_len, in lexicographic order."""
    w = [0]
    while w:
        yield w
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] = 1


def lyndon_words(i: int) -> list[Word]:
    """All binary Lyndon words of length exactly i, in lexicographic order."""
    if i < 1:
        raise ValueError("length must be positive")
    return [Word(i, int("".join(map(str, bits)), 2)) for bits in _duval(i) if len(bits) == i]


DEBRUIJN_MAX_ORDER = 24


def debruijn(n: int) -> Word:
    """The lexicographically least binary de Bruijn word of order n.

    Concatenates, in lexicographic order, the Lyndon words whose length
    divides n. The result has length 2^n and contains every length-n word
    exactly once as a cyclic factor.
    """
    if not 1 <= n <= DEBRUIJN_MAX_ORDER:
        raise ValueError(f"order must be in 1..{DEBRUIJN_MAX_ORDER}")
    chunks = (bits for bits in _duval(n) if n % len(bits) == 0)
    return Word.from_text("".join(str(b) for bits in chunks for b in bits))
