"""Words over small integer alphabets and exact scattered-subword counting.

The central quantity is the number of occurrences of a pattern x as a
scattered subword (subsequence) of u: the number of strictly increasing
position tuples of u that spell x.  It generalizes the integer binomial
coefficient, which is the special case of unary words.  Collecting the
counts of every pattern of length 1..m yields the order-m binomial
signature of u (the extended Parikh vector when m = 2); two words are
m-binomially equivalent when their signatures agree.  Order 1 is abelian
equivalence, and each order refines the one below.

All arithmetic is exact Python integer arithmetic on immutable values.
Public constructors validate; a Word or signature derived from validated
values (a slice, concatenation, image or count) is built by _trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from operator import mul
from typing import Iterator, Optional, Sequence, Union

from .errors import InvalidInputError, UnsupportedOrderError

MAX_ALPHABET = 8
MAX_ORDER = 4  # order 2 carries the paper's results; 3 and 4 check its lemmas


@dataclass(frozen=True)
class Alphabet:
    """The letter set {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise InvalidInputError(f"alphabet size must be an int, got {self.size!r}")
        if not 1 <= self.size <= MAX_ALPHABET:
            raise InvalidInputError(
                f"alphabet size must be in 1..{MAX_ALPHABET}, got {self.size}"
            )

    def check(self, letter: int) -> None:
        if not isinstance(letter, int) or isinstance(letter, bool):
            raise InvalidInputError(f"letter must be an int, got {letter!r}")
        if not 0 <= letter < self.size:
            raise InvalidInputError(
                f"letter {letter} out of range for alphabet of size {self.size}"
            )

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))


def _as_alphabet(a: Union[Alphabet, int]) -> Alphabet:
    return a if isinstance(a, Alphabet) else Alphabet(a)


@dataclass(frozen=True)
class Word:
    """An immutable word; renders as an ASCII digit string."""

    letters: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        for a in self.letters:
            self.alphabet.check(a)

    @classmethod
    def _trusted(cls, letters: tuple[int, ...], alphabet: Alphabet) -> "Word":
        """A Word of a tuple of letters known to lie in alphabet, not validated again."""
        w = object.__new__(cls)
        w.__dict__.update(letters=letters, alphabet=alphabet)
        return w

    @classmethod
    def parse(cls, text: str, alphabet: Union[Alphabet, int, None] = None) -> "Word":
        """Parse an ASCII digit string; the alphabet defaults to the largest digit + 1."""
        try:
            letters = tuple(int(c) for c in text)
        except ValueError:
            raise InvalidInputError(f"word text must be decimal digits, got {text!r}") from None
        if alphabet is None:
            alphabet = Alphabet(max(letters) + 1 if letters else 1)
        return cls(letters, _as_alphabet(alphabet))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._trusted(self.letters[item], self.alphabet)
        return self.letters[item]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.alphabet != self.alphabet:
            raise InvalidInputError("cannot concatenate words over different alphabets")
        return Word._trusted(self.letters + other.letters, self.alphabet)

    def mirror(self) -> "Word":
        """The reversed word."""
        return Word._trusted(self.letters[::-1], self.alphabet)

    def __str__(self) -> str:
        return "".join(map(str, self.letters))


WordLike = Union[Word, str, Sequence[int]]


def word(source: WordLike, alphabet: Union[Alphabet, int, None] = None) -> Word:
    """Coerce a digit string, letter sequence, or Word to a Word."""
    if isinstance(source, Word):
        if alphabet is None or _as_alphabet(alphabet) == source.alphabet:
            return source
        # recast; Word validates that every letter fits the new alphabet
        return Word(source.letters, _as_alphabet(alphabet))
    if isinstance(source, str):
        return Word.parse(source, alphabet)
    alph = Alphabet(MAX_ALPHABET) if alphabet is None else _as_alphabet(alphabet)
    w = Word(tuple(source), alph)
    if alphabet is None:
        w = Word._trusted(w.letters, Alphabet(max(w.letters, default=0) + 1))
    return w


def _common_alphabet(
    u: WordLike, v: WordLike, alphabet: Union[Alphabet, int, None]
) -> tuple[Word, Word]:
    """Coerce two inputs to Words over one shared alphabet."""
    if alphabet is not None:
        return word(u, alphabet), word(v, alphabet)
    if isinstance(u, Word):
        return u, word(v, u.alphabet)
    if isinstance(v, Word):
        return word(u, v.alphabet), v
    uw = word(u)
    vw = word(v)
    alph = Alphabet(max(uw.alphabet.size, vw.alphabet.size))
    return word(uw, alph), word(vw, alph)


def mirror(u: WordLike, alphabet: Union[Alphabet, int, None] = None) -> Word:
    """The reversed word."""
    return word(u, alphabet).mirror()


def _check_order(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidInputError(f"order must be a positive int, got {m!r}")
    if m > MAX_ORDER:
        raise UnsupportedOrderError(f"order {m} exceeds the cap {MAX_ORDER}")


def _check_int(value: object, name: str, least: Optional[int] = None) -> None:
    """The package's one rule for integer sizes: an int, not a bool, and at
    least `least` when one is given; the message names the field."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")


def _check_power(p: int) -> None:
    _check_int(p, "power", 2)


@lru_cache(maxsize=None)
def index_words(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All patterns of length 1..m over {0..k-1}: shorter first, lexicographic within a length.

    This is the canonical component order of every signature in the package.
    """
    out: list[tuple[int, ...]] = []
    for length in range(1, m + 1):
        out.extend(product(range(k), repeat=length))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_positions(k: int, m: int) -> dict[tuple[int, ...], int]:
    return {x: i for i, x in enumerate(index_words(k, m))}


@lru_cache(maxsize=None)
def _extend_updates(k: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per appended letter a: (target, source) index pairs, longest targets first.

    Appending a to u turns each occurrence of y into one of y*a, so
    count(y*a) gains count(y); source -1 stands for the empty pattern,
    whose count is 1.  Longest-first ordering makes in-place application
    safe: a pattern is consumed as a source only before it is updated.
    """
    pos = _index_positions(k, m)
    words = index_words(k, m)
    updates = []
    for a in range(k):
        pairs = [
            (i, pos[x[:-1]] if len(x) > 1 else -1)
            for i, x in enumerate(words)
            if x[-1] == a
        ]
        pairs.sort(key=lambda ts: -len(words[ts[0]]))
        updates.append(tuple(pairs))
    return tuple(updates)


@lru_cache(maxsize=None)
def _split_table(k: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per pattern: index pairs of its proper two-part splits (both parts nonempty)."""
    pos = _index_positions(k, m)
    table = []
    for x in index_words(k, m):
        table.append(tuple((pos[x[:t]], pos[x[t:]]) for t in range(1, len(x))))
    return tuple(table)


def subword_count(
    u: WordLike, x: WordLike, alphabet: Union[Alphabet, int, None] = None
) -> int:
    """Number of occurrences of x as a scattered subword of u.

    One left-to-right dynamic-programming pass: dp[j] counts occurrences of
    x[:j] in the prefix of u processed so far, and each letter of u bumps
    dp[j] by dp[j-1] at its matching pattern positions (descending j, so a
    letter is never used twice).  O(|u| * |x|) exact integer steps.  The
    empty pattern has exactly one occurrence.
    """
    uw, xw = _common_alphabet(u, x, alphabet)
    xl = xw.letters
    n = len(xl)
    if n == 0:
        return 1
    if n > len(uw):
        return 0
    hits: list[list[int]] = [[] for _ in range(uw.alphabet.size)]
    for j in range(n, 0, -1):
        hits[xl[j - 1]].append(j)
    dp = [0] * (n + 1)
    dp[0] = 1
    for c in uw.letters:
        for j in hits[c]:
            dp[j] += dp[j - 1]
    return dp[n]


def _signature2_binary(letters: Sequence[int]) -> tuple[int, ...]:
    # hot path for order 2 over {0,1}: three integer updates per letter
    n0 = n1 = c00 = c01 = c10 = c11 = 0
    for a in letters:
        if a:
            c01 += n0
            c11 += n1
            n1 += 1
        else:
            c00 += n0
            c10 += n1
            n0 += 1
    return (n0, n1, c00, c01, c10, c11)


@dataclass(frozen=True)
class BinomialSignature:
    """Counts of every pattern of length 1..order, in canonical order.

    For a binary alphabet at order 2 the components are
    (count 0, count 1, count 00, count 01, count 10, count 11).
    """

    alphabet: Alphabet
    order: int
    length: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_order(self.order)
        expected = len(index_words(self.alphabet.size, self.order))
        if len(self.counts) != expected:
            raise InvalidInputError(
                f"expected {expected} counts for alphabet {self.alphabet.size}"
                f" at order {self.order}, got {len(self.counts)}"
            )

    @classmethod
    def _trusted(
        cls, alphabet: Alphabet, order: int, length: int, counts: tuple[int, ...]
    ) -> "BinomialSignature":
        """A signature whose order and counts are known to fit, not validated again."""
        sig = object.__new__(cls)
        d = sig.__dict__
        d["alphabet"], d["order"], d["length"], d["counts"] = alphabet, order, length, counts
        return sig

    @classmethod
    def zero(cls, alphabet: Union[Alphabet, int], order: int) -> "BinomialSignature":
        alph = _as_alphabet(alphabet)
        return cls(alph, order, 0, (0,) * len(index_words(alph.size, order)))

    def count(self, x: WordLike) -> int:
        """The stored count of pattern x (1 for the empty pattern)."""
        xw = word(x, self.alphabet)
        if len(xw) == 0:
            return 1
        if len(xw) > self.order:
            raise InvalidInputError(
                f"pattern of length {len(xw)} not covered at order {self.order}"
            )
        return self.counts[_index_positions(self.alphabet.size, self.order)[xw.letters]]

    def extend(self, letter: int) -> "BinomialSignature":
        """Signature of the word with one letter appended."""
        self.alphabet.check(letter)
        old = self.counts
        new = list(old)
        for t, s in _extend_updates(self.alphabet.size, self.order)[letter]:
            new[t] += old[s] if s >= 0 else 1
        return BinomialSignature._trusted(self.alphabet, self.order, self.length + 1, tuple(new))

    def concat(self, other: "BinomialSignature") -> "BinomialSignature":
        """Signature of the concatenation uv from the signatures of u and v.

        count(uv, x) = sum over splits x = y z of count(u, y) * count(v, z),
        empty parts included.
        """
        if other.alphabet != self.alphabet:
            raise InvalidInputError("signatures over different alphabets")
        if other.order != self.order:
            raise InvalidInputError("signatures of different orders")
        a = self.counts
        b = other.counts
        out = [a[i] + b[i] for i in range(len(a))]
        for i, splits in enumerate(_split_table(self.alphabet.size, self.order)):
            acc = 0
            for l, r in splits:
                acc += a[l] * b[r]
            out[i] += acc
        return BinomialSignature._trusted(
            self.alphabet, self.order, self.length + other.length, tuple(out)
        )

    def to_dict(self) -> dict:
        return {
            "m": self.order,
            "alphabet": self.alphabet.size,
            "counts": {
                "".join(map(str, x)): c
                for x, c in zip(index_words(self.alphabet.size, self.order), self.counts)
            },
        }


def signature(
    u: WordLike, m: int, *, alphabet: Union[Alphabet, int, None] = None
) -> BinomialSignature:
    """The order-m binomial signature of u, built in one streaming pass."""
    _check_order(m)
    uw = word(u, alphabet)
    k = uw.alphabet.size
    if k == 2 and m == 2:
        return BinomialSignature._trusted(uw.alphabet, 2, len(uw), _signature2_binary(uw.letters))
    counts = [0] * len(index_words(k, m))
    updates = _extend_updates(k, m)
    for a in uw.letters:
        for t, s in updates[a]:
            counts[t] += counts[s] if s >= 0 else 1
    return BinomialSignature._trusted(uw.alphabet, m, len(uw), tuple(counts))


def equivalent(
    u: WordLike, v: WordLike, m: int, *, alphabet: Union[Alphabet, int, None] = None
) -> bool:
    """m-binomial equivalence: equal counts for every pattern of length <= m."""
    _check_order(m)
    uw, vw = _common_alphabet(u, v, alphabet)
    if len(uw) != len(vw):
        return False
    return signature(uw, m).counts == signature(vw, m).counts


def ascent_imbalance(u: WordLike, alphabet: Union[Alphabet, int, None] = None) -> int:
    """count(u, 01) - count(u, 12) for a ternary word."""
    uw = word(u, alphabet)
    if uw.alphabet.size != 3:
        raise InvalidInputError("ascent imbalance is defined over the ternary alphabet")
    return subword_count(uw, (0, 1)) - subword_count(uw, (1, 2))


class PrefixIndex:
    """Cumulative signature columns for every prefix of a word.

    Column x holds count(word[:i], x) for each position i.  The signature
    of any factor follows in O(1) per component by inverting the
    concatenation cross terms, so scanning all factors of a long word
    never recounts from scratch.  Memory is O(n * k^order) integers.
    """

    def __init__(
        self, w: WordLike, m: int = 2, *, alphabet: Union[Alphabet, int, None] = None
    ) -> None:
        _check_order(m)
        wd = word(w, alphabet)
        self.alphabet = wd.alphabet
        self.order = m
        k = self.alphabet.size
        self._iwords = index_words(k, m)
        self._updates = _extend_updates(k, m)
        self._splits = _split_table(k, m)
        # one pass per column, a level per pattern length: letter a sums
        # [c = a], pattern xb sums count(prefix, x) before each b; the
        # (x, b) of product(level, hits) come in index_words order
        self._letters = list(wd.letters)
        hits = [list(map(a.__eq__, self._letters)) for a in range(k)]
        level = [list(accumulate(h, initial=0)) for h in hits]
        self._cols = list(level)
        for _ in range(m - 1):
            level = [list(accumulate(map(mul, c, h), initial=0)) for c, h in product(level, hits)]
            self._cols += level

    def __len__(self) -> int:
        return len(self._letters)

    @property
    def word(self) -> Word:
        return Word._trusted(tuple(self._letters), self.alphabet)

    # _push/_pop are internal: the avoidance search (search._SearchWord)
    # grows and shrinks one index instead of rebuilding it per node.
    def _push(self, a: int) -> None:
        cols = self._cols
        for col in cols:
            col.append(col[-1])
        # every column has grown, so a source's old value sits at [-2]
        for t, s in self._updates[a]:
            cols[t][-1] += cols[s][-2] if s >= 0 else 1
        self._letters.append(a)

    def _pop(self) -> None:
        for col in self._cols:
            col.pop()
        self._letters.pop()

    def _bounds(self, i: int, j: int) -> None:
        if not 0 <= i <= j <= len(self._letters):
            raise IndexError(
                f"factor bounds ({i}, {j}) outside 0..{len(self._letters)}"
            )

    def letter_counts(self, i: int, j: int) -> tuple[int, ...]:
        """Letter counts of the factor word[i:j]."""
        self._bounds(i, j)
        cols = self._cols
        return tuple(cols[a][j] - cols[a][i] for a in range(self.alphabet.size))

    def _factor_counts(self, i: int, j: int) -> list[int]:
        # invert count(prefix_j, x) = sum over splits x = y z of
        # count(prefix_i, y) * count(factor, z), by increasing |x|
        cols = self._cols
        out = [0] * len(self._iwords)
        for idx in range(len(self._iwords)):
            val = cols[idx][j] - cols[idx][i]
            for l, r in self._splits[idx]:
                val -= cols[l][i] * out[r]
            out[idx] = val
        return out

    def factor(self, i: int, j: int) -> BinomialSignature:
        """Signature of the factor word[i:j]."""
        self._bounds(i, j)
        return BinomialSignature._trusted(
            self.alphabet, self.order, j - i, tuple(self._factor_counts(i, j))
        )

    def blocks_equivalent(self, start: int, period: int, count: int) -> bool:
        """True iff the count consecutive length-period blocks from start are
        pairwise equivalent at this index's order: their letter counts agree,
        which decides order 1, and at orders 2-4 so do their signatures."""
        if period < 1 or count < 1:
            raise InvalidInputError("period and count must be positive")
        stop = start + period * count
        self._bounds(start, stop)
        later = range(start + period, stop, period)
        # equal block lengths fix the last letter's count
        for col in self._cols[: self.alphabet.size - 1]:
            first = col[start + period] - col[start]
            for s in later:
                if col[s + period] - col[s] != first:
                    return False
        if self.order == 1:
            return True
        first = self._factor_counts(start, start + period)
        for s in later:
            if self._factor_counts(s, s + period) != first:
                return False
        return True
