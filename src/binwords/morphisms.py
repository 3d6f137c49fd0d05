"""Morphisms on words, fixed-point generation, decoding, and lifted matrices.

A morphism maps each letter to an image word and extends letterwise to
whole words.  A morphism prolongable on a letter a (its image starts with
a and keeps growing) has a unique infinite fixed point starting with a;
`fixed_point_prefix` materializes any finite prefix of it.  When the image
set is a prefix code, factors of the fixed point can be decoded back to a
preimage factor.  `lift_matrix` captures the morphism's action on binomial
signatures as one exact integer matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Union

from .errors import (
    InvalidInputError,
    MorphismParseError,
    NotPrefixCodeError,
    NotProlongableError,
)
from .words import (
    LENGTH_LIMIT,
    Alphabet,
    BinomialSignature,
    Word,
    WordLike,
    _as_alphabet,
    _check_int,
    _check_order,
    index_words,
    signature,
    subword_count,
    word,
)


@dataclass(frozen=True)
class Morphism:
    """A letter-to-word substitution over a single alphabet."""

    alphabet: Alphabet
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.alphabet.size:
            raise InvalidInputError(
                f"need {self.alphabet.size} images, got {len(self.images)}"
            )
        object.__setattr__(self, "images", tuple(tuple(im) for im in self.images))
        for im in self.images:
            for c in im:
                self.alphabet.check(c)

    @property
    def is_erasing(self) -> bool:
        return any(len(im) == 0 for im in self.images)

    def image(self, letter: int) -> Word:
        self.alphabet.check(letter)
        return Word(self.images[letter], self.alphabet)

    def __call__(self, u: WordLike) -> Word:
        uw = word(u, self.alphabet)
        out: list[int] = []
        for a in uw.letters:
            out.extend(self.images[a])
        return Word._trusted(tuple(out), self.alphabet)


def parse_morphism(text: str, alphabet: Union[Alphabet, int, None] = None) -> Morphism:
    """Parse "0->012,1->02,2->1"; an empty right side marks an erased letter.

    Every letter of the alphabet must get exactly one rule.  Without an
    explicit alphabet the size is one more than the largest letter seen.
    """
    rules: dict[int, tuple[int, ...]] = {}
    seen_max = -1
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise MorphismParseError("empty rule")
        if "->" not in chunk:
            raise MorphismParseError(f"rule {chunk!r} lacks '->'")
        left, right = chunk.split("->", 1)
        left = left.strip()
        right = right.strip()
        if not (len(left) == 1 and left.isdigit()):
            raise MorphismParseError(f"rule source must be a single digit, got {left!r}")
        src = int(left)
        if src in rules:
            raise MorphismParseError(f"duplicate rule for letter {src}")
        if not all(c.isdigit() for c in right):
            raise MorphismParseError(f"rule image must be digits, got {right!r}")
        img = tuple(int(c) for c in right)
        rules[src] = img
        seen_max = max(seen_max, src, *img) if img else max(seen_max, src)
    alph = _as_alphabet(alphabet) if alphabet is not None else Alphabet(seen_max + 1)
    missing = [a for a in alph if a not in rules]
    if missing:
        raise MorphismParseError(f"no rule for letters {missing}")
    extra = [a for a in rules if a >= alph.size]
    if extra:
        raise MorphismParseError(f"rules for letters {extra} outside the alphabet")
    return Morphism(alph, tuple(rules[a] for a in alph))


def identity_morphism(alphabet: Union[Alphabet, int]) -> Morphism:
    alph = _as_alphabet(alphabet)
    return Morphism(alph, tuple((a,) for a in alph))


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The morphism sending a to f(g(a))."""
    if f.alphabet != g.alphabet:
        raise InvalidInputError("cannot compose morphisms over different alphabets")
    return Morphism(f.alphabet, tuple(f(g.image(a)).letters for a in f.alphabet))


def mirror_morphism(f: Morphism) -> Morphism:
    """The morphism whose images are the reversed images of f."""
    return Morphism(f.alphabet, tuple(im[::-1] for im in f.images))


def is_prolongable(f: Morphism, a: int) -> bool:
    """True iff iterating f on a yields a growing chain of prefixes.

    Requires f(a) = a u with u nonempty, and every letter reachable from a
    must have a nonempty image, otherwise the expansion can stall.
    """
    f.alphabet.check(a)
    im = f.images[a]
    if len(im) < 2 or im[0] != a:
        return False
    reachable = {a}
    frontier = [a]
    while frontier:
        c = frontier.pop()
        for d in f.images[c]:
            if d not in reachable:
                reachable.add(d)
                frontier.append(d)
    return all(len(f.images[c]) > 0 for c in reachable)


def fixed_point_prefix(f: Morphism, a: int, n: int) -> Word:
    """The first n letters of the infinite fixed point of f starting at a.

    Queue expansion: the output buffer doubles as the work list, each
    consumed letter appends its image, and prolongability guarantees the
    buffer outruns the read head.
    """
    _check_int(n, "prefix length", 0, LENGTH_LIMIT)
    if not is_prolongable(f, a):
        raise NotProlongableError(f"morphism is not prolongable on letter {a}")
    buf = list(f.images[a])
    i = 1
    while len(buf) < n:
        buf.extend(f.images[buf[i]])
        i += 1
    return Word._trusted(tuple(buf[:n]), f.alphabet)


def is_prefix_code(f: Morphism) -> bool:
    """True iff no image is a prefix of another (all images nonempty)."""
    ims = f.images
    if any(len(im) == 0 for im in ims):
        return False
    for i in range(len(ims)):
        for j in range(len(ims)):
            if i != j and ims[j][: len(ims[i])] == ims[i]:
                return False
    return True


def decode(w: WordLike, f: Morphism) -> tuple[Word, int]:
    """Greedily parse w into images of f, returning (preimage, letters consumed).

    Needs a prefix code, so at each position at most one image matches and
    the parse is unique.  Stops at the first position where no image
    matches; consumed is the length of the parsed prefix of w.
    """
    if not is_prefix_code(f):
        raise NotPrefixCodeError("decoding requires the image set to be a prefix code")
    wd = word(w, f.alphabet)
    letters = wd.letters
    pre: list[int] = []
    pos = 0
    n = len(letters)
    while pos < n:
        for a in f.alphabet:
            im = f.images[a]
            if letters[pos : pos + len(im)] == im:
                pre.append(a)
                pos += len(im)
                break
        else:
            break
    return Word._trusted(tuple(pre), f.alphabet), pos


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            for r in range(t + 1, n):
                if m[r][t] != 0:
                    m[t], m[r] = m[r], m[t]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(t + 1, n):
            for c in range(t + 1, n):
                m[r][c] = (m[r][c] * m[t][t] - m[r][t] * m[t][c]) // prev
            m[r][t] = 0
        prev = m[t][t]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class LiftedMatrix:
    """The exact integer matrix giving a morphism's action on order-m signatures.

    Rows and columns are indexed by the canonical pattern order, so
    sig(f(u)) = M @ sig(u) componentwise for every word u.
    """

    alphabet: Alphabet
    order: int
    rows: tuple[tuple[int, ...], ...]
    image_lengths: tuple[int, ...] = field(compare=False)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def apply(self, sig: BinomialSignature) -> BinomialSignature:
        if sig.alphabet != self.alphabet or sig.order != self.order:
            raise InvalidInputError("signature does not match the lifted matrix")
        v = sig.counts
        counts = tuple(sum(map(mul, r, v)) for r in self.rows)
        length = sum(map(mul, self.image_lengths, v))
        return BinomialSignature._trusted(self.alphabet, self.order, length, counts)

    def __matmul__(self, other: "LiftedMatrix") -> "LiftedMatrix":
        if other.alphabet != self.alphabet or other.order != self.order:
            raise InvalidInputError("lifted matrices over different index sets")
        n = len(self.rows)
        a = self.rows
        b = other.rows
        prod = tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )
        k = self.alphabet.size
        lengths = tuple(
            sum(self.image_lengths[c] * other.rows[c][a0] for c in range(k))
            for a0 in range(k)
        )
        return LiftedMatrix(self.alphabet, self.order, prod, lengths)

    def determinant(self) -> int:
        return _bareiss_determinant(self.to_lists())

    def is_invertible(self) -> bool:
        """Invertible over the rationals."""
        return self.determinant() != 0


def lift_matrix(f: Morphism, m: int) -> LiftedMatrix:
    """Solve for the matrix M with sig(f(u)) = M sig(u) for all u.

    The action is exactly linear at every order: an occurrence of a
    pattern x in f(u) splits x into nonempty pieces, one per letter of u
    that it touches, so binom(f(u), x) is the sum, over factorizations
    x = y_1...y_r into nonempty pieces and letters a_1...a_r, of
    prod binom(f(a_i), y_i) * binom(u, a_1...a_r), with r <= |x| <= m.
    Column x is pinned by the test word x itself: the basis matrix
    (sig(x) at component y) is unitriangular in the canonical order, so
    each column follows from sig(f(x)) minus the contributions of shorter
    patterns.  Erasing morphisms are refused.
    """
    _check_order(m)
    if f.is_erasing:
        raise InvalidInputError("lifting is not defined for erasing morphisms")
    iwords = index_words(f.alphabet.size, m)
    n = len(iwords)
    pos = {x: i for i, x in enumerate(iwords)}
    cols: list[list[int]] = [[0] * n for _ in range(n)]
    for j, x in enumerate(iwords):
        xw = Word._trusted(x, f.alphabet)
        col = list(signature(f(xw), m).counts)
        for y in iwords:
            if len(y) >= len(x):
                continue
            c = subword_count(xw, y)
            if c:
                src = cols[pos[y]]
                for i in range(n):
                    col[i] -= c * src[i]
        cols[j] = col
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return LiftedMatrix(f.alphabet, m, rows, tuple(len(im) for im in f.images))


@dataclass(frozen=True)
class Preset:
    """A named morphism with an optional canonical fixed-point seed letter."""

    name: str
    morphism: Morphism
    seed_letter: Optional[int]
    summary: str


def _build_presets() -> dict[str, Preset]:
    g = parse_morphism("0->012,1->02,2->1")
    h = parse_morphism("0->001,1->011")
    gt = mirror_morphism(g)
    presets = {
        "g": Preset("g", g, 0, "ternary generator, fixed point avoids order-2 squares"),
        "h": Preset("h", h, 0, "binary generator, fixed point avoids order-2 cubes"),
        "g2": Preset("g2", compose(g, g), 0, "square of g"),
        "gtilde2": Preset(
            "gtilde2",
            compose(gt, gt),
            1,
            "square of the mirror of g, prolongable on 1",
        ),
        "e": Preset(
            "e",
            parse_morphism("0->0,1->,2->2", alphabet=3),
            None,
            "erases the middle ternary letter",
        ),
    }
    return presets


PRESETS: dict[str, Preset] = _build_presets()
