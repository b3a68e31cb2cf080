"""Permutations of the integers with finite support, and words in the
adjacent transpositions.

Conventions:

- A permutation acts on all of the integers and fixes everything outside a
  finite window.  One-line notation "[4213]" lists the images of 1..n; a
  window starting elsewhere prints with an explicit offset, as in
  "[2,3,0,1]@0" for the map 0->2, 1->3, 2->0, 3->1.
- Products compose right to left: (p * q)(x) = p(q(x)).
- A word is a tuple of integer letters; the letter i stands for the adjacent
  transposition s_i = t(i, i+1).  Letters may be zero or negative.
- prod_word((3, 2, 1, 2)) is s_3 s_2 s_1 s_2, with the rightmost factor
  applied first.

Wiring diagrams for a word of length n have columns 0..n, the identity
labelling on the right.  Position p sits between columns p-1 and p, and the
label wiring_label(w, c, h) is the label at height h in column c; it depends
only on the letters strictly to the right of column c.  wiring_sweep gives a
column's labels at every height, and the label pair of every cross, in one
right-to-left pass.  The shuffles make the same pass on a label list of
their own and resume it after a step: a step that rewrites the letter at
position j reads column j, writes the letter and sweeps on from j on the
same list, since column j and the crosses right of it do not depend on
that letter.  A slot holding INF holds no cross.
"""
from __future__ import annotations

import itertools
from collections.abc import Container, Iterator, Sequence
from functools import cached_property, lru_cache

Word = tuple[int, ...]

# A slot of a word that holds no cross; compares above every integer.
INF = float("inf")

# Stores a field of a Record, past the Record's own __setattr__.
_set = object.__setattr__


class Record:
    """An immutable value record.

    A subclass names its fields in `_fields`, in constructor order; its
    `__init__` checks its arguments and stores each field with `_set`.
    Records are equal within one class when their fields are, hash as their
    field tuple, print as `Name(field=value, ...)`, pickle and copy through
    their constructor, and reject assignment.  This `__eq__` and `__hash__`
    measured 1.5 to 5 times slower than written-out ones, so `Permutation`
    (a precomputed hash: it keys every memo) and `PipeDream` (hashed by
    every `all_pipe_dreams` frozenset) keep their own.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Permutation(Record):
    """A bijection of the integers fixing all but finitely many points.

    Stored as the tuple of images of lo, lo+1, ..., normalized so that the
    window carries no fixed boundary points.  Equal permutations therefore
    have equal (lo, window) pairs, and the class is usable as a dict key;
    the hash is computed once, at construction.
    """

    # __dict__ holds only the cached length, and is made when that is first read
    __slots__ = ("lo", "window", "_hash", "__dict__")
    _fields = ("lo", "window")

    def __init__(self, lo: int, window: tuple[int, ...]) -> None:
        if sorted(window) != list(range(lo, lo + len(window))):
            raise ValueError(f"window {window!r} is not a permutation of [{lo}, {lo + len(window) - 1}]")
        self._store(lo, window)

    @staticmethod
    def _trusted(lo: int, window: tuple[int, ...]) -> "Permutation":
        """A permutation from a window known to permute [lo, lo + len(window)), unchecked."""
        p = object.__new__(Permutation)
        p._store(lo, window)
        return p

    def _store(self, lo: int, window: tuple[int, ...]) -> None:
        start, end = 0, len(window)
        while start < end and window[start] == lo + start:
            start += 1
        while end > start and window[end - 1] == lo + end - 1:
            end -= 1
        if start or end != len(window):
            lo, window = lo + start, window[start:end]
        if not window:
            lo = 1
        _set_lo(self, lo)
        _set_window(self, window)
        _set_hash(self, hash((lo, window)))

    def __eq__(self, other: object) -> bool:
        # equal windows have equal lo: min(window), or 1 for the identity
        if other.__class__ is self.__class__:
            return self._hash == other._hash and self.window == other.window
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def identity() -> "Permutation":
        return Permutation(1, ())

    @staticmethod
    def from_one_line(values: Sequence[int], lo: int = 1) -> "Permutation":
        return Permutation(lo, tuple(values))

    @staticmethod
    def simple(i: int) -> "Permutation":
        """The adjacent transposition s_i, swapping i and i+1."""
        return Permutation(i, (i + 1, i))

    @staticmethod
    def transposition(a: int, b: int) -> "Permutation":
        if a == b:
            raise ValueError("transposition needs two distinct points")
        a, b = min(a, b), max(a, b)
        window = list(range(a, b + 1))
        window[0], window[-1] = b, a
        return Permutation(a, tuple(window))

    def __call__(self, i: int) -> int:
        if self.lo <= i < self.lo + len(self.window):
            return self.window[i - self.lo]
        return i

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if not self.window:
            return other
        if not other.window:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.lo + len(self.window), other.lo + len(other.window)) - 1
        return Permutation._trusted(lo, tuple(self(other(i)) for i in range(lo, hi + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.window)
        for i, v in enumerate(self.window):
            images[v - self.lo] = self.lo + i
        return Permutation._trusted(self.lo, tuple(images))

    @cached_property
    def length(self) -> int:
        """Number of inversions, i.e. the Coxeter length."""
        w = self.window
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

    @property
    def support(self) -> tuple[int, int] | None:
        """Smallest and largest non-fixed point, or None for the identity."""
        if not self.window:
            return None
        return (self.lo, self.lo + len(self.window) - 1)

    def is_identity(self) -> bool:
        return not self.window

    def one_line(self, lo: int = 1, hi: int | None = None) -> tuple[int, ...]:
        """Images of lo..hi (hi defaults to the window end)."""
        end = self.lo + len(self.window)
        if hi is None:
            hi = max(end - 1, lo)
        a, b = max(lo, self.lo), min(hi + 1, end)
        if a >= b:
            return tuple(range(lo, hi + 1))
        return (*range(lo, a), *self.window[a - self.lo:b - self.lo], *range(b, hi + 1))

    def descents(self) -> list[int]:
        """Positions i with self(i) > self(i+1); these stay inside the window."""
        lo, w = self.lo, self.window
        return [lo + i for i in range(len(w) - 1) if w[i] > w[i + 1]]

    def right_mul_simple(self, i: int) -> "Permutation":
        """self * s_i, swapping the images of i and i+1."""
        lo = min(self.lo, i)
        hi = max(self.lo + len(self.window) - 1, i + 1) if self.window else i + 1
        images = list(self(k) for k in range(lo, hi + 1))
        images[i - lo], images[i + 1 - lo] = images[i + 1 - lo], images[i - lo]
        return Permutation._trusted(lo, tuple(images))

    def __repr__(self) -> str:
        return f"Permutation({format_permutation(self)!r})"

    def __str__(self) -> str:
        return format_permutation(self)


# Permutation's slot setters: storing through them skips the name lookup
# that `_set` makes, about an eighth of the constructor's time.
_set_lo, _set_window, _set_hash = (slot.__set__ for slot in (Permutation.lo, Permutation.window,
                                                             Permutation._hash))


def format_permutation(p: Permutation) -> str:
    """One-line notation: "[4213]", or "[2,3,0,1]@0" off the standard window.

    >>> format_permutation(Permutation.from_one_line((4, 2, 1, 3)))
    '[4213]'
    >>> format_permutation(Permutation.from_one_line((2, 3, 0, 1), lo=0))
    '[2,3,0,1]@0'
    """
    if p.is_identity():
        return "[1]"
    if p.lo >= 1:
        values = p.one_line()
        suffix = ""
    else:
        values = p.window
        suffix = f"@{p.lo}"
    if not suffix and all(1 <= v <= 9 for v in values):
        body = "".join(str(v) for v in values)
    else:
        body = ",".join(str(v) for v in values)
    return f"[{body}]{suffix}"


class ParseError(ValueError):
    """Malformed text input; `position` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation as produced by format_permutation.

    >>> parse_permutation("[4213]")
    Permutation('[4213]')
    >>> parse_permutation("[2,3,0,1]@0") == Permutation.from_one_line((2, 3, 0, 1), lo=0)
    True
    """
    s = text.strip()
    if not s.startswith("["):
        raise ParseError("permutation must start with '['", 0)
    close = s.find("]")
    if close < 0:
        raise ParseError("missing closing ']'", len(s) - 1)
    body = s[1:close]
    rest = s[close + 1:]
    lo = 1
    if rest:
        if not rest.startswith("@"):
            raise ParseError("unexpected text after ']'", close + 1)
        try:
            lo = int(rest[1:])
        except ValueError:
            raise ParseError("bad window offset", close + 2) from None
    if "," in body:
        parts = body.split(",")
        values = []
        offset = 1
        for part in parts:
            try:
                values.append(int(part))
            except ValueError:
                raise ParseError(f"bad entry {part!r}", offset) from None
            offset += len(part) + 1
    else:
        values = []
        for k, ch in enumerate(body):
            if not ch.isdigit():
                raise ParseError(f"bad digit {ch!r}", 1 + k)
            values.append(int(ch))
    try:
        return Permutation.from_one_line(values, lo=lo)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def format_word(word: Sequence[int]) -> str:
    """Digit string when all letters are 1..9, else comma-separated; a
    one-letter word past 9 keeps a trailing comma, as its digits alone
    would read as a digit string.

    >>> format_word((3, 2, 1, 2))
    '3212'
    >>> format_word((5, -1, 3)), format_word((10,))
    ('5,-1,3', '10,')
    """
    if all(1 <= a <= 9 for a in word):
        return "".join(str(a) for a in word)
    return ",".join(str(a) for a in word) + ("," if len(word) == 1 and word[0] > 9 else "")


def parse_word(text: str) -> Word:
    s = text.strip()
    if not s:
        return ()
    if "," in s or "-" in s:
        letters = []
        offset = 0
        for part in s.removesuffix(",").split(","):
            try:
                letters.append(int(part))
            except ValueError:
                raise ParseError(f"bad letter {part!r}", offset) from None
            offset += len(part) + 1
        return tuple(letters)
    for k, ch in enumerate(s):
        if not ch.isdigit():
            raise ParseError(f"bad digit {ch!r}", k)
    return tuple(int(ch) for ch in s)


def prod_word(word: Sequence[int]) -> Permutation:
    """The product s_{w_1} ... s_{w_k}: one pass over a list of images, each
    letter a swapping the images of a and a+1.

    >>> str(prod_word((3, 2, 1, 2)))
    '[4213]'
    >>> prod_word(()) == Permutation.identity()
    True
    >>> prod_word((1, 1)) == Permutation.identity()
    True
    """
    if not word:
        return Permutation.identity()
    lo = min(word)
    images = list(range(lo, max(word) + 2))
    for a in word:
        a -= lo
        images[a], images[a + 1] = images[a + 1], images[a]
    return Permutation._trusted(lo, tuple(images))


def is_reduced(word: Sequence[int]) -> bool:
    """A word is reduced when every letter a lengthens the product of the
    letters before it, i.e. finds the images of a and a+1 still in order.

    >>> is_reduced((1, 2, 1)), is_reduced((1, 2, 1, 2))
    (True, False)
    """
    if not word:
        return True
    lo = min(word)
    images = list(range(lo, max(word) + 2))
    for a in word:
        a -= lo
        left, right = images[a], images[a + 1]
        if left > right:
            return False
        images[a], images[a + 1] = right, left
    return True


def demazure(word: Sequence[int]) -> Permutation:
    """Demazure (0-Hecke) product: each letter acts only when it lengthens,
    i.e. swaps the images of a and a+1 only when they ascend.

    >>> demazure(()) == Permutation.identity()
    True
    >>> demazure((1, 1)) == Permutation.simple(1)
    True
    """
    if not word:
        return Permutation.identity()
    lo = min(word)
    images = list(range(lo, max(word) + 2))
    for a in word:
        a -= lo
        if images[a] < images[a + 1]:
            images[a], images[a + 1] = images[a + 1], images[a]
    return Permutation._trusted(lo, tuple(images))


# The one memo of the library's recursions (reduced words here, the vertex-
# decomposition search and backwards saturation in complexes): bounded, so no
# run of inputs grows a process-global cache without limit, and more than ten
# times the ~5,000 entries the largest documented inputs fill, so it does not
# evict on them.  Hits, misses and size come from each function's cache_info().
_memo = lru_cache(maxsize=1 << 16)


def reduced_words(p: Permutation) -> tuple[Word, ...]:
    """All reduced words for p, in lexicographic order.

    >>> [format_word(w) for w in reduced_words(parse_permutation("[1432]"))]
    ['232', '323']
    >>> reduced_words(Permutation.identity())
    ((),)
    """
    return _reduced_words(p)


@_memo
def _reduced_words(p: Permutation) -> tuple[Word, ...]:
    if p.is_identity():
        return ((),)
    return tuple(sorted(w + (i,) for i in p.descents()
                        for w in _reduced_words(p.right_mul_simple(i))))


def lehmer_code(p: Permutation) -> tuple[int, ...]:
    """The code whose i-th entry counts inversions (i, j) with j > i.

    Only defined for permutations supported on positive integers.

    >>> lehmer_code(parse_permutation("[321]"))
    (2, 1, 0)
    >>> lehmer_code(Permutation.identity())
    ()
    """
    if p.support is not None and p.support[0] < 1:
        raise ValueError("Lehmer code needs support inside the positive integers")
    if p.is_identity():
        return ()
    hi = p.support[1]
    line = [p(i) for i in range(1, hi + 1)]
    return tuple(sum(1 for v in line[i + 1:] if v < line[i]) for i in range(len(line)))


def from_lehmer_code(code: Sequence[int]) -> Permutation:
    """Inverse of lehmer_code; trailing zeros are allowed.

    >>> from_lehmer_code((2, 1, 0)) == parse_permutation("[321]")
    True
    """
    n = len(code)
    if any(c < 0 for c in code):
        raise ValueError("code entries must be non-negative")
    for i, c in enumerate(code):
        if c > n - 1 - i:
            raise ValueError(f"code entry {c} at index {i} exceeds the remaining room")
    available = list(range(1, n + 1))
    images = []
    for c in code:
        images.append(available.pop(c))
    return Permutation.from_one_line(images)


def tau(p: Permutation, power: int = 1) -> Permutation:
    """Shift conjugation: (tau p)(i+1) = p(i) + 1; power may be negative.

    >>> str(tau(parse_permutation("[321]")))
    '[1432]'
    """
    if p.is_identity() or power == 0:
        return p
    return Permutation._trusted(p.lo + power, tuple(v + power for v in p.window))


def bruhat_cover(p: Permutation, a: int, b: int) -> bool:
    """Whether p * t(a, b) covers p in Bruhat order (length goes up by one).

    >>> bruhat_cover(Permutation.identity(), 1, 2)
    True
    >>> bruhat_cover(parse_permutation("[21]"), 1, 2)
    False
    """
    if a >= b:
        raise ValueError("need a < b")
    pa, pb = p(a), p(b)
    if pa > pb:
        return False
    return not any(pa < p(c) < pb for c in range(a + 1, b))


def bruhat_leq(p: Permutation, q: Permutation) -> bool:
    """Bruhat order via the rank-count criterion.

    p <= q iff for all i, j the count #{k <= i : p(k) >= j} never exceeds
    the same count for q.  One sweep over i keeps the differences of the
    counts for every j; step i changes them only for j between p(i) and
    q(i), so only those entries need checking.

    >>> bruhat_leq(parse_permutation("[132]"), parse_permutation("[231]"))
    True
    >>> bruhat_leq(parse_permutation("[213]"), parse_permutation("[132]"))
    False
    """
    if p.length > q.length:
        return False
    los = [x.support[0] for x in (p, q) if x.support]
    his = [x.support[1] for x in (p, q) if x.support]
    if not los:
        return True
    lo, hi = min(los), max(his)
    return _bruhat_leq_images(p.one_line(lo, hi), q.one_line(lo, hi), lo)


def _bruhat_leq_images(u: Sequence[int], v: Sequence[int], lo: int) -> bool:
    """The rank-count sweep of bruhat_leq on the images u and v of one
    window lo, lo+1, ...; the caller compares lengths first."""
    # slack[j - lo] = #{k <= i : v(k) >= j} - #{k <= i : u(k) >= j}
    slack = [0] * len(u)
    for pv, qv in zip(u, v):
        if pv > qv:
            for j in range(qv + 1 - lo, pv + 1 - lo):
                slack[j] -= 1
                if slack[j] < 0:
                    return False
        else:
            for j in range(pv + 1 - lo, qv + 1 - lo):
                slack[j] += 1
    return True


def wiring_sweep(word: Sequence, column: int = 0, skip: Container[int] = frozenset(),
                 heights: range = range(0)) -> tuple[list[int], list]:
    """One right-to-left pass over the wiring diagram of a word, from the
    identity labelling in column len(word) down to the given column, on a
    label list covering the heights and every letter.

    Returns (labels, crosses).  labels[k] is the label at height heights[k]
    in the column (heights has step 1).  crosses[p - 1], for column < p <=
    len(word), is the pair of labels swapped by the cross at position p, the
    first being the label moving up when read right to left; the entries of
    positions p <= column are None.

    Positions in `skip` (1-based) contribute no swap but still report the pair
    their cross would swap.  An INF slot holds no cross: it swaps nothing and
    reports (INF, INF), which equals no pair of finite labels.

    >>> wiring_sweep((3, 2, 1, 2), 2, heights=range(1, 5))
    ([3, 1, 2, 4], [None, None, (1, 3), (2, 3)])
    """
    ends = [*heights[:1], *heights[-1:]]
    finite = [a for a in word if a != INF]
    if finite:
        ends += (min(finite), max(finite) + 1)
    lo, hi = min(ends, default=0), max(ends, default=0)
    labels = list(range(lo, hi + 1))
    crosses: list = [None] * len(word)
    for p in range(len(word), column, -1):
        a = word[p - 1]
        if a == INF:
            crosses[p - 1] = (INF, INF)
            continue
        a -= lo
        up, down = labels[a], labels[a + 1]
        crosses[p - 1] = (up, down)
        if p not in skip:
            labels[a], labels[a + 1] = down, up
    return labels[heights.start - lo:heights.stop - lo], crosses


def wiring_label(word: Sequence[int], column: int, height: int,
                 skip: Container[int] = frozenset()) -> int:
    """Label at the given height in the given column of the wiring diagram.

    Column len(word) carries the identity labelling; the label in column c
    is obtained by swapping heights (w_p, w_p + 1) for p = c+1, ..., len(word)
    in that order.  Positions in `skip` (1-based) contribute no swap.
    Raises ValueError for a column outside 0..len(word).
    """
    if not 0 <= column <= len(word):
        raise ValueError(f"column {column} is outside 0..{len(word)}")
    return wiring_sweep(word, column, skip, range(height, height + 1))[0][0]


def cross_labels(word: Sequence[int], position: int,
                 skip: Container[int] = frozenset()) -> tuple[int, int]:
    """The pair of wire labels swapped by the cross at a position (1-based).

    The first entry is the label moving up when read right to left.  Reading
    all positions right to left gives a factorization of prod_word(word) into
    transpositions; for a reduced word these pairs are exactly the inversions.

    >>> [cross_labels((3, 2, 1, 2), p) for p in (4, 3, 2, 1)]
    [(2, 3), (1, 3), (1, 2), (1, 4)]

    Raises ValueError for a position outside 1..len(word).
    """
    if not 1 <= position <= len(word):
        raise ValueError(f"position {position} is outside 1..{len(word)}")
    return wiring_sweep(word, position - 1, skip)[1][position - 1]


def defects(word: Sequence[int]) -> tuple[int, int] | None:
    """The two deletable positions of a single-defect non-reduced word.

    Returns None when the word is reduced, or when no single deletion yields
    a reduced word.  When one deletion works, exactly two do; they are the
    two positions where some pair of wires crosses twice.

    >>> defects((1, 1))
    (1, 2)
    >>> defects((1, 2, 1)) is None
    True
    """
    if is_reduced(word):
        return None
    hits = [t for t in range(1, len(word) + 1)
            if is_reduced(word[:t - 1] + word[t:])]
    if not hits:
        return None
    if len(hits) != 2:
        raise AssertionError(f"word {word!r} has {len(hits)} deletable positions")
    return (hits[0], hits[1])


def compatible_sequences(word: Sequence[int], lower_bound: int = 1) -> tuple[Word, ...]:
    """All weakly increasing records below the word, bounded from below.

    A sequence j_1 <= ... <= j_m is compatible with the word i_1 ... i_m when
    j_k <= i_k everywhere and j_k < j_{k+1} at every ascent i_k < i_{k+1}.

    >>> [format_word(s) for s in compatible_sequences((2, 1, 4, 3, 4))]
    ['11223', '11224', '11234', '11334']
    """
    results: list[Word] = []

    def extend(k: int, prefix: list[int]) -> None:
        if k == len(word):
            results.append(tuple(prefix))
            return
        low = lower_bound
        if prefix:
            low = max(low, prefix[-1] + (1 if word[k - 1] < word[k] else 0))
        for j in range(low, word[k] + 1):
            prefix.append(j)
            extend(k + 1, prefix)
            prefix.pop()

    extend(0, [])
    return tuple(results)


def symmetric_group(n: int, lo: int = 1) -> Iterator[Permutation]:
    """All permutations of the window lo..lo+n-1."""
    for images in itertools.permutations(range(lo, lo + n)):
        yield Permutation.from_one_line(images, lo=lo)
