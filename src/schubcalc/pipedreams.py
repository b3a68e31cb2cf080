"""Pipe dreams: cross tilings of the staircase region of an n x n grid.

A pipe dream is identified with its set of crosses, 1-based cells (row, col)
with row + col <= n.  The cross in cell (r, c) lies on antidiagonal r + c - 1,
which is the letter it contributes to the reading word (right to left along
each row, rows top to bottom).  Recording rows instead of antidiagonals gives
the compatible sequence, and the pair determines the pipe dream.

The permutation of a pipe dream is the Demazure product of its reading word;
the dream is reduced when the word is, equivalently when its excess is 0.

One search, _search, holds every prune and merges the paths that share a
state.  all_pipe_dreams codes a dream by its cells and lists the dreams;
weight_counts codes it by its weight and counts them, as the Schubert and
Grothendieck polynomials need.  The quasi-Yamanouchi dream of a word is read
off its greatest compatible row sequence, with no enumeration.
chute_moves and ladder_moves act on one dream; their closure from the
bottom pipe dream (Bergeron-Billey, "RC-graphs and Schubert polynomials",
1993) is the independent route that tests/oracles.py checks the reduced
dreams against.
"""
from __future__ import annotations

from functools import cached_property
from itertools import compress

from . import perms
from .perms import Permutation, Record, Word, _set


class PipeDream(Record):
    """Crosses in the staircase of an n x n ambient grid."""

    __slots__ = ("n", "crosses", "__dict__")
    _fields = ("n", "crosses")

    def __init__(self, n: int, crosses: frozenset[tuple[int, int]]) -> None:
        for (r, c) in crosses:
            if r < 1 or c < 1 or r + c > n:
                raise ValueError(f"cross {(r, c)} outside the staircase of size {n}")
        _set(self, "n", n)
        _set(self, "crosses", crosses)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.n == other.n and self.crosses == other.crosses
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.crosses))

    @staticmethod
    def _trusted(n: int, crosses: frozenset[tuple[int, int]]) -> "PipeDream":
        """A dream whose crosses are known to lie in the staircase, unchecked."""
        dream = object.__new__(PipeDream)
        _set(dream, "n", n)
        _set(dream, "crosses", crosses)
        return dream

    @staticmethod
    def empty(n: int) -> "PipeDream":
        return PipeDream(n, frozenset())

    @cached_property
    def _reading_order(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.crosses, key=lambda rc: (rc[0], -rc[1])))

    def reading_word(self) -> Word:
        """Antidiagonal indices right-to-left, top-to-bottom."""
        return tuple(r + c - 1 for (r, c) in self._reading_order)

    def row_sequence(self) -> Word:
        """Row record of the reading order, a compatible sequence."""
        return tuple(r for (r, _) in self._reading_order)

    def permutation(self) -> Permutation:
        return perms.demazure(self.reading_word())

    @property
    def excess(self) -> int:
        return len(self.crosses) - self.permutation().length

    def is_reduced(self) -> bool:
        return perms.is_reduced(self.reading_word())

    def weight(self) -> tuple[int, ...]:
        """Crosses per row, as a weak composition."""
        top = max((r for (r, _) in self.crosses), default=0)
        counts = [0] * top
        for (r, _) in self.crosses:
            counts[r - 1] += 1
        return tuple(counts)

    def transpose(self) -> "PipeDream":
        return PipeDream(self.n, frozenset((c, r) for (r, c) in self.crosses))

    def sorted_crosses(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.crosses))

    def __repr__(self) -> str:
        cells = ",".join(f"({r},{c})" for (r, c) in self.sorted_crosses())
        return f"PipeDream(n={self.n}, {{{cells}}})"


def from_word_and_rows(word: Word, rows: Word, n: int) -> PipeDream:
    """Rebuild a pipe dream from its reading word and row record.

    The rows must be compatible with the word and the crosses must land
    inside the staircase, pairwise distinct.
    """
    if not perms.is_compatible(word, rows, lower_bound=1):
        raise ValueError(f"rows {rows!r} are not compatible with word {word!r}")
    crosses = set()
    for letter, row in zip(word, rows):
        cell = (row, letter - row + 1)
        if cell in crosses:
            raise ValueError(f"duplicate cross at {cell}")
        crosses.add(cell)
    dream = PipeDream(n, frozenset(crosses))
    if dream.reading_word() != tuple(word):
        raise ValueError("word/rows pair does not match its own reading order")
    return dream


def bottom_pipe_dream(p: Permutation, n: int | None = None) -> PipeDream:
    """Left-justified pipe dream: row i holds as many crosses as the i-th
    entry of the Lehmer code.
    """
    code = perms.lehmer_code(p)
    if n is None:
        n = ambient_size(p)
    crosses = frozenset((i + 1, j + 1) for i, c in enumerate(code) for j in range(c))
    return PipeDream(n, crosses)


def ambient_size(p: Permutation) -> int:
    """Smallest staircase holding every pipe dream for p."""
    if p.support is None:
        return 1
    if p.support[0] < 1:
        raise ValueError("pipe dreams need support inside the positive integers")
    return p.support[1]


def chute_moves(dream: PipeDream) -> frozenset[PipeDream]:
    """All pipe dreams one chute move away (either direction).

    A chute exchanges a cross between the top-right cell (i, j+k+1) and the
    bottom-left cell (i+1, j) of a 2 x (k+2) block whose interior columns are
    fully crossed in both rows and whose other two corners are elbows.
    """
    n = dream.n
    crosses = dream.crosses
    out = set()

    def pattern_clear(i: int, j: int, right: int) -> bool:
        if (i, j) in crosses or (i + 1, right) in crosses:
            return False
        return all((i, b) in crosses and (i + 1, b) in crosses
                   for b in range(j + 1, right))

    for (r, c) in crosses:
        # downward: (r, c) is the top-right cross, landing on (r+1, j).
        # The landing cell stays in the staircase because r + c <= n already.
        for j in range(c - 1, 0, -1):
            if (r + 1, j) not in crosses and pattern_clear(r, j, c):
                out.add(PipeDream(n, (crosses - {(r, c)}) | {(r + 1, j)}))
        # upward: (r, c) is the bottom-left cross, landing on (r-1, right).
        if r >= 2:
            for right in range(c + 1, n + 1):
                if (r - 1) + right > n:
                    break
                if (r - 1, right) not in crosses and pattern_clear(r - 1, c, right):
                    out.add(PipeDream(n, (crosses - {(r, c)}) | {(r - 1, right)}))
    return frozenset(out)


def ladder_moves(dream: PipeDream) -> frozenset[PipeDream]:
    """Transposes of chute moves."""
    return frozenset(d.transpose() for d in chute_moves(dream.transpose()))


def reduced_pipe_dreams(p: Permutation, n: int | None = None) -> frozenset[PipeDream]:
    """All reduced pipe dreams for p: all_pipe_dreams with no excess."""
    return all_pipe_dreams(p, n, max_excess=0)


def triangular_word(n: int) -> Word:
    """Reading word of the fully crossed staircase: (n-1)..1, (n-1)..2, ...

    >>> triangular_word(4)
    (3, 2, 1, 3, 2, 3)
    """
    out = []
    for row in range(1, n):
        out.extend(range(n - 1, row - 1, -1))
    return tuple(out)


def staircase_cells(n: int) -> tuple[tuple[int, int], ...]:
    """Cells in reading order; cell k carries letter triangular_word(n)[k]."""
    return tuple((r, c) for r in range(1, n) for c in range(n - r, 0, -1))


def _search(p: Permutation, n: int, max_excess: int | None,
            pieces: list[int]) -> dict[int, int]:
    """{code: (-1)^excess * count} over the pipe dreams of size n for p with
    excess at most max_excess, a dream's code being the sum of pieces[k]
    over its crosses k in reading order.  Every prune is written here once.

    The walk visits the cells in reading order carrying a state: x, the
    Demazure product of the crosses taken so far as the tuple of the images
    of 1..n, its length and, under a finite max_excess, its excess.  Taking
    the letter a swaps the images at a and a+1 when they ascend, else raises
    the excess and flips the sign.  A branch lives only while (a) x <= p in
    Bruhat order, and (b) x followed by every remaining letter has Demazure
    product >= p.  Before cell (r, c) those letters are r+c-1, ..., r and
    then the full rows below, whose product is w0 on positions r+1..n, so x
    followed by them is max(x(r..r+c)) at r, then the rest of x(r..n)
    decreasing.  By the tableau criterion, given (a), (b) says x agrees with
    p on 1..r-1 (tested once per row, when its last cell is skipped) and
    max(x(r..r+c)) >= p(r).  Taking a cell keeps (b), and so does skipping a
    descent of x, as x s_a = x.  Taking a right descent of p keeps (a)
    (Deodhar's lifting property), so only the other lengthening letters
    consult the Bruhat test, memoised per call.  At the end (a) and (b) say
    x == p.  The paths that reach one state share one map from code to
    signed count: Fomin-Kirillov's row product in the nilCoxeter and 0-Hecke
    algebras ("The Yang-Baxter equation, symmetric functions, and Schubert
    polynomials", 1996; "Grothendieck polynomials and the Yang-Baxter
    equation", 1994).
    """
    if (max_excess is not None and max_excess < 0
            or p.support is not None and (p.support[0] < 1 or p.support[1] > n)):
        return {}
    target = p.one_line(1, n)
    below: dict[tuple[int, ...], bool] = {}
    states = {(tuple(range(1, n + 1)), 0, 0): {0: 1}}
    for (r, c), piece in zip(staircase_cells(n), pieces):
        i = r + c - 2  # the letter r + c - 1 acts on the images at i and i + 1
        merged: dict = {}
        for (x, length, excess), counts in states.items():
            u, v = x[i], x[i + 1]
            moves = []
            if u > v or (max(x[r - 1:i + 1]) >= target[r - 1] if c > 1 else u == target[i]):
                moves.append(((x, length, excess), counts))
            if u > v and (max_excess is None or excess < max_excess):
                moves.append(((x, length, excess + (max_excess is not None)),
                              {code + piece: -m for code, m in counts.items()}))
            elif u < v:
                y = x[:i] + (v, u) + x[i + 2:]
                ok = target[i] > target[i + 1] or below.get(y)
                if ok is None:
                    ok = below[y] = length < p.length and perms._bruhat_leq_images(y, target, 1)
                if ok:
                    moves.append(((y, length + 1, excess),
                                  {code + piece: m for code, m in counts.items()}))
            for key, more in moves:  # a new key adopts its map
                into = merged.setdefault(key, more)
                if into is not more:
                    for code, m in more.items():
                        into[code] = into.get(code, 0) + m
        states = merged
    # one final state per excess, whose codes never meet
    return {code: m for (x, _, _), counts in states.items() if x == target
            for code, m in counts.items()}


def all_pipe_dreams(p: Permutation, n: int | None = None,
                    max_excess: int | None = None) -> frozenset[PipeDream]:
    """All pipe dreams (any excess, at most max_excess) whose permutation is p.

    These are the cross sets of the staircase of size n whose reading word
    has Demazure product p; size ambient_size(p) suffices.  By Knutson-Miller
    ("Subword complexes in Coxeter groups", 2004) they are the complements
    of the interior faces of the subword complex of triangular_word(n) and
    p.  _search lists them, coding each by one byte per cell, 1 for a cross.
    """
    if n is None:
        n = ambient_size(p)
    cells = staircase_cells(n)
    codes = _search(p, n, max_excess, [1 << 8 * k for k in range(len(cells))])
    return frozenset(PipeDream._trusted(n, frozenset(compress(cells, code.to_bytes(len(cells), "little"))))
                     for code in codes)


def weight_counts(p: Permutation, max_excess: int | None = None) -> dict[tuple[int, ...], int]:
    """{weight: (-1)^excess * count} over all_pipe_dreams(p, max_excess=...),
    listing no dream: _search codes a weight by its base-n digits, as no row
    holds n crosses.

    >>> sorted(weight_counts(perms.parse_permutation("[132]")).items())
    [((0, 1), 1), ((1,), 1), ((1, 1), -1)]
    """
    n = ambient_size(p)

    def weight(code: int) -> tuple[int, ...]:
        return (code % n,) + weight(code // n) if code else ()

    codes = _search(p, n, max_excess, [n ** (r - 1) for r, _ in staircase_cells(n)])
    return {weight(code): count for code, count in codes.items()}


def is_quasi_yamanouchi(dream: PipeDream) -> bool:
    """Every non-empty row's leftmost cross sits in column 1 or weakly left
    of some cross in the row below.

    >>> is_quasi_yamanouchi(PipeDream.empty(3))
    True
    """
    by_row: dict[int, list[int]] = {}
    for (r, c) in dream.crosses:
        by_row.setdefault(r, []).append(c)
    for r, cols in by_row.items():
        leftmost = min(cols)
        if leftmost == 1:
            continue
        below = by_row.get(r + 1)
        if below is None or max(below) < leftmost:
            return False
    return True


def quasi_yamanouchi_pipe_dreams(p: Permutation, n: int | None = None,
                                 reduced_only: bool = True) -> frozenset[PipeDream]:
    pool = all_pipe_dreams(p, n, max_excess=0 if reduced_only else None)
    return frozenset(d for d in pool if is_quasi_yamanouchi(d))


def quasi_yamanouchi_for_word(word: Word) -> PipeDream | None:
    """The unique quasi-Yamanouchi reduced pipe dream with the given reading
    word, or None when the word admits no positive compatible sequence.

    >>> quasi_yamanouchi_for_word((2, 3, 2)).sorted_crosses()
    ((1, 2), (2, 1), (2, 2))
    """
    if not perms.is_reduced(word):
        raise ValueError("expected a reduced word")
    return _top_rows_dream(word)


def _top_rows_dream(word: Word) -> PipeDream | None:
    """The pipe dream reading word whose rows are the componentwise greatest
    compatible sequence, or None when that sequence leaves the positive rows.

    Built from the right: i_l = a_l and i_k = min(a_k, i_{k+1} - [a_k <= a_{k+1}]).
    Each row then ends in column 1 or weakly left of the next row's rightmost
    cross, unless it ends on the letter that starts the next row, which a
    reduced word never repeats: so on reduced words the dream is the word's
    quasi-Yamanouchi pipe dream (Assaf-Searles, 2017).
    """
    n = row = after = max(word, default=0) + 1
    crosses = []
    for a in reversed(word):
        row = min(a, row - (a <= after))
        crosses.append((row, a - row + 1))
        after = a
    return PipeDream._trusted(n, frozenset(crosses)) if row >= 1 else None


def render_ascii(dream: PipeDream) -> str:
    """Crosses as '+', other staircase cells as '.', outside left blank."""
    lines = []
    for r in range(1, dream.n + 1):
        row = []
        for c in range(1, dream.n - r + 1):
            row.append("+" if (r, c) in dream.crosses else ".")
        lines.append("".join(row))
    return "\n".join(lines)


def render_svg(dream: PipeDream, cell: int = 24) -> str:
    """Minimal SVG: staircase cells outlined, crosses drawn as two bars."""
    n = dream.n
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{n * cell}" height="{n * cell}" '
             f'viewBox="0 0 {n * cell} {n * cell}">']
    for r in range(1, n + 1):
        for c in range(1, n - r + 1):
            x, y = (c - 1) * cell, (r - 1) * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="none" stroke="#999"/>')
            if (r, c) in dream.crosses:
                mx, my = x + cell / 2, y + cell / 2
                parts.append(f'<line x1="{mx}" y1="{y}" x2="{mx}" y2="{y + cell}" '
                             f'stroke="#000" stroke-width="2"/>')
                parts.append(f'<line x1="{x}" y1="{my}" x2="{x + cell}" y2="{my}" '
                             f'stroke="#000" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def to_json(dream: PipeDream) -> dict:
    return {"size": dream.n, "crosses": [list(rc) for rc in dream.sorted_crosses()]}


def from_json(data: dict) -> PipeDream:
    return PipeDream(int(data["size"]),
                     frozenset((int(r), int(c)) for r, c in data["crosses"]))
