"""Pipe dreams: cross tilings of the staircase region of an n x n grid.

A pipe dream is identified with its set of crosses, 1-based cells (row, col)
with row + col <= n.  The cross in cell (r, c) lies on antidiagonal r + c - 1,
which is the letter it contributes to the reading word (right to left along
each row, rows top to bottom).  Recording rows instead of antidiagonals gives
the compatible sequence, and the pair determines the pipe dream.

The permutation of a pipe dream is the Demazure product of its reading word;
the dream is reduced when the word is, equivalently when its excess is 0.

One search enumerates pipe dreams: all_pipe_dreams walks the staircase
cells on plain tuples of images, pruned by two row-local tests.  The letters
after a cell of row r end with the full rows below, whose Demazure product
is w0 on positions r+1..n, so whether a branch can still reach p is read off
the top of a w0-coset: agreement with p above row r and one maximum in it.
reduced_pipe_dreams is the excess-0 case.  The quasi-Yamanouchi dream of a
word is read off its greatest compatible row sequence, with no enumeration.
chute_moves and ladder_moves act on one dream; their closure from the
bottom pipe dream (Bergeron-Billey, "RC-graphs and Schubert polynomials",
1993) is the independent route that tests/oracles.py checks the reduced
dreams against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import perms
from .perms import Permutation, Word


@dataclass(frozen=True)
class PipeDream:
    """Crosses in the staircase of an n x n ambient grid."""

    n: int
    crosses: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for (r, c) in self.crosses:
            if r < 1 or c < 1 or r + c > self.n:
                raise ValueError(f"cross {(r, c)} outside the staircase of size {self.n}")

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


def all_pipe_dreams(p: Permutation, n: int | None = None,
                    max_excess: int | None = None) -> frozenset[PipeDream]:
    """All pipe dreams (any excess, at most max_excess) whose permutation is p.

    These are the cross sets of the staircase of size n whose reading word
    has Demazure product p; size ambient_size(p) suffices, and no pipe dream
    of size n exists when p moves a point outside 1..n.  By Knutson-Miller
    ("Subword complexes in Coxeter groups", 2004) they are the complements
    of the interior faces of the subword complex of triangular_word(n) and
    p.  reduced_pipe_dreams is the max_excess=0 case of this search.

    A depth-first search walks the cells in reading order carrying x, the
    Demazure product of the crosses taken so far, as the tuple of the images
    of 1..n, with its length.  Taking the letter a swaps the images at a and
    a+1 when they ascend (and lengthens x), else raises the excess.  A branch
    is entered only while (a) x <= p in Bruhat order, and (b) x followed by
    every remaining letter has Demazure product >= p.  Before cell (r, c)
    those letters are r+c-1, ..., r and then the full rows below, whose
    product is w0 on positions r+1..n.  So x followed by them is the top of
    a coset of the group of that w0: max(x(r..r+c)) at r, then the rest of
    x(r..n) decreasing.  By the tableau criterion, given (a), (b) says x
    agrees with p on 1..r-1 and max(x(r..r+c)) >= p(r).  Row r never moves
    positions before r, so the agreement is tested once per row, at x(r)
    when its last cell is skipped.  Taking a cell keeps (b), and so does
    skipping a letter that is a descent of x, as x s_a = x.  Taking a right
    descent of p keeps (a) (Deodhar's lifting property), so only the other
    lengthening letters consult the memoised Bruhat test.  At the leaves (a)
    and (b) say x == p.  The excess never falls, which bounds the search by
    max_excess.
    """
    if n is None:
        n = ambient_size(p)
    if (max_excess is not None and max_excess < 0
            or p.support is not None and (p.support[0] < 1 or p.support[1] > n)):
        return frozenset()
    cells = staircase_cells(n)
    end = len(cells)
    target = p.one_line(1, n)
    target_length = p.length
    below: dict[tuple[int, ...], bool] = {}
    out = []
    taken: list[tuple[int, int]] = []

    def search(k: int, x: tuple[int, ...], length: int) -> None:
        if k == end:
            out.append(PipeDream(n, frozenset(taken)))
            return
        r, c = cells[k]
        i = r + c - 2  # the letter r + c - 1 acts on the images at i and i + 1
        u, v = x[i], x[i + 1]
        if u > v or (max(x[r - 1:i + 1]) >= target[r - 1] if c > 1 else u == target[i]):
            search(k + 1, x, length)
        if u < v:
            x = x[:i] + (v, u) + x[i + 2:]
            length += 1
            if target[i] < target[i + 1]:
                ok = below.get(x)
                if ok is None:
                    ok = below[x] = (length <= target_length
                                     and perms._bruhat_leq_images(x, target, 1))
                if not ok:
                    return
        elif max_excess is not None and len(taken) + 1 - length > max_excess:
            return
        taken.append(cells[k])
        search(k + 1, x, length)
        taken.pop()

    search(0, tuple(range(1, n + 1)), 0)
    return frozenset(out)


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
    return PipeDream(n, frozenset(crosses)) if row >= 1 else None


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
