"""Partitions, compositions, weak compositions, and tableaux on them.

Shapes are plain tuples of parts.  Boxes use 1-based matrix coordinates
(row, col), English convention.  A tableau is a tuple of row tuples; a
set-valued tableau is a tuple of row tuples of frozensets.

Four single-valued tableau families are supported:

- "syt":  partition shape, entries 1..|shape| each exactly once, rows and
          columns increasing.
- "ssyt": partition shape, rows weakly increasing, columns strictly.
- "ct":   composition shape, rows weakly increasing left to right, and every
          entry of row i strictly below every entry of any later row.
- "wct":  weak composition shape, the "ct" conditions plus the cap that a
          box in row i holds a value at most i.

Filling the boxes in reading order (row by row, left to right), ssyt, ct
and wct give each box an entry between a lower bound and a cap:

- lower bound: at least the largest entry to its left; for "ssyt" more
  than the entry above it, for "ct" and "wct" more than every entry of the
  earlier rows;
- cap: n, and for "wct" also the box's row index.

A set-valued "wct" tableau fills each box with a non-empty set under the
same bounds, its largest element standing for the box's largest entry.
For "ct" and "wct" the reading word is weakly increasing, so the tableau
is determined by its content.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from .perms import Record, _set

Shape = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
SetValuedTableau = tuple[tuple[frozenset[int], ...], ...]

FAMILIES = ("syt", "ssyt", "ct", "wct")


def is_partition(shape: Sequence[int]) -> bool:
    return all(a > 0 for a in shape) and all(shape[i] >= shape[i + 1] for i in range(len(shape) - 1))


def is_composition(shape: Sequence[int]) -> bool:
    return all(a > 0 for a in shape)


def is_weak_composition(shape: Sequence[int]) -> bool:
    return all(a >= 0 for a in shape)


def size(shape: Sequence[int]) -> int:
    return sum(shape)


def flatten(shape: Sequence[int]) -> Shape:
    """Drop all zero parts.

    >>> flatten((2, 0, 5, 4))
    (2, 5, 4)
    """
    return tuple(a for a in shape if a)


def composition_to_set(comp: Sequence[int]) -> frozenset[int]:
    """Partial sums of all but the last part, a subset of [n-1].

    >>> sorted(composition_to_set((2, 3, 1)))
    [2, 5]
    """
    if not is_composition(comp):
        raise ValueError("expected a composition (positive parts)")
    total = 0
    out = []
    for a in comp[:-1]:
        total += a
        out.append(total)
    return frozenset(out)


def set_to_composition(subset: Sequence[int] | frozenset[int], n: int) -> Shape:
    """Inverse of composition_to_set for subsets of [n-1].

    >>> set_to_composition({2, 5}, 6)
    (2, 3, 1)
    """
    points = sorted(subset)
    if any(not 1 <= p <= n - 1 for p in points):
        raise ValueError("subset must lie inside 1..n-1")
    prev = 0
    parts = []
    for p in points:
        parts.append(p - prev)
        prev = p
    parts.append(n - prev)
    return tuple(parts)


def refines(fine: Sequence[int], coarse: Sequence[int]) -> bool:
    """Whether consecutive blocks of `fine` sum to the parts of `coarse`.

    Both must be compositions of the same total.

    >>> refines((1, 1, 1), (2, 1)), refines((1, 2), (2, 1))
    (True, False)
    """
    if not (is_composition(fine) and is_composition(coarse)):
        raise ValueError("refinement is between compositions")
    if size(fine) != size(coarse):
        return False
    return composition_to_set(coarse) <= composition_to_set(fine)


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Prefix sums of a weakly exceed those of b (shorter side padded)."""
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            return False
    return True


# ---------------------------------------------------------------------------
# single-valued tableaux


def shape_of(tableau: Tableau) -> Shape:
    return tuple(len(row) for row in tableau)


def _tally(values: list[int]) -> Shape:
    """Weak composition counting how often each value 1, 2, ... occurs."""
    counts = [0] * max(values, default=0)
    for v in values:
        counts[v - 1] += 1
    return tuple(counts)


def content(tableau: Tableau) -> Shape:
    """Weak composition counting the boxes holding each value."""
    return _tally([v for row in tableau for v in row])


def _rows_weakly_increasing(tableau: Tableau) -> bool:
    return all(row[i] <= row[i + 1] for row in tableau for i in range(len(row) - 1))


def is_family_tableau(tableau: Tableau, family: str, n: int) -> bool:
    """Membership test for one of the four families with largest entry n."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    shape = shape_of(tableau)
    entries = [v for row in tableau for v in row]
    if any(not 1 <= v <= n for v in entries):
        return False
    if family in ("syt", "ssyt"):
        if not is_partition(shape) and shape:
            return False
        if not _rows_weakly_increasing(tableau):
            return False
        for r in range(len(tableau) - 1):
            for c in range(len(tableau[r + 1])):
                if tableau[r][c] >= tableau[r + 1][c]:
                    return False
        if family == "syt":
            return sorted(entries) == list(range(1, len(entries) + 1))
        return True
    # ct / wct: rows weakly increase and whole rows are strictly separated.
    if not _rows_weakly_increasing(tableau):
        return False
    previous_max: int | None = None
    for r, row in enumerate(tableau, start=1):
        if not row:
            continue
        if previous_max is not None and row[0] <= previous_max:
            return False
        if family == "wct" and row[-1] > r:
            return False
        previous_max = row[-1]
    return True


def enumerate_tableaux(family: str, shape: Shape, n: int) -> tuple[Tableau, ...]:
    """All tableaux of the family on the shape with entries at most n.

    The shape kind must match the family: partition for syt/ssyt, composition
    for ct, weak composition for wct.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in ("syt", "ssyt") and not is_partition(shape):
        raise ValueError(f"{family} needs a partition shape, got {shape!r}")
    if family == "ct" and not is_composition(shape):
        raise ValueError(f"ct needs a composition shape, got {shape!r}")
    if family == "wct" and not is_weak_composition(shape):
        raise ValueError(f"wct needs a weak composition shape, got {shape!r}")

    if family == "syt":
        return tuple(_enumerate_syt(shape, n))
    return _fill(shape, n, family, lambda low, cap: range(low, cap + 1), int)


def _fill(shape: Shape, n: int, family: str, fills, largest) -> tuple:
    """Every filling of an ssyt, ct or wct shape within the per-box bounds of
    the module docstring, ordered box by box in reading order.

    `fills(low, cap)` lists, in order, what may go in a box whose entries
    lie in low..cap; `largest(box)` is the largest entry of what went in.
    The search keeps one iterator of choices per filled box on a stack, so
    its depth does not grow with the shape.
    """
    cap = [min(n, r + 1) if family == "wct" else n for r in range(len(shape))]
    starts = [0, *itertools.accumulate(shape)]
    # each box in reading order: its row, its column, where its row starts
    boxes = [(r, c, starts[r]) for r, width in enumerate(shape) for c in range(width)]
    filled: list = [None] * len(boxes)
    done = [()] * len(shape)  # the rows filled so far, as tuples
    if not boxes:
        return (tuple(done),)
    results: list[tuple] = []
    stack = [iter(fills(1, cap[boxes[0][0]]))]  # every family's first box starts at 1
    while stack:
        box = next(stack[-1], None)
        if box is None:
            stack.pop()
            continue
        k = len(stack) - 1
        filled[k] = box
        r, c, start = boxes[k]
        if c == shape[r] - 1:
            done[r] = tuple(filled[start:k + 1])
        if k + 1 == len(boxes):
            results.append(tuple(done))
            continue
        # the next box: top is the largest entry so far, the box to its left's
        # or at the start of a row the largest of the earlier rows
        r, c, _ = boxes[k + 1]
        top = largest(box)
        if family != "ssyt":
            low = top if c else top + 1
        else:
            low = max(top if c else 1, largest(filled[k + 1 - shape[r - 1]]) + 1 if r else 1)
        stack.append(iter(fills(low, cap[r])))
    return tuple(results)


def _enumerate_syt(shape: Shape, n: int) -> Iterator[Tableau]:
    """Standard tableaux by placing 1, 2, ... in turn at the end of a row, the
    rows tried top first; `path` holds the row of each placed value."""
    total = size(shape)
    if total > n:
        return
    rows: list[list[int]] = [[] for _ in shape]
    path: list[int] = []
    r = 0  # the first row to try for the next value
    while True:
        if len(path) == total:
            yield tuple(tuple(row) for row in rows)
            r = len(shape)  # no row takes a further value: backtrack
        while r < len(shape) and not (len(rows[r]) < shape[r]
                                      and (r == 0 or len(rows[r - 1]) > len(rows[r]))):
            r += 1
        if r < len(shape):
            rows[r].append(len(path) + 1)
            path.append(r)
            r = 0
        elif path:
            r = path.pop()
            rows[r].pop()
            r += 1
        else:
            return


def standardize(tableau: Tableau) -> Tableau:
    """Standardization of a semistandard tableau: equal values are renumbered
    left to right (equal entries never share a column, so this is unambiguous).

    >>> standardize(((1, 1), (2,)))
    ((1, 2), (3,))
    """
    boxes = [(v, c, r) for r, row in enumerate(tableau) for c, v in enumerate(row)]
    boxes.sort()
    out = [list(row) for row in tableau]
    for rank, (_, c, r) in enumerate(boxes, start=1):
        out[r][c] = rank
    return tuple(tuple(row) for row in out)


def descent_set(tableau: Tableau) -> frozenset[int]:
    """Values i sitting strictly above i+1 in a standard tableau."""
    row_of = {}
    total = 0
    for r, row in enumerate(tableau, start=1):
        for v in row:
            row_of[v] = r
            total += 1
    if sorted(row_of) != list(range(1, total + 1)):
        raise ValueError("descent sets are for standard tableaux")
    return frozenset(i for i in range(1, total) if row_of[i] < row_of[i + 1])


# ---------------------------------------------------------------------------
# set-valued tableaux and kompositions


class Komposition(Record):
    """A weak composition with some non-zero parts flagged bold.

    `bold` holds the 1-based positions of the bold parts; the excess is the
    number of flags.
    """

    __slots__ = ("parts", "bold")
    _fields = ("parts", "bold")

    def __init__(self, parts: tuple[int, ...], bold: frozenset[int] = frozenset()) -> None:
        if any(a < 0 for a in parts):
            raise ValueError("parts must be non-negative")
        for i in bold:
            if not 1 <= i <= len(parts) or parts[i - 1] == 0:
                raise ValueError(f"bold flag at {i} must sit on a non-zero part")
        _set(self, "parts", parts)
        _set(self, "bold", bold)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.parts == other.parts and self.bold == other.bold
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts, self.bold))

    @property
    def excess(self) -> int:
        return len(self.bold)

    def trimmed(self) -> "Komposition":
        """Drop trailing zero parts (bold flags never sit on zeros)."""
        end = len(self.parts)
        while end and self.parts[end - 1] == 0:
            end -= 1
        return Komposition(self.parts[:end], self.bold)

    def __str__(self) -> str:
        entries = [f"{a}*" if i + 1 in self.bold else str(a)
                   for i, a in enumerate(self.parts)]
        return "(" + ",".join(entries) + ")"


def set_valued_size(svt: SetValuedTableau) -> int:
    return sum(len(box) for row in svt for box in row)


def set_valued_content(svt: SetValuedTableau) -> Shape:
    return _tally([v for row in svt for box in row for v in box])


def kontent(svt: SetValuedTableau) -> Komposition:
    """Content with a bold flag on every value cohabiting with a smaller one.

    >>> str(kontent(((frozenset({1, 2}),), (frozenset({3}),))))
    '(1,1*,1)'
    """
    counts = set_valued_content(svt)
    bold = set()
    for row in svt:
        for box in row:
            smallest = min(box)
            bold.update(v for v in box if v > smallest)
    return Komposition(counts, frozenset(bold))


def selections(svt: SetValuedTableau) -> Iterator[Tableau]:
    """All single-valued tableaux obtained by picking one entry per box."""
    rows = [[sorted(box) for box in row] for row in svt]
    flat = [box for row in rows for box in row]
    widths = [len(row) for row in rows]
    for choice in itertools.product(*flat):
        it = iter(choice)
        yield tuple(tuple(next(it) for _ in range(w)) for w in widths)


def classify_set_valued(svt: SetValuedTableau, family: str, n: int) -> str:
    """"set-valued" if every selection is in the family, "limit" if some is,
    otherwise "neither".  Checked by exhausting the selection functions.
    """
    if any(not box for row in svt for box in row):
        raise ValueError("every box of a set-valued tableau must be non-empty")
    saw_member = False
    saw_outsider = False
    for t in selections(svt):
        if is_family_tableau(t, family, n):
            saw_member = True
        else:
            saw_outsider = True
        if saw_member and saw_outsider:
            return "limit"
    if saw_member:
        return "set-valued"
    return "neither"


def enumerate_set_valued_wct(shape: Shape) -> tuple[SetValuedTableau, ...]:
    """All set-valued tableaux of the shape every selection of which is a
    weak composition tableau.

    The defining conditions are pairwise order constraints, so quantifying
    over selections reduces to the per-box bounds of the module docstring,
    each set's largest element against the bounds of the next box.
    """
    if not is_weak_composition(shape):
        raise ValueError("expected a weak composition shape")
    return _fill(shape, len(shape), "wct", _nonempty_sets, max)


def _nonempty_sets(low: int, cap: int) -> Iterator[frozenset[int]]:
    values = range(low, cap + 1)
    for r in range(1, len(values) + 1):
        for combo in itertools.combinations(values, r):
            yield frozenset(combo)


def is_glide(kappa: Komposition, shape: Sequence[int]) -> bool:
    """Whether the komposition arises as the kontent of a set-valued weak
    composition tableau of the given shape.

    Directly: the parts of kappa split into consecutive blocks, one per
    non-zero part of the shape, where block j ends at or before the position
    of the j-th non-zero part, sums to that part plus the block's bold count,
    and opens with a non-bold part.
    """
    if not is_weak_composition(shape):
        raise ValueError("expected a weak composition shape")
    kappa = kappa.trimmed()
    nonzero = [i + 1 for i, a in enumerate(shape) if a]
    parts, bold = kappa.parts, kappa.bold
    if not nonzero:
        return not parts
    # A state (j, start) opens block j at the 1-based index start; the answer
    # from a state depends on nothing else, so each is searched once, on an
    # explicit stack that no number of blocks can overflow.
    stack = [(0, 1)]
    seen = set(stack)
    while stack:
        j, start = stack.pop()
        if j == len(nonzero):
            if start == len(parts) + 1:
                return True
            continue
        target = shape[nonzero[j] - 1]
        first_nonzero_seen = False
        total = excess = 0
        for end in range(start, min(nonzero[j], len(parts)) + 1):
            a = parts[end - 1]
            total += a
            if end in bold:
                excess += 1
            if a and not first_nonzero_seen:
                if end in bold:
                    break
                first_nonzero_seen = True
            if total == target + excess and first_nonzero_seen and (j + 1, end + 1) not in seen:
                seen.add((j + 1, end + 1))
                stack.append((j + 1, end + 1))
            if total - excess > target:
                # each further part adds at least as much to the sum as to
                # the excess, so the block can never balance again
                break
    return False


def tableau_to_json(tableau: Tableau) -> list[list[int]]:
    return [list(row) for row in tableau]


def set_valued_to_json(svt: SetValuedTableau) -> list[list[list[int]]]:
    return [[sorted(box) for box in row] for row in svt]


def tableau_from_json(data: list[list[int]]) -> Tableau:
    return tuple(tuple(row) for row in data)


def set_valued_from_json(data: list[list[list[int]]]) -> SetValuedTableau:
    return tuple(tuple(frozenset(box) for box in row) for row in data)
