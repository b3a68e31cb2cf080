"""Shuffle bijections behind the Monk and Sottile-Pieri products of
(back-stable) Schubert polynomials, implemented on reduced words.

The Monk insertion takes a reduced word for p, a letter value i and an
insertion position, and rectifies to a reduced word for p*t(a,b) with
a <= i < b: a cross dropped from infinitely high in a fresh wiring-diagram
column slides down to the highest swap taking a wire labelled <= i over one
labelled > i; if the swapped wires already crossed, that cross is bumped
down in turn, strictly leftwards, until the word is reduced.

The Pieri version inserts k crosses at once for the cycle factors
c[i,k] = s_{i-k+1} ... s_i (column variant) or r[i,k] = s_{i+k-1} ... s_i
(row variant).  Pending crosses carry a "down" mark and are invisible to
wire labels; freshly placed crosses carry an "up" mark.  A bookkeeping set
records which wire labels may still be used on the relevant side: the
column variant tracks "big" labels (initially everything above i) consumed
through their lower label, the row variant mirrors this with "small" labels
(initially everything at most i) consumed through their upper label.  That
bookkeeping is exactly what enforces the distinctness constraints in the
two product rules.  It is kept as the base side XOR a finite set of flipped
labels; a run keeps that set and the marks as local state.

Each run makes one label window and one sweep from the right to its first
pending column j; a step picks the new letter at j from the labels of
column j.  An insertion step sweeps on leftwards for the cross it bumps,
keeping the labels of the next pending column (Monk's stops at the bump).
An extraction step reads the old cross off the column, un-bumps by sweeping
a copy down to the lowest pending cross, follows the raised cross's wires
rightwards to its defect mate, and carries the column labels rightwards to
the next up mark.

The slot value INF compares above every integer and marks a column whose
cross has not yet been placed; such slots are always down-marked.
"""
from __future__ import annotations

from collections.abc import Container, Sequence

from . import perms
from .perms import INF, Permutation, Record, Word, _set

DOWN = "down"
UP = "up"


class InvariantError(AssertionError):
    """An invariant of the insertion or extraction loop failed.  The checks
    raise it explicitly, so `validate=True` keeps checking under python -O."""


class MarkedWord(Record):
    """Letter slots (integers or INF) with per-slot marks."""

    __slots__ = ("slots", "marks")
    _fields = ("slots", "marks")

    def __init__(self, slots: tuple, marks: tuple) -> None:
        if len(slots) != len(marks):
            raise ValueError("slots and marks must align")
        for a, m in zip(slots, marks):
            if m not in (None, DOWN, UP):
                raise ValueError(f"bad mark {m!r}")
            if a == INF and m != DOWN:
                raise ValueError("INF slots must carry the down mark")
        _set(self, "slots", slots)
        _set(self, "marks", marks)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.slots == other.slots and self.marks == other.marks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.slots, self.marks))

    def infinity_positions(self) -> tuple[int, ...]:
        return tuple(p for p, a in enumerate(self.slots, start=1) if a == INF)

    def word_and_positions(self) -> tuple[Word, tuple[int, ...]]:
        """Finite letters in order, plus the 1-based INF positions."""
        word = tuple(int(a) for a in self.slots if a != INF)
        return word, self.infinity_positions()

    def __str__(self) -> str:
        suffix = {None: "", DOWN: "v", UP: "^"}
        return " ".join(("oo" if a == INF else str(int(a))) + suffix[m]
                        for a, m in zip(self.slots, self.marks))


def insert_slots(word: Sequence[int], positions: Sequence[int]) -> MarkedWord:
    """Pad a word with down-marked INF slots at the given 1-based positions
    of the padded word.
    """
    total = len(word) + len(positions)
    wanted = sorted(positions)
    if wanted != list(positions) or len(set(wanted)) != len(wanted):
        raise ValueError("positions must be strictly increasing")
    if wanted and (wanted[0] < 1 or wanted[-1] > total):
        raise ValueError("positions out of range")
    slots: list = []
    marks: list = []
    letters = iter(word)
    spots = set(wanted)
    for p in range(1, total + 1):
        if p in spots:
            slots.append(INF)
            marks.append(DOWN)
        else:
            slots.append(next(letters))
            marks.append(None)
    return MarkedWord(tuple(slots), tuple(marks))


# ---------------------------------------------------------------------------
# label windows and searches


def _window(word: Word, size: int, i: int) -> tuple[int, int, list[int]]:
    """(lo, top, labels): the identity labels of heights lo..hi + 1, the
    window reaching size + 2 beyond the letters of the word and the pivot i
    on both sides, size being the number of slots.  A run moves each letter
    one way only, and ends within k of the input letters and i, so one
    window serves every step of the run.

    Above top, one more than the highest letter and i, the labels are the
    identity and unflipped, so no search stops there: a falling cross starts
    at top, and a rising one gives up past it.  A run keeps top above every
    letter it places, and so above every label it books; as top grows by at
    most one a step, and a run takes at most size steps, it stays below hi."""
    finite = (*word, i)
    top = max(finite) + 1
    lo = min(finite) - size - 2
    return lo, top, list(range(lo, top + size + 3))


def _fall(labels: list[int], lo: int, top: int, i: int, flipped: Container[int]) -> int:
    """The highest height h <= top whose labels read (low, high): a label x
    is high when (x > i) != (x in flipped).  The Monk swap (flipped empty)
    takes a wire labelled <= i over one labelled > i; the Pieri swap of
    either variant reads the same once the book is folded into flipped."""
    x = labels[top + 1 - lo]
    high = (x > i) != (x in flipped)
    for t in range(top - lo, -1, -1):
        x = labels[t]
        below = (x > i) != (x in flipped)
        if high and not below:
            if not t:
                raise InvariantError(f"letter {lo} reached the edge of the label window")
            return t + lo
        high = below
    raise InvariantError("no available swap below the pending cross")


def _rise(labels: list[int], lo: int, bottom: int, top: int, i: int,
          flipped: Container[int]) -> int | None:
    """The lowest height h in bottom..top whose labels read (high, low), as
    in _fall; None when there is none (the cross rises to INF)."""
    x = labels[bottom - lo]
    high = (x > i) != (x in flipped)
    for t in range(bottom + 1 - lo, top + 2 - lo):
        x = labels[t]
        above = (x > i) != (x in flipped)
        if high and not above:
            return t - 1 + lo
        high = above
    return None


def _carry_right(letters: Sequence, labels: list[int], lo: int, start: int, stop: int) -> None:
    """Turn the labels of column `start` into those of column `stop` >= start,
    every cross in between swapping."""
    for p in range(start + 1, stop + 1):
        a = letters[p - 1] - lo
        labels[a], labels[a + 1] = labels[a + 1], labels[a]


# ---------------------------------------------------------------------------
# Monk insertion


def monk_shuffle(i: int, word: Sequence[int], position: int,
                 validate: bool = False, trace: list[str] | None = None) -> Word:
    """Insert the letter value i into a reduced word at the given position
    (1..len+1) and rectify; the result is a reduced word for p*t(a,b) with
    a <= i < b, p being the permutation of the input word.

    >>> perms.format_word(monk_shuffle(3, (3, 2, 3, 4, 3, 2), 5))
    '1232432'
    """
    word = tuple(word)
    if not perms.is_reduced(word):
        raise ValueError("monk insertion starts from a reduced word")
    if not 1 <= position <= len(word) + 1:
        raise ValueError("insertion position out of range")
    letters: list = list(word[:position - 1]) + [INF] + list(word[position - 1:])
    lo, top, labels = _window(word, len(letters), i)
    perms.sweep_span(letters, labels, lo, [None] * len(letters), len(letters), position)
    j = position
    while j:
        cur = letters[j - 1]
        k = _fall(labels, lo, top if cur == INF else cur - 1, i, ())
        letters[j - 1] = k
        if k >= top:
            top = k + 1
        if trace is not None:
            finite = [int(a) for a in letters if a != INF] + [i]
            low, high = min(finite) - 1, max(finite) + 2
            shown = perms.wiring_sweep(letters, j, heights=range(low, high + 1))[0]
            trace.append(f"placed {k} at position {j}; word = "
                         + " ".join("oo" if a == INF else str(a) for a in letters)
                         + f" ; labels(col {j}, h={low}..{high}) = {shown}")
        # the rest of the word is reduced and its crosses right of j read
        # (low, high), so the wires a < b of the new cross can only meet
        # again to its left; the sweep stops there, at the next column
        a, b = labels[k - lo], labels[k + 1 - lo]
        labels[k - lo], labels[k + 1 - lo] = b, a
        partner = 0
        for p in range(j - 1, 0, -1):
            h = letters[p - 1] - lo
            x, y = labels[h], labels[h + 1]
            if x == b and y == a:
                partner = p
                break
            labels[h], labels[h + 1] = y, x
        if partner and validate and perms.defects(tuple(letters)) != (partner, j):
            raise InvariantError("defect pair mismatch")
        j = partner
    result = tuple(int(a) for a in letters)
    if validate:
        if not perms.is_reduced(result):
            raise InvariantError("the insertion must give a reduced word")
        if perms.prod_word(result).length != perms.prod_word(word).length + 1:
            raise InvariantError("the insertion must add one to the length")
    return result


def monk_unshuffle(i: int, word: Sequence[int], source: Permutation,
                   validate: bool = False) -> tuple[Word, int]:
    """Inverse of monk_shuffle: recover the word for `source` and the
    insertion position from a reduced word for source*t(a,b), a <= i < b.

    The source permutation pins down which cross was inserted; the same
    output word arises from different sources.
    """
    word = tuple(word)
    if not perms.is_reduced(word):
        raise ValueError("expected a reduced word")
    sigma = perms.prod_word(word)
    # word = source * t(a, b): a and b are the points the two move differently
    start = min(sigma.lo, source.lo)
    end = max(sigma.lo + len(sigma.window), source.lo + len(source.window)) - 1
    moved = [x for x, u, v in zip(range(start, end + 1), sigma.one_line(start, end),
                                  source.one_line(start, end)) if u != v]
    if len(moved) != 2:
        raise ValueError("word is not obtained from the source by one transposition")
    a, b = min(moved), max(moved)
    if not (a <= i < b):
        raise ValueError(f"transposition ({a},{b}) does not straddle {i}")
    if len(word) != source.length + 1:
        raise ValueError("length must go up by exactly one")
    letters: list = list(word)
    lo, top, labels = _window(word, len(word), i)
    crosses: list = [None] * len(letters)
    perms.sweep_span(letters, labels, lo, crosses, len(letters))
    hits = [p for p, pair in enumerate(crosses, start=1) if pair == (a, b)]
    if len(hits) != 1:
        raise InvariantError("a reduced word shows each inversion exactly once")
    j = hits[0]
    _carry_right(letters, labels, lo, 0, j)
    while True:
        k = _rise(labels, lo, int(letters[j - 1]) + 1, top, i, ())
        if k is None:
            letters[j - 1] = INF
            break
        letters[j - 1] = k
        if k >= top:
            top = k + 1
        # the word without j is reduced, so the new cross (high, low) meets
        # its wires again only to the right; carrying the labels rightwards
        # finds it and leaves those of its column
        high, low = labels[k - lo], labels[k + 1 - lo]
        for p in range(j + 1, len(letters) + 1):
            h = letters[p - 1] - lo
            x, y = labels[h], labels[h + 1]
            labels[h], labels[h + 1] = y, x
            if x == high and y == low:
                break
        else:
            raise InvariantError("raised cross must recreate a crossing")
        if validate and perms.defects(tuple(letters)) != (j, p):
            raise InvariantError("defect pair mismatch")
        j = p
    position = j
    out = tuple(int(a) for p, a in enumerate(letters, start=1) if p != position)
    if validate and not (perms.is_reduced(out) and perms.prod_word(out) == source):
        raise InvariantError("the extraction must give a reduced word for the source")
    return out, position


# ---------------------------------------------------------------------------
# Pieri insertion
#
# The book is kept as the set `flipped`: the column variant books the labels
# x with (x > i) != (x in flipped), the row variant the rest, so x is booked
# when ((x > i) != (x in flipped)) == column.


def _pieri_line(note: str, slots: list, marks: list, down: set[int], i: int,
                column: bool, flipped: set[int], at: int | None = None) -> str:
    """A trace line: the marked word, the book and the labels of column `at`."""
    line = f"{note}: {MarkedWord(tuple(slots), tuple(marks))} ; book = "
    line += f"{{k > {i}}}" if column else f"{{k <= {i}}}"
    plus = sorted(x for x in flipped if (x > i) != column)
    minus = sorted(x for x in flipped if (x > i) == column)
    line += (f" + {plus}" if plus else "") + (f" - {minus}" if minus else "")
    if at is not None:
        finite = [int(a) for a in slots if a != INF] + [i]
        lo, hi = min(finite) - 1, max(finite) + 2
        labels = perms.wiring_sweep(slots, at, down, range(lo, hi + 1))[0]
        line += f" ; labels(col {at}, h={lo}..{hi}) = {labels}"
    return line


def pieri_shuffle(i: int, word: Sequence[int] | MarkedWord,
                  positions: Sequence[int] | None = None, variant: str = "c",
                  validate: bool = False, trace: list[str] | None = None) -> Word:
    """Insert k copies of the letter value i at the marked positions and
    rectify; the result is a reduced word for a permutation reachable from
    the input word's permutation by the column (variant "c") or row
    (variant "r") Pieri relation with parameters (i, k).
    """
    marked = word if isinstance(word, MarkedWord) else insert_slots(word, positions or ())
    if any(a != INF and m is not None for a, m in zip(marked.slots, marked.marks)):
        raise ValueError("only INF slots may be marked on input")
    base_word, _ = marked.word_and_positions()
    if not perms.is_reduced(base_word):
        raise ValueError("the unmarked content must be a reduced word")
    # the column variant books "big" labels, consumed via lower labels; the
    # row variant "small" labels, consumed via upper labels.  So a cross
    # swapping (lower, upper) is inserted when only the upper label is
    # booked (column) or only the lower (row), and extracted in reverse.
    if variant not in ("c", "r"):
        raise ValueError("variant must be 'c' (column) or 'r' (row)")
    column = variant == "c"
    slots, marks = list(marked.slots), list(marked.marks)
    down = {p for p, m in enumerate(marks, start=1) if m == DOWN}
    up, flipped = set(), set()
    booked_at: dict[int, int] = {}  # up position -> the label it booked
    claims: dict[int, int] = {}  # bumped position -> the label it holds
    source = perms.prod_word(base_word) if validate else None
    if trace is not None:
        trace.append(_pieri_line("start", slots, marks, down, i, column, flipped))
    if down:
        j = max(down)
        lo, top, labels = _window(base_word, len(slots), i)
        perms.sweep_span(slots, labels, lo, [None] * len(slots), len(slots), j, down)
    while down:
        # labels: those of column j, where the next pending cross sits
        cur = slots[j - 1]
        if cur != INF:
            # the pending cross was bumped: release the label it was holding
            lower, upper = labels[cur - lo], labels[cur + 1 - lo]
            held = upper if column else lower
            if validate and claims.pop(j) != held:
                raise InvariantError("the released label must be the one booked at bump time")
            if ((held > i) != (held in flipped)) != column:
                raise InvariantError(f"removing {held} from a set not holding it")
            flipped ^= {held}
            hits = [p for p in sorted(up) if booked_at[p] == held]
            if len(hits) != 1:
                raise InvariantError(f"label {held} should be claimed exactly once, found {hits}")
            if validate and hits[0] <= j:
                raise InvariantError("the claiming cross sits to the right")
            marks[hits[0] - 1] = None
            up.remove(hits[0])
        k = _fall(labels, lo, top if cur == INF else cur - 1, i, flipped)
        slots[j - 1] = k
        if k >= top:
            top = k + 1
        marks[j - 1] = UP
        down.remove(j)
        up.add(j)
        lower, upper = labels[k - lo], labels[k + 1 - lo]
        if validate and not lower < upper:
            raise InvariantError("insertions never create a defect on their right")
        booked = booked_at[j] = lower if column else upper
        if ((booked > i) != (booked in flipped)) != column:
            flipped ^= {booked}
        # sweep j..1: a bump partner is a visible cross left of j showing
        # the new pair reversed; the labels of the next pending column (the
        # first pending or bumped position met) are kept for the next step
        labels[k - lo], labels[k + 1 - lo] = upper, lower
        partner = nxt = 0
        for p in range(j - 1, 0, -1):
            if p in down:
                if not nxt:
                    nxt, kept = p, labels.copy()
                continue
            h = slots[p - 1] - lo
            x, y = labels[h], labels[h + 1]
            if x == upper and y == lower:
                if partner:
                    raise InvariantError(f"wires {lower},{upper} cross more than twice")
                partner = p
                if not nxt:
                    nxt, kept = p, labels.copy()
            labels[h], labels[h + 1] = y, x
        if partner:
            if validate:
                if marks[partner - 1] is not None:
                    raise InvariantError("only plain crosses get bumped")
                claims[partner] = booked
            marks[partner - 1] = DOWN
            down.add(partner)
        if trace is not None:
            trace.append(_pieri_line(f"placed {k} at {j}", slots, marks, down, i,
                                     column, flipped, j))
        if validate:
            if down and max(down) >= j:
                raise InvariantError("pending marks must move left")
            _check_unmarked_subword(slots, marks, down, up, column, source)
        if nxt:
            j, labels = nxt, kept
    result = tuple(int(a) for a in slots)
    if validate and not perms.is_reduced(result):
        raise InvariantError("the insertion must give a reduced word")
    return result


def _check_unmarked_subword(slots: list, marks: list, down: set[int], up: set[int],
                            column: bool, source: Permutation) -> None:
    """The unmarked subword, after cancelling each pending mark against
    the up-marked cross claiming its held label, is the rightmost subword
    for the original permutation inside the visible (non-pending) word.
    """
    crosses = perms.wiring_sweep(slots, skip=down)[1]
    virtual = {p for p, m in enumerate(marks, start=1) if m is None}
    ups = sorted(up)
    for j in down:
        if slots[j - 1] == INF:
            continue
        held = crosses[j - 1][1 if column else 0]
        for p in ups:
            if crosses[p - 1][0 if column else 1] == held:
                virtual.add(p)
                break
    visible = tuple(None if (p in down or a == INF) else a
                    for p, a in enumerate(slots, start=1))
    expected = rightmost_subword(visible, source)
    if frozenset(virtual) != frozenset(expected):
        raise InvariantError(f"unmarked subword {sorted(virtual)} "
                             f"!= rightmost subword {sorted(expected)}")


def pieri_unshuffle(i: int, word: Sequence[int], source: Permutation,
                    variant: str = "c", validate: bool = False,
                    trace: list[str] | None = None) -> MarkedWord:
    """Inverse of pieri_shuffle: peel the inserted crosses back out of a
    reduced word, leaving INF slots at the insertion positions.  The source
    permutation (whose rightmost subword seeds the marking) must be a Pieri
    predecessor of the word's permutation.
    """
    word = tuple(word)
    if not perms.is_reduced(word):
        raise ValueError("expected a reduced word")
    chosen = set(rightmost_subword(word, source))
    if variant not in ("c", "r"):
        raise ValueError("variant must be 'c' (column) or 'r' (row)")
    column = variant == "c"
    slots, n = list(word), len(word)
    marks: list = [None if p in chosen else UP for p in range(1, n + 1)]
    up = {p for p in range(1, n + 1) if p not in chosen}
    down, flipped = set(), set()
    if up:
        # up marks are consumed left to right, the down marks they leave
        # all sit left of j, and no letter right of j has changed: the
        # labels of column j swap at every cross right of it
        j = min(up)
        lo, top, labels = _window(word, n, i)
        crosses: list = [None] * n
        perms.sweep_span(slots, labels, lo, crosses, n, j)
        crosses[j - 1] = (labels[slots[j - 1] - lo], labels[slots[j - 1] + 1 - lo])
        for p in up:
            x = crosses[p - 1][0 if column else 1]
            if ((x > i) != (x in flipped)) != column:
                flipped ^= {x}
    if trace is not None:
        trace.append(_pieri_line("start", slots, marks, down, i, column, flipped))
    while up:
        cur = slots[j - 1]
        lower, upper = labels[cur - lo], labels[cur + 1 - lo]
        # if the cross at j had bumped another one down, un-bump it first:
        # sweep a copy of the labels down to the lowest pending finite cross
        pending = [p for p in down if slots[p - 1] != INF]
        if pending:
            copy = labels.copy()
            partner = 0
            for p in range(j, min(pending) - 1, -1):
                a = slots[p - 1]
                if p in down:
                    if a != INF and copy[a - lo] == upper and copy[a + 1 - lo] == lower:
                        if partner:
                            raise InvariantError("two pending crosses claim the same wires")
                        partner = p
                    continue
                a -= lo
                copy[a], copy[a + 1] = copy[a + 1], copy[a]
            if partner:
                marks[partner - 1] = None
                down.remove(partner)
        held = lower if column else upper
        if ((held > i) != (held in flipped)) != column:
            raise InvariantError(f"removing {held} from a set not holding it")
        flipped ^= {held}
        k = _rise(labels, lo, cur + 1, top, i, flipped)
        marks[j - 1] = DOWN
        up.remove(j)
        down.add(j)
        if k is None:
            slots[j - 1] = INF
        else:
            slots[j - 1] = k
            if k >= top:
                top = k + 1
            booked = labels[k + 1 - lo] if column else labels[k - lo]
            if ((booked > i) != (booked in flipped)) != column:
                flipped ^= {booked}
            # the defect mate: the unmarked cross right of j where the two
            # wires of the new cross meet again, up-marked crosses swapping
            # nothing.  Their heights are followed rightwards from column j;
            # a cross at h swaps heights h and h + 1.
            ha, hb = k, k + 1
            hits = []
            for p in range(j + 1, n + 1):
                if p in up:
                    continue
                h = slots[p - 1]
                if ha == h and hb == h + 1:
                    hits.append(p)
                ha = 2 * h + 1 - ha if h <= ha <= h + 1 else ha
                hb = 2 * h + 1 - hb if h <= hb <= h + 1 else hb
            if len(hits) != 1:
                raise InvariantError(f"expected one defect mate for {j}, found {hits}")
            marks[hits[0] - 1] = UP
            up.add(hits[0])
        if trace is not None:
            trace.append(_pieri_line(f"raised {j} to {'oo' if k is None else k}", slots,
                                     marks, down, i, column, flipped, j))
        if up:
            nxt = min(up)
            if validate and nxt <= j:
                raise InvariantError("up marks are consumed left to right")
            _carry_right(slots, labels, lo, j, nxt)
            j = nxt
    if any(slots[p - 1] != INF for p in down):
        raise InvariantError("pending finite crosses survived the unwinding")
    result = MarkedWord(tuple(slots), tuple(marks))
    if validate and not perms.is_reduced(result.word_and_positions()[0]):
        raise InvariantError("the extraction must give a reduced word")
    return result


# ---------------------------------------------------------------------------
# rightmost subwords and the product-rule relations


def rightmost_subword(ambient: Sequence, p: Permutation) -> tuple[int, ...]:
    """Positions of the greedy right-to-left embedding of a reduced word for
    p; entries of the ambient that are None (or INF) are unusable.

    >>> rightmost_subword((3, 2, 1, 3, 2, 3), perms.parse_permutation("[1432]"))
    (4, 5, 6)
    """
    usable = [(pos, int(a)) for pos, a in enumerate(ambient, start=1)
              if a is not None and a != INF]
    lo = min([p.lo] + [a for _, a in usable])
    hi = max([p.lo + len(p.window) - 1] + [a + 1 for _, a in usable])
    # images[x - lo] = remaining(x), remaining being p times the simple
    # transpositions of the letters chosen so far
    images = list(p.one_line(lo, hi))
    chosen: list[int] = []
    for pos, a in reversed(usable):
        a -= lo
        left, right = images[a], images[a + 1]
        if left > right:
            images[a], images[a + 1] = right, left
            chosen.append(pos)
    if images != list(range(lo, hi + 1)):
        raise ValueError("ambient word does not contain the permutation")
    return tuple(reversed(chosen))


def monk_covers(p: Permutation, i: int) -> tuple[tuple[int, int], ...]:
    """All transpositions t(a,b) with a <= i < b taking p up by one in
    Bruhat order; the summands of the Monk product with the i-th simple
    class.
    """
    if p.support is None:
        los, his = i, i + 1
    else:
        los = min(p.support[0] - 1, i)
        his = max(p.support[1] + 1, i + 1)
    out = []
    for a in range(los, i + 1):
        for b in range(i + 1, his + 1):
            if perms.bruhat_cover(p, a, b):
                out.append((a, b))
    return tuple(out)


def monk_rhs(p: Permutation, i: int) -> tuple[Permutation, ...]:
    return tuple(p * Permutation.transposition(a, b) for a, b in monk_covers(p, i))


def cycle_factor(i: int, k: int, variant: str = "c") -> Permutation:
    """The cycle whose Schubert class drives the Pieri rule: the product of
    s_{i-k+1} ... s_i (column) or s_{i+k-1} ... s_i (row).
    """
    if variant == "c":
        letters = range(i - k + 1, i + 1)
    elif variant == "r":
        letters = range(i + k - 1, i - 1, -1)
    else:
        raise ValueError("variant must be 'c' or 'r'")
    return perms.prod_word(tuple(letters))


def pieri_targets(p: Permutation, i: int, k: int, variant: str = "c") -> frozenset[Permutation]:
    """All endpoints of k-step chains of Monk covers t(a_1,b_1)..t(a_k,b_k)
    with every a_j <= i < b_j, lengths increasing by one each step, and the
    a_j (column variant) or b_j (row variant) pairwise distinct.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    out: set[Permutation] = set()

    def walk(current: Permutation, depth: int, used: frozenset[int]) -> None:
        if depth == k:
            out.add(current)
            return
        for (a, b) in monk_covers(current, i):
            key = a if variant == "c" else b
            if key in used:
                continue
            walk(current * Permutation.transposition(a, b), depth + 1, used | {key})

    walk(p, 0, frozenset())
    return frozenset(out)


def pieri_relation(p: Permutation, sigma: Permutation, i: int, k: int,
                   variant: str = "c") -> bool:
    """Whether sigma appears in the (i, k) Pieri product on p."""
    if sigma.length != p.length + k:
        return False
    return sigma in pieri_targets(p, i, k, variant)
