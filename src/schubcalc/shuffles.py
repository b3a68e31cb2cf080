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
two product rules.  It is kept as one flag per label of the run's window,
high or low, the column variant booking the high labels and the row variant
the low; a run keeps the flags and the marks as local state.

Each run makes one label window and one sweep from the right to column 0,
which checks the input.  An insertion run keeps the labels of its first
pending column j on the way; a step picks the new letter at j from them
and sweeps on leftwards for the cross it bumps, keeping the labels of the
next pending column (Monk's stops at the bump).  An extraction run carries
the labels rightwards to its first up mark; a step reads the old cross off
the column, un-bumps by sweeping a copy down to the lowest pending cross,
follows the raised cross's wires rightwards to its defect mate, and carries
the column labels rightwards to the next up mark.

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

    def word_and_positions(self) -> tuple[Word, tuple[int, ...]]:
        """Finite letters in order, plus the 1-based INF positions."""
        word, positions = [], []
        for p, a in enumerate(self.slots, start=1):
            if a == INF:
                positions.append(p)
            else:
                word.append(int(a))
        return tuple(word), tuple(positions)

    def __str__(self) -> str:
        suffix = {None: "", DOWN: "v", UP: "^"}
        return " ".join(("oo" if a == INF else str(int(a))) + suffix[m]
                        for a, m in zip(self.slots, self.marks))


def insert_slots(word: Sequence[int], positions: Sequence[int]) -> MarkedWord:
    """Pad a word with down-marked INF slots at the given 1-based positions
    of the padded word.
    """
    slots, marks = _padded(word, positions)
    return MarkedWord._trusted(tuple(slots), tuple(marks))


def _padded(word: Sequence[int], positions: Sequence[int]) -> tuple[list, list]:
    """The slots and marks of insert_slots, as lists.  Its checks are those
    of insert_slots: the positions first, then the one that MarkedWord makes
    of unmarked slots, that no letter is INF."""
    total = len(word) + len(positions)
    wanted = sorted(positions)
    if wanted != list(positions) or len(set(wanted)) != len(wanted):
        raise ValueError("positions must be strictly increasing")
    if wanted and (wanted[0] < 1 or wanted[-1] > total):
        raise ValueError("positions out of range")
    if INF in word:
        raise ValueError("INF slots must carry the down mark")
    slots, marks = list(word), [None] * len(word)
    for p in wanted:
        slots.insert(p - 1, INF)
        marks.insert(p - 1, DOWN)
    return slots, marks


# ---------------------------------------------------------------------------
# label windows and searches


def _window(word: Word, size: int, i: int) -> tuple[int, int, list[int], list[bool]]:
    """(lo, top, labels, high): the identity labels of heights lo..hi + 1,
    the window reaching size + 2 beyond the letters of the word and the
    pivot i on both sides, size being the number of slots, and the flags
    high[x - lo] of its labels x, set when x > i.  A run moves each letter
    one way only, and ends within k of the input letters and i, so one
    window, and its flags, serve every step of the run.

    Above top, one more than the highest letter and i, the labels are the
    identity and high, so no search stops there: a falling cross starts
    at top, and a rising one gives up past it.  An insertion keeps top above
    every letter it places, and so above every label it books; as top grows
    by at most one a step, and a run takes at most size steps, it stays
    below hi.  An extraction never moves top: _rise returns at most top, and
    a cross at top would need (high, low) labels at heights (top, top + 1),
    but the label at top + 1 is top + 1, above i and always high."""
    finite = (*word, i)
    top = max(finite) + 1
    lo = min(finite) - size - 2
    return (lo, top, list(range(lo, top + size + 3)),
            [False] * (i + 1 - lo) + [True] * (top + size + 2 - i))


def _fall(labels: list[int], lo: int, top: int, high: list[bool]) -> int:
    """The highest height h <= top whose labels read (low, high).  The Monk
    swap takes a wire labelled <= i over one labelled > i; the Pieri swap of
    either variant reads the same with the book kept in the flags."""
    above = high[labels[top + 1 - lo] - lo]
    for t in range(top - lo, -1, -1):
        below = high[labels[t] - lo]
        if above and not below:
            if not t:
                raise InvariantError(f"letter {lo} reached the edge of the label window")
            return t + lo
        above = below
    raise InvariantError("no available swap below the pending cross")


def _rise(labels: list[int], lo: int, bottom: int, top: int, high: list[bool]) -> int | None:
    """The lowest height h in bottom..top whose labels read (high, low), as
    in _fall; None when there is none (the cross rises to INF)."""
    below = high[labels[bottom - lo] - lo]
    for t in range(bottom + 1 - lo, top + 2 - lo):
        above = high[labels[t] - lo]
        if below and not above:
            return t - 1 + lo
        below = above
    return None


def _carry_right(letters: Sequence, labels: list[int], lo: int, start: int, stop: int,
                 pair: tuple[int, int] | None = None) -> int:
    """Turn the labels of column `start` into those of column `stop` >= start,
    every cross in between swapping, and return stop; or, given the pair of
    labels at heights (h, h + 1), stop at the first cross at h swapping that
    pair and return its position, 0 when no cross does."""
    below, above = pair or (None, None)
    for p in range(start + 1, stop + 1):
        a = letters[p - 1] - lo
        x, y = labels[a], labels[a + 1]
        labels[a], labels[a + 1] = y, x
        if x == below and y == above:
            return p
    return 0 if pair else stop


def _column_labels(word: Word, labels: list[int], lo: int, column: int) -> list[int] | None:
    """Carry the identity labels of the right end of a word down to column 0
    and return those of `column`: a copy taken on the way, or the list itself
    at column 0.  Return None when a cross finds its labels out of order; as
    each cross that finds them in order adds one inversion, that happens when
    the word is not reduced.  An INF slot swaps nothing, so a run passes its
    finite letters, the column moved left by the INF slots left of it."""
    kept = labels
    for p in range(len(word), 0, -1):
        if p == column:
            kept = labels.copy()
        a = word[p - 1] - lo
        x, y = labels[a], labels[a + 1]
        if x > y:
            return None
        labels[a], labels[a + 1] = y, x
    return kept


def _label_note(slots: list, column: int, i: int, skip: Container[int] = frozenset()) -> str:
    """The note of a column's labels, at heights min - 1 .. max + 2 of the letters and i."""
    finite = [int(a) for a in slots if a != INF] + [i]
    lo, hi = min(finite) - 1, max(finite) + 2
    labels = perms.wiring_sweep(slots, column, skip, range(lo, hi + 1))[0]
    return f" ; labels(col {column}, h={lo}..{hi}) = {labels}"


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
    if not 1 <= position <= len(word) + 1:
        # a word that is not reduced says so before its bad position
        if not perms.is_reduced(word):
            raise ValueError("monk insertion starts from a reduced word")
        raise ValueError("insertion position out of range")
    letters: list = list(word[:position - 1]) + [INF] + list(word[position - 1:])
    lo, top, labels, high = _window(word, len(letters), i)
    labels = _column_labels(word, labels, lo, position - 1)
    if labels is None:
        raise ValueError("monk insertion starts from a reduced word")
    j = position
    while j:
        cur = letters[j - 1]
        k = _fall(labels, lo, top if cur == INF else cur - 1, high)
        letters[j - 1] = k
        if k >= top:
            top = k + 1
        if trace is not None:
            trace.append(f"placed {k} at position {j}; word = "
                         + " ".join("oo" if a == INF else str(a) for a in letters)
                         + _label_note(letters, j, i))
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
        # both words are reduced, so their lengths are those of their permutations
        if len(result) != len(word) + 1:
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
    letters: list = list(word)
    lo, top, labels, high = _window(word, len(word), i)
    labels = _column_labels(word, labels, lo, 0)
    if labels is None:
        raise ValueError("expected a reduced word")
    # word = sigma = source * t(a, b): a and b are the points the two move
    # differently.  Column 0 holds sigma^-1, so x is moved when
    # sigma^-1(source(x)) != x; inv lists sigma^-1 on start..end
    start = min(min(word, default=i), source.lo)
    end = max(max(word, default=i) + 1, source.lo + len(source.window) - 1)
    inv = [*range(start, lo), *labels[max(start - lo, 0):end + 1 - lo],
           *range(lo + len(labels), end + 1)]
    moved = [x for x, y in zip(range(start, end + 1), source.one_line(start, end))
             if inv[y - start] != x]
    if len(moved) != 2:
        raise ValueError("word is not obtained from the source by one transposition")
    a, b = moved
    if not (a <= i < b):
        raise ValueError(f"transposition ({a},{b}) does not straddle {i}")
    if len(word) != source.length + 1:
        raise ValueError("length must go up by exactly one")
    # carry the labels rightwards to the column of the cross (a, b): two
    # wires of a reduced word meet at most once, so the first meeting is it
    j = _carry_right(letters, labels, lo, 0, len(letters), (b, a))
    if not j:
        raise InvariantError("a reduced word shows each inversion exactly once")
    while True:
        k = _rise(labels, lo, int(letters[j - 1]) + 1, top, high)
        if k is None:
            letters[j - 1] = INF
            break
        letters[j - 1] = k
        # the word without j is reduced, so the new cross meets its wires
        # again only to the right; carrying the labels rightwards finds it
        # and leaves those of its column
        p = _carry_right(letters, labels, lo, j, len(letters),
                         (labels[k - lo], labels[k + 1 - lo]))
        if not p:
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
# The book is kept in the window's flags: x is booked when high[x - lo] ==
# column, the column variant booking the high labels and the row variant the
# low.  Booking x sets its flag to column; releasing it, to not column.


def _is_column(variant: str) -> bool:
    """Whether a Pieri variant is the column one, "c", rather than the row
    one, "r"; any other variant is a ValueError."""
    if variant not in ("c", "r"):
        raise ValueError("variant must be 'c' (column) or 'r' (row)")
    return variant == "c"


def _pieri_column(variant: str, k: int) -> bool:
    """_is_column for a Pieri product by the class of a k-cycle, k at least 1."""
    column = _is_column(variant)
    if k < 1:
        raise ValueError("need k >= 1")
    return column


def _pieri_line(note: str, slots: list, marks: list, down: set[int], i: int,
                column: bool, high: list[bool], lo: int, at: int | None = None) -> str:
    """A trace line: the marked word, the book, written as its base side plus
    and minus the labels flipped off it, and the labels of column `at`."""
    line = f"{note}: {MarkedWord(tuple(slots), tuple(marks))} ; book = "
    line += f"{{k > {i}}}" if column else f"{{k <= {i}}}"
    flipped = [x for x, h in enumerate(high, lo) if h != (x > i)]
    plus = [x for x in flipped if (x > i) != column]
    minus = [x for x in flipped if (x > i) == column]
    line += (f" + {plus}" if plus else "") + (f" - {minus}" if minus else "")
    return line if at is None else line + _label_note(slots, at, i, down)


def pieri_shuffle(i: int, word: Sequence[int] | MarkedWord,
                  positions: Sequence[int] | None = None, variant: str = "c",
                  validate: bool = False, trace: list[str] | None = None) -> Word:
    """Insert k copies of the letter value i at the marked positions and
    rectify; the result is a reduced word for a permutation reachable from
    the input word's permutation by the column (variant "c") or row
    (variant "r") Pieri relation with parameters (i, k).
    """
    if isinstance(word, MarkedWord):
        if any(a != INF and m is not None for a, m in zip(word.slots, word.marks)):
            raise ValueError("only INF slots may be marked on input")
        word, positions = word.word_and_positions()
    positions = positions or ()
    slots, marks = _padded(word, positions)
    base_word = tuple(word)
    down = set(positions)
    j = max(down, default=0)
    lo, top, labels, high = _window(base_word, len(slots), i)
    labels = _column_labels(base_word, labels, lo, j - len(down))
    if labels is None:
        raise ValueError("the unmarked content must be a reduced word")
    # the column variant books "big" labels, consumed via lower labels; the
    # row variant "small" labels, consumed via upper labels.  So a cross
    # swapping (lower, upper) is inserted when only the upper label is
    # booked (column) or only the lower (row), and extracted in reverse.
    column = _is_column(variant)
    up = set()
    booked_at: dict[int, int] = {}  # up position -> the label it booked
    claims: dict[int, int] = {}  # bumped position -> the label it holds
    # the source's images over the window, for the check of each step
    images = (list(perms.prod_word(base_word).one_line(lo, lo + len(labels) - 1))
              if validate else None)
    if trace is not None:
        trace.append(_pieri_line("start", slots, marks, down, i, column, high, lo))
    while down:
        # labels: those of column j, where the next pending cross sits
        cur = slots[j - 1]
        if cur != INF:
            # the pending cross was bumped: release the label it was holding
            lower, upper = labels[cur - lo], labels[cur + 1 - lo]
            held = upper if column else lower
            if validate and claims.pop(j) != held:
                raise InvariantError("the released label must be the one booked at bump time")
            if high[held - lo] != column:
                raise InvariantError(f"removing {held} from a set not holding it")
            high[held - lo] = not column
            hits = [p for p in sorted(up) if booked_at[p] == held]
            if len(hits) != 1:
                raise InvariantError(f"label {held} should be claimed exactly once, found {hits}")
            if validate and hits[0] <= j:
                raise InvariantError("the claiming cross sits to the right")
            marks[hits[0] - 1] = None
            up.remove(hits[0])
        k = _fall(labels, lo, top if cur == INF else cur - 1, high)
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
        high[booked - lo] = column
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
                                     column, high, lo, j))
        if validate:
            if down and max(down) >= j:
                raise InvariantError("pending marks must move left")
            _check_unmarked_subword(slots, marks, down, up, column, lo, images)
        if nxt:
            j, labels = nxt, kept
    result = tuple(int(a) for a in slots)
    if validate and not perms.is_reduced(result):
        raise InvariantError("the insertion must give a reduced word")
    return result


def _check_unmarked_subword(slots: list, marks: list, down: set[int], up: set[int],
                            column: bool, lo: int, images: list[int]) -> None:
    """The unmarked subword, after cancelling each pending mark against the
    up-marked cross claiming its held label, is the rightmost subword for the
    source in the visible (non-pending) word: one pass from the right, on
    fresh labels and a copy of the source's images over the window from lo."""
    labels, images = list(range(lo, lo + len(images))), images.copy()
    unmarked = {p for p, m in enumerate(marks, start=1) if m is None}
    chosen, held, claimer = set(), [], {}  # claimer: label -> leftmost up booking it
    for p in range(len(slots), 0, -1):
        a = slots[p - 1]
        if a == INF:
            continue
        h = a - lo
        x, y = labels[h], labels[h + 1]
        if p in up:
            claimer[x if column else y] = p
        if p in down:
            held.append(y if column else x)
            continue
        labels[h], labels[h + 1] = y, x
        if images[h] > images[h + 1]:
            images[h], images[h + 1] = images[h + 1], images[h]
            chosen.add(p)
    if images != sorted(images):
        raise ValueError("ambient word does not contain the permutation")
    unmarked.update(claimer[x] for x in held if x in claimer)
    if unmarked != chosen:
        raise InvariantError(f"unmarked subword {sorted(unmarked)} "
                             f"!= rightmost subword {sorted(chosen)}")


def pieri_unshuffle(i: int, word: Sequence[int], source: Permutation,
                    variant: str = "c", validate: bool = False,
                    trace: list[str] | None = None) -> MarkedWord:
    """Inverse of pieri_shuffle: peel the inserted crosses back out of a
    reduced word, leaving INF slots at the insertion positions.  The source
    must be a Pieri predecessor of the word's permutation; the run's first
    sweep embeds its rightmost subword, which seeds the marking.

    That is not checked here.  The same sweep raises ValueError for a word
    that is not reduced or does not contain the source, but any other source
    that is not a Pieri predecessor can raise InvariantError or return a
    MarkedWord that pieri_shuffle does not map back to the word.  Callers
    that cannot vouch for the pair check pieri_relation first, as the CLI does.
    """
    word = tuple(word)
    slots, n = list(word), len(word)
    lo, top, labels, high = _window(word, n, i)
    # one sweep to column 0 checks the label order as _column_labels does
    # and embeds the source greedily from the right, its rightmost subword,
    # on its images over the label window; the crosses left out are
    # up-marked, and the book reads their label pairs
    images = list(source.one_line(lo, lo + len(labels) - 1))
    marks: list = [None] * n
    pairs: dict[int, tuple[int, int]] = {}
    for p in range(n, 0, -1):
        h = slots[p - 1] - lo
        x, y = labels[h], labels[h + 1]
        if x > y:
            raise ValueError("expected a reduced word")
        labels[h], labels[h + 1] = y, x
        left, right = images[h], images[h + 1]
        if left > right:
            images[h], images[h + 1] = right, left
        else:
            marks[p - 1] = UP
            pairs[p] = (x, y)
    # the walk stays in the window: it empties the source when the images
    # end sorted and the source's support lies in the window
    if images != sorted(images) or source.window and not (
            lo <= source.lo and source.lo + len(source.window) <= lo + len(labels)):
        raise ValueError("ambient word does not contain the permutation")
    column = _is_column(variant)
    up, down = set(pairs), set()
    for pair in pairs.values():
        high[pair[0 if column else 1] - lo] = column
    if up:
        # up marks are consumed left to right, leaving down marks behind
        j = min(up)
        _carry_right(slots, labels, lo, 0, j)
    if trace is not None:
        trace.append(_pieri_line("start", slots, marks, down, i, column, high, lo))
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
        if high[held - lo] != column:
            raise InvariantError(f"removing {held} from a set not holding it")
        high[held - lo] = not column
        k = _rise(labels, lo, cur + 1, top, high)
        marks[j - 1] = DOWN
        up.remove(j)
        down.add(j)
        if k is None:
            slots[j - 1] = INF
        else:
            slots[j - 1] = k
            booked = labels[k + 1 - lo] if column else labels[k - lo]
            high[booked - lo] = column
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
                                     marks, down, i, column, high, lo, j))
        if up:
            nxt = min(up)
            if validate and nxt <= j:
                raise InvariantError("up marks are consumed left to right")
            _carry_right(slots, labels, lo, j, nxt)
            j = nxt
    if any(slots[p - 1] != INF for p in down):
        raise InvariantError("pending finite crosses survived the unwinding")
    # every INF slot was made by the run, down-marked
    result = MarkedWord._trusted(tuple(slots), tuple(marks))
    if validate and not perms.is_reduced(result.word_and_positions()[0]):
        raise InvariantError("the extraction must give a reduced word")
    return result


# ---------------------------------------------------------------------------
# the product-rule relations


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
    letters = range(i - k + 1, i + 1) if _pieri_column(variant, k) else range(i + k - 1, i - 1, -1)
    return perms.prod_word(tuple(letters))


def pieri_targets(p: Permutation, i: int, k: int, variant: str = "c") -> frozenset[Permutation]:
    """All endpoints of k-step chains of Monk covers t(a_1,b_1)..t(a_k,b_k)
    with every a_j <= i < b_j, lengths increasing by one each step, and the
    a_j (column variant) or b_j (row variant) pairwise distinct.
    """
    column = _pieri_column(variant, k)
    out: set[Permutation] = set()

    def walk(current: Permutation, depth: int, used: frozenset[int]) -> None:
        if depth == k:
            out.add(current)
            return
        for (a, b) in monk_covers(current, i):
            key = a if column else b
            if key in used:
                continue
            walk(current * Permutation.transposition(a, b), depth + 1, used | {key})

    walk(p, 0, frozenset())
    return frozenset(out)


def pieri_relation(p: Permutation, sigma: Permutation, i: int, k: int,
                   variant: str = "c") -> bool:
    """Whether sigma appears in the (i, k) Pieri product on p."""
    _pieri_column(variant, k)  # a bad variant or k raises also where the lengths answer
    if sigma.length != p.length + k:
        return False
    return sigma in pieri_targets(p, i, k, variant)
