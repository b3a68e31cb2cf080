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
labels, and the engine keeps the down- and up-marked positions as sets.

Every insertion or extraction step does one right-to-left wiring sweep,
split at the pending column j (perms.sweep_span): positions len..j+1 give
the labels of column j and the crosses right of j, which do not depend on
the letter at j; the new letter is chosen from those labels, and the same
label list goes on through positions j..1 to give the crosses left of j.
When a step must also see the crosses left of j under the old letter (a
bumped or un-bumped cross), that part runs on a copy of the column labels.

The slot value INF compares above every integer and marks a column whose
cross has not yet been placed; such slots are always down-marked.
"""
from __future__ import annotations

from collections.abc import Container, Iterable, Sequence

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
# wiring labels on slotted words


def _column_sweep(letters: Sequence, j: int, pivot: int,
                  skip: Container[int] = frozenset()) -> tuple[list, int, int, list]:
    """Sweep positions len..j+1.  Returns (labels, lo, hi, crosses): the
    labels of column j at heights lo..hi+1 (labels[h - lo]), a window
    reaching len + 2 beyond the letters and the pivot on both sides, and the
    cross list with the pairs right of j filled in.  perms.sweep_span can
    carry the same label list on through positions j..1.
    """
    finite = [a for a in letters if a != INF]
    finite.append(pivot)
    slack = len(letters) + 2
    lo, hi = min(finite) - slack, max(finite) + slack
    labels = list(range(lo, hi + 2))
    crosses: list = [None] * len(letters)
    perms.sweep_span(letters, labels, lo, crosses, len(letters), j, skip)
    return labels, lo, hi, crosses


def _second_crossing(crosses: list, j: int, candidates: Iterable[int]) -> int | None:
    """Position among the candidates where the two wires crossing at j cross
    again; None when they cross only once.  The second crossing shows the
    same label pair in the opposite order.  `crosses` is a cross-pair list
    as perms.wiring_sweep gives it.
    """
    a, b = crosses[j - 1]
    found = None
    for p in candidates:
        if p != j and crosses[p - 1] == (b, a):
            if found is not None:
                raise InvariantError(f"wires {a},{b} cross more than twice")
            found = p
    return found


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
    pending: int | None = position
    while pending is not None:
        j = pending
        labels, lo, hi, crosses = _column_sweep(letters, j, i)
        cur = letters[j - 1]
        k = None
        top = hi if cur == INF else min(int(cur) - 1, hi)
        for h in range(top, lo - 1, -1):
            if labels[h - lo] <= i < labels[h + 1 - lo]:
                k = h
                break
        if k is None:
            raise InvariantError("no available swap below the pending cross")
        letters[j - 1] = k
        if trace is not None:
            finite = [int(a) for a in letters if a != INF] + [i]
            low, high = min(finite) - 1, max(finite) + 2
            shown = perms.wiring_sweep(letters, j, heights=range(low, high + 1))[0]
            trace.append(f"placed {k} at position {j}; word = "
                         + " ".join("oo" if a == INF else str(a) for a in letters)
                         + f" ; labels(col {j}, h={low}..{high}) = {shown}")
        perms.sweep_span(letters, labels, lo, crosses, j)
        partner = _second_crossing(crosses, j, range(1, len(letters) + 1))
        if partner is not None and validate:
            if perms.defects(tuple(letters)) != tuple(sorted((partner, j))):
                raise InvariantError("defect pair mismatch")
            if partner >= j:
                raise InvariantError("bumped cross should sit further left")
        pending = partner
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
    hits = [p for p, pair in enumerate(perms.wiring_sweep(word)[1], start=1)
            if pair == (a, b)]
    if len(hits) != 1:
        raise InvariantError("a reduced word shows each inversion exactly once")
    j = hits[0]
    letters: list = list(word)
    while letters[j - 1] != INF:
        labels, lo, hi, crosses = _column_sweep(letters, j, i)
        cur = int(letters[j - 1])
        k: int | float = INF
        for h in range(cur + 1, hi + 1):
            if labels[h + 1 - lo] <= i < labels[h - lo]:
                k = h
                break
        letters[j - 1] = k
        if k != INF:
            perms.sweep_span(letters, labels, lo, crosses, j)
            partner = _second_crossing(crosses, j, range(1, len(letters) + 1))
            if partner is None:
                raise InvariantError("raised cross must recreate a crossing")
            if validate and partner <= j:
                raise InvariantError("defects move right while unwinding")
            j = partner
    position = j
    out = tuple(int(a) for p, a in enumerate(letters, start=1) if p != position)
    if validate and not (perms.is_reduced(out) and perms.prod_word(out) == source):
        raise InvariantError("the extraction must give a reduced word for the source")
    return out, position


# ---------------------------------------------------------------------------
# bookkeeping set for the Pieri insertion


class _CofiniteSet:
    """All integers on one side of a pivot (above it, or at most it), XOR a
    finite set of flipped integers."""

    __slots__ = ("pivot", "above", "flipped")

    def __init__(self, pivot: int, above: bool):
        self.pivot = pivot
        self.above = above
        self.flipped: set[int] = set()

    def __contains__(self, x: int) -> bool:
        return ((x > self.pivot) == self.above) != (x in self.flipped)

    def add(self, x: int) -> None:
        if x not in self:
            self.flipped ^= {x}

    def remove(self, x: int) -> None:
        if x not in self:
            raise InvariantError(f"removing {x} from a set not holding it")
        self.flipped ^= {x}

    def describe(self) -> str:
        out = f"{{k > {self.pivot}}}" if self.above else f"{{k <= {self.pivot}}}"
        plus = sorted(x for x in self.flipped if x in self)
        minus = sorted(x for x in self.flipped if x not in self)
        if plus:
            out += f" + {plus}"
        if minus:
            out += f" - {minus}"
        return out


# ---------------------------------------------------------------------------
# Pieri insertion


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
    engine = _PieriEngine(i, variant, list(marked.slots), list(marked.marks),
                          validate=validate, trace=trace)
    return engine.run_forward()


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
    chosen = rightmost_subword(word, source)
    marks: list = [None if p in chosen else UP for p in range(1, len(word) + 1)]
    engine = _PieriEngine(i, variant, list(word), marks,
                          validate=validate, trace=trace)
    return engine.run_backward()


class _PieriEngine:
    def __init__(self, i: int, variant: str, slots: list, marks: list,
                 validate: bool = False, trace: list[str] | None = None):
        if variant not in ("c", "r"):
            raise ValueError("variant must be 'c' (column) or 'r' (row)")
        self.i = i
        self.slots = slots
        self.marks = marks
        self.down = {p for p, m in enumerate(marks, start=1) if m == DOWN}
        self.up = {p for p, m in enumerate(marks, start=1) if m == UP}
        self.validate = validate
        self.trace = trace
        # column variant books "big" labels, consumed via lower labels;
        # row variant books "small" labels, consumed via upper labels.  So a
        # cross swapping (lower, upper) may be inserted when only the upper
        # label is booked (column) or only the lower (row); extracted when
        # the reverse holds.
        self.column_variant = variant == "c"
        self.book = _CofiniteSet(i, above=self.column_variant)
        if validate:
            self.source = perms.prod_word(self._unmarked_letters())
            self._claims: dict[int, int] = {}

    # -- marks and visibility

    def _mark(self, p: int, mark) -> None:
        self.marks[p - 1] = mark
        self.down.discard(p)
        self.up.discard(p)
        if mark is not None:
            (self.down if mark == DOWN else self.up).add(p)

    def _unmarked_letters(self) -> Word:
        return tuple(int(a) for a, m in zip(self.slots, self.marks)
                     if m is None and a != INF)

    def _crosses(self) -> list:
        """The label pair of every cross, pending (down-marked) crosses
        swapping nothing; index position - 1."""
        return perms.wiring_sweep(self.slots, skip=self.down)[1]

    def _snapshot(self, note: str, column: int | None = None) -> None:
        if self.trace is None:
            return
        line = (f"{note}: {MarkedWord(tuple(self.slots), tuple(self.marks))}"
                f" ; book = {self.book.describe()}")
        if column is not None:
            finite = [int(a) for a in self.slots if a != INF] + [self.i]
            lo, hi = min(finite) - 1, max(finite) + 2
            labels = perms.wiring_sweep(self.slots, column, self.down, range(lo, hi + 1))[0]
            line += f" ; labels(col {column}, h={lo}..{hi}) = {labels}"
        self.trace.append(line)

    # -- forward run

    def run_forward(self) -> Word:
        self._snapshot("start")
        guard = 0
        while self.down:
            guard += 1
            if guard > 100 * len(self.slots) + 1000:
                raise InvariantError("insertion loop failed to terminate")
            j = max(self.down)
            self._step_forward(j)
            if self.validate:
                if self.down and max(self.down) >= j:
                    raise InvariantError("pending marks must move left")
                self._check_unmarked_subword()
        result = tuple(int(a) for a in self.slots)
        if self.validate and not perms.is_reduced(result):
            raise InvariantError("the insertion must give a reduced word")
        return result

    def _step_forward(self, j: int) -> None:
        cur = self.slots[j - 1]
        labels, lo, hi, crosses = _column_sweep(self.slots, j, self.i, self.down)
        if cur != INF:
            # the pending cross was bumped: release the label it was holding
            perms.sweep_span(self.slots, labels.copy(), lo, crosses, j, 0, self.down)
            lower, upper = crosses[j - 1]
            held = upper if self.column_variant else lower
            if self.validate and self._claims.pop(j) != held:
                raise InvariantError("the released label must be the one booked at bump time")
            self.book.remove(held)
            self._release_partner_mark(crosses, j, held)
        top = hi if cur == INF else min(int(cur) - 1, hi)
        k = None
        upper_in = labels[top + 1 - lo] in self.book
        for h in range(top, lo - 1, -1):
            lower_in = labels[h - lo] in self.book
            if upper_in is self.column_variant and lower_in is not self.column_variant:
                k = h
                break
            upper_in = lower_in
        if k is None:
            raise InvariantError("no available swap below the pending cross")
        self.slots[j - 1] = k
        self._mark(j, UP)
        perms.sweep_span(self.slots, labels, lo, crosses, j, 0, self.down)
        lower, upper = crosses[j - 1]
        if self.validate and not lower < upper:
            raise InvariantError("insertions never create a defect on their right")
        booked = lower if self.column_variant else upper
        self.book.add(booked)
        partner = _second_crossing(crosses, j,
                                   [p for p in range(1, j) if p not in self.down])
        if partner is not None:
            if self.validate:
                if self.marks[partner - 1] is not None:
                    raise InvariantError("only plain crosses get bumped")
                self._claims[partner] = booked
            self._mark(partner, DOWN)
        self._snapshot(f"placed {k} at {j}", column=j)

    def _release_partner_mark(self, crosses: list, j: int, held: int) -> None:
        """Drop the up mark from the cross that had claimed the held label."""
        side = 0 if self.column_variant else 1
        hits = [p for p in sorted(self.up) if crosses[p - 1][side] == held]
        if len(hits) != 1:
            raise InvariantError(f"label {held} should be claimed exactly once, found {hits}")
        if self.validate and hits[0] <= j:
            raise InvariantError("the claiming cross sits to the right")
        self._mark(hits[0], None)

    def _check_unmarked_subword(self) -> None:
        """The unmarked subword, after cancelling each pending mark against
        the up-marked cross claiming its held label, is the rightmost subword
        for the original permutation inside the visible (non-pending) word.
        """
        crosses = self._crosses()
        virtual = {p for p, m in enumerate(self.marks, start=1) if m is None}
        ups = sorted(self.up)
        for j in self.down:
            if self.slots[j - 1] == INF:
                continue
            lower, upper = crosses[j - 1]
            held = upper if self.column_variant else lower
            for p in ups:
                lo_p, up_p = crosses[p - 1]
                probe = lo_p if self.column_variant else up_p
                if probe == held:
                    virtual.add(p)
                    break
        visible = tuple(None if (p in self.down or a == INF) else a
                        for p, a in enumerate(self.slots, start=1))
        expected = rightmost_subword(visible, self.source)
        if frozenset(virtual) != frozenset(expected):
            raise InvariantError(f"unmarked subword {sorted(virtual)} "
                                 f"!= rightmost subword {sorted(expected)}")

    # -- backward run

    def run_backward(self) -> MarkedWord:
        side = 0 if self.column_variant else 1
        crosses = self._crosses()
        for p in self.up:
            self.book.add(crosses[p - 1][side])
        self._snapshot("start")
        guard = 0
        while self.up:
            guard += 1
            if guard > 100 * len(self.slots) + 1000:
                raise InvariantError("extraction loop failed to terminate")
            j = min(self.up)
            self._step_backward(j)
            if self.validate and self.up and min(self.up) <= j:
                raise InvariantError("up marks are consumed left to right")
        if any(self.slots[p - 1] != INF for p in self.down):
            raise InvariantError("pending finite crosses survived the unwinding")
        result = MarkedWord(tuple(self.slots), tuple(self.marks))
        if self.validate and not perms.is_reduced(result.word_and_positions()[0]):
            raise InvariantError("the extraction must give a reduced word")
        return result

    def _step_backward(self, j: int) -> None:
        column, lo, hi, crosses = _column_sweep(self.slots, j, self.i, self.down)
        perms.sweep_span(self.slots, column.copy(), lo, crosses, j, 0, self.down)
        lower, upper = crosses[j - 1]
        # if the cross at j had bumped another one down, un-bump it first
        partner = None
        for p in self.down:
            if p >= j or self.slots[p - 1] == INF:
                continue
            if crosses[p - 1] == (upper, lower):
                if partner is not None:
                    raise InvariantError("two pending crosses claim the same wires")
                partner = p
        if partner is not None:
            self._mark(partner, None)
        self.book.remove(lower if self.column_variant else upper)
        cur = int(self.slots[j - 1])
        k: int | float = INF
        lower_in = column[cur + 1 - lo] in self.book
        for h in range(cur + 1, hi + 1):
            upper_in = column[h + 1 - lo] in self.book
            if lower_in is self.column_variant and upper_in is not self.column_variant:
                k = h
                break
            lower_in = upper_in
        self.slots[j - 1] = k
        self._mark(j, DOWN)
        if k != INF:
            # the new cross at j swaps the labels of column j at heights k, k+1
            lower, upper = column[k - lo], column[k + 1 - lo]
            self.book.add(upper if self.column_variant else lower)
            mate = self._defect_mate_in_unmarked(j)
            self._mark(mate, UP)
        self._snapshot(f"raised {j} to {'oo' if k == INF else k}", column=j)

    def _defect_mate_in_unmarked(self, j: int) -> int:
        """The unmarked position whose cross pairs with j inside the subword
        of unmarked letters plus j itself.  The pairing cross sits to the
        right of j: pending marks are created leftwards, so they unwind
        rightwards (the Monk extraction's "rightmost defect")."""
        skip = (self.down | self.up) - {j}
        crosses = perms.wiring_sweep(self.slots, skip=skip)[1]
        a, b = crosses[j - 1]
        hits = [p for p in range(j + 1, len(self.slots) + 1)
                if p not in skip and crosses[p - 1] == (b, a)]
        if len(hits) != 1:
            raise InvariantError(f"expected one defect mate for {j}, found {hits}")
        return hits[0]


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
