import ast
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schubcalc import perms, shuffles
from schubcalc.perms import (
    Permutation,
    parse_permutation,
    parse_word,
    prod_word,
    reduced_words,
    symmetric_group,
)
from schubcalc.shuffles import (
    DOWN,
    INF,
    UP,
    MarkedWord,
    cycle_factor,
    insert_slots,
    monk_covers,
    monk_rhs,
    monk_shuffle,
    monk_unshuffle,
    pieri_relation,
    pieri_shuffle,
    pieri_targets,
    pieri_unshuffle,
)

from oracles import (
    check_unmarked_subword_by_two_sweeps,
    prod_word_by_simples,
    random_words,
    rightmost_subword,
    rightmost_subword_by_right_mul,
)


# -- Monk insertion ----------------------------------------------------------


def test_monk_small_examples():
    assert monk_shuffle(7, (), 1) == (7,)
    assert monk_shuffle(-2, (), 1) == (-2,)


def test_monk_unshuffle_examples():
    assert monk_unshuffle(4, (4,), Permutation.identity()) == ((), 1)


def test_monk_unshuffle_rejects_non_covers():
    with pytest.raises(ValueError):
        monk_unshuffle(1, (1, 2, 1), Permutation.identity())  # length jump 3
    with pytest.raises(ValueError):
        monk_unshuffle(3, (1,), Permutation.identity())  # t(1,2) misses 3


def test_monk_bijection_s4():
    """For every starting permutation in S4 and every cutoff, insertion is a
    bijection onto the reduced words of the Monk covers, inverted by the
    extraction; counts match (len+1) * #words = sum over covers."""
    for p in symmetric_group(4):
        words = reduced_words(p)
        for i in range(0, 5):
            outputs = []
            for w in words:
                for j in range(1, len(w) + 2):
                    out = monk_shuffle(i, w, j, validate=True)
                    outputs.append(out)
                    assert monk_unshuffle(i, out, p, validate=True) == (w, j)
            pool = sorted(w for s in monk_rhs(p, i) for w in reduced_words(s))
            assert sorted(outputs) == pool
            assert (p.length + 1) * len(words) == len(pool)


def test_monk_back_stability():
    """Dropping the first letter commutes with the insertion."""
    for p in symmetric_group(3):
        for w in reduced_words(p):
            if not w:
                continue
            for i in range(0, 4):
                for j in range(2, len(w) + 2):
                    full = monk_shuffle(i, w, j)
                    tail = monk_shuffle(i, w[1:], j - 1)
                    assert full[1:] == tail


# -- Pieri insertion ---------------------------------------------------------


def test_insert_slots():
    marked = insert_slots((5, 3), (3, 4, 5))
    assert marked.slots == (5, 3, INF, INF, INF)
    assert marked.marks == (None, None, "down", "down", "down")
    assert marked.word_and_positions() == ((5, 3), (3, 4, 5))
    with pytest.raises(ValueError):
        insert_slots((1,), (2, 2))
    with pytest.raises(ValueError):
        insert_slots((1,), (5,))


def test_marked_word_validation():
    with pytest.raises(ValueError):
        MarkedWord((INF,), (None,))
    assert str(MarkedWord((INF, 2), ("down", "up"))) == "oov 2^"


def test_pieri_matches_monk_at_k_one():
    for p in symmetric_group(3):
        for w in reduced_words(p):
            for i in range(0, 4):
                for j in range(1, len(w) + 2):
                    expected = monk_shuffle(i, w, j)
                    for variant in ("c", "r"):
                        got = pieri_shuffle(i, w, (j,), variant=variant, validate=True)
                        assert got == expected, (w, i, j, variant)
                        marked = pieri_unshuffle(i, got, p, variant=variant,
                                                 validate=True)
                        assert marked.word_and_positions() == (w, (j,))


def test_pieri_worked_run():
    """Inserting the three-letter column factor into 53 at the tail."""
    source = prod_word(parse_word("53"))
    assert str(source) == "[124365]"
    trace: list[str] = []
    out = pieri_shuffle(5, parse_word("53"), (3, 4, 5), validate=True, trace=trace)
    assert len(trace) > 3
    assert prod_word(out).length == source.length + 3


def test_pieri_unshuffle_trace_text():
    """The backward trace, its label lists included, byte for byte."""
    trace: list[str] = []
    pieri_unshuffle(2, (0, 4, 2, 1, 3, 2), prod_word((2, 3, 1, 2)), variant="r",
                    validate=True, trace=trace)
    assert trace == [
        "start: 0^ 4^ 2 1 3 2 ; book = {k <= 2} + [3, 5]",
        "raised 1 to 2: 2v 4^ 2^ 1 3 2 ; book = {k <= 2} + [4, 5] ; "
        "labels(col 1, h=0..6) = [0, 3, 4, 1, 5, 2, 6]",
        "raised 2 to oo: 2v oov 2^ 1 3 2 ; book = {k <= 2} + [4] ; "
        "labels(col 2, h=0..5) = [0, 3, 4, 1, 2, 5]",
        "raised 3 to 3: 2 oov 3v 1 3^ 2 ; book = {k <= 2} + [4] ; "
        "labels(col 3, h=0..5) = [0, 3, 1, 4, 2, 5]",
        "raised 5 to oo: 2 oov 3 1 oov 2 ; book = {k <= 2} ; "
        "labels(col 5, h=0..5) = [0, 1, 3, 2, 4, 5]",
    ]


def test_pieri_unshuffle_trace_of_a_book_below_its_base():
    """A source that is not a Pieri predecessor of the word's permutation can
    release a label of the base side that was never booked, which the trace
    writes as the minus part of the book."""
    trace: list[str] = []
    out = pieri_unshuffle(1, (-1, 0, 1, 2), parse_permutation("[21]"), variant="c",
                          trace=trace)
    assert str(out) == "1 oov oov oov"
    assert trace == [
        "start: -1^ 0^ 1 2^ ; book = {k > 1} + [-1, 0]",
        "raised 1 to 1: 1v 0^ 1^ 2^ ; book = {k > 1} + [0, 1] ; "
        "labels(col 1, h=-1..4) = [-1, 3, 0, 1, 2, 4]",
        "raised 2 to oo: 1v oov 1^ 2^ ; book = {k > 1} + [1] ; "
        "labels(col 2, h=0..4) = [0, 3, 1, 2, 4]",
        "raised 3 to oo: 1 oov oov 2^ ; book = {k > 1} ; "
        "labels(col 3, h=0..4) = [0, 1, 3, 2, 4]",
        "raised 4 to oo: 1 oov oov oov ; book = {k > 1} - [2] ; "
        "labels(col 4, h=0..3) = [0, 1, 2, 3]",
    ]
    trace.clear()
    out = pieri_unshuffle(2, (4, 3, 2, 1), parse_permutation("[1]"), variant="r",
                          trace=trace)
    assert str(out) == "oov oov oov oov"
    assert trace == [
        "start: 4^ 3^ 2^ 1^ ; book = {k <= 2} + [3, 4, 5]",
        "raised 1 to oo: oov 3^ 2^ 1^ ; book = {k <= 2} + [3, 4] ; "
        "labels(col 1, h=0..5) = [0, 2, 3, 4, 1, 5]",
        "raised 2 to oo: oov oov 2^ 1^ ; book = {k <= 2} + [3] ; "
        "labels(col 2, h=0..4) = [0, 2, 3, 1, 4]",
        "raised 3 to oo: oov oov oov 1^ ; book = {k <= 2} ; "
        "labels(col 3, h=0..4) = [0, 2, 1, 3, 4]",
        "raised 4 to oo: oov oov oov oov ; book = {k <= 2} - [2] ; "
        "labels(col 4, h=1..4) = [1, 2, 3, 4]",
    ]


def _pieri_domain(words, k):
    for w in words:
        for positions in itertools.combinations(range(1, len(w) + k + 1), k):
            yield w, positions


@pytest.mark.parametrize("variant", ["c", "r"])
def test_pieri_bijection_s3(variant):
    """Insertion is a bijection onto the reduced words of the Pieri targets,
    inverted by extraction, with binomial counting."""
    for p in symmetric_group(3):
        words = reduced_words(p)
        for k in (1, 2):
            for i in range(0, 4):
                outputs = []
                for w, positions in _pieri_domain(words, k):
                    out = pieri_shuffle(i, w, positions, variant=variant,
                                        validate=True)
                    outputs.append(out)
                    marked = pieri_unshuffle(i, out, p, variant=variant,
                                             validate=True)
                    assert marked.word_and_positions() == (w, positions)
                pool = sorted(w for s in pieri_targets(p, i, k, variant)
                              for w in reduced_words(s))
                assert sorted(outputs) == pool, (str(p), i, k, variant)
                assert math.comb(p.length + k, k) * len(words) == len(pool)


def test_pieri_back_stability():
    for p in symmetric_group(3):
        for w in reduced_words(p):
            if not w:
                continue
            for i in range(1, 4):
                for positions in itertools.combinations(range(2, len(w) + 3), 2):
                    full = pieri_shuffle(i, w, positions)
                    shifted = tuple(q - 1 for q in positions)
                    tail = pieri_shuffle(i, w[1:], shifted)
                    assert full[1:] == tail


def test_pieri_output_length():
    for p in symmetric_group(3):
        for w in reduced_words(p):
            for k in (1, 2):
                for positions in itertools.combinations(range(1, len(w) + k + 1), k):
                    out = pieri_shuffle(2, w, positions, validate=True)
                    assert perms.is_reduced(out)
                    assert prod_word(out).length == p.length + k


@pytest.mark.parametrize("variant", ["c", "r"])
def test_pieri_bijection_s4_k2(variant):
    """The insertion stays a bijection at the next size up, where several
    pending crosses interact through the bookkeeping set."""
    for p in symmetric_group(4):
        words = reduced_words(p)
        for i in range(0, 5):
            outputs = []
            for w, positions in _pieri_domain(words, 2):
                out = pieri_shuffle(i, w, positions, variant=variant)
                outputs.append(out)
                marked = pieri_unshuffle(i, out, p, variant=variant)
                assert marked.word_and_positions() == (w, positions)
            pool = sorted(w for s in pieri_targets(p, i, 2, variant)
                          for w in reduced_words(s))
            assert sorted(outputs) == pool, (str(p), i, variant)
            assert math.comb(p.length + 2, 2) * len(words) == len(pool)


@pytest.mark.parametrize("variant", ["c", "r"])
def test_pieri_bijection_s3_k3_validated(variant):
    for p in symmetric_group(3):
        words = reduced_words(p)
        for i in range(0, 4):
            outputs = []
            for w, positions in _pieri_domain(words, 3):
                out = pieri_shuffle(i, w, positions, variant=variant, validate=True)
                outputs.append(out)
                marked = pieri_unshuffle(i, out, p, variant=variant, validate=True)
                assert marked.word_and_positions() == (w, positions)
            pool = sorted(w for s in pieri_targets(p, i, 3, variant)
                          for w in reduced_words(s))
            assert sorted(outputs) == pool, (str(p), i, variant)
            assert math.comb(p.length + 3, 3) * len(words) == len(pool)


def _visit_checked_states(monkeypatch, visit, group, ks, i_values):
    """Call visit(source, the check's arguments) on every state that the
    subword check sees in the validated Pieri runs on the reduced words of
    `group`, both variants; return the number of states."""
    one_pass = shuffles._check_unmarked_subword
    count = 0

    def both(*args):
        nonlocal count
        count += 1
        visit(source, args)
        one_pass(*args)

    monkeypatch.setattr(shuffles, "_check_unmarked_subword", both)
    for source in group:
        words = reduced_words(source)
        for variant, k, i in itertools.product("cr", ks, i_values):
            for w, positions in _pieri_domain(words, k):
                pieri_shuffle(i, w, positions, variant=variant, validate=True)
    monkeypatch.undo()
    return count


def _with_one_unmark_flipped(marks):
    """The marks with one unmarked cross marked up, for each unmarked cross."""
    for p, m in enumerate(marks):
        if m is None:
            yield marks[:p] + [UP] + marks[p + 1:]


def test_subword_check_matches_two_sweep_oracle(monkeypatch):
    """At every step of every validated Pieri run on the reduced words of S4,
    both variants, k = 1..3 and i = 0..4, the one-pass subword check agrees
    with the two-sweep oracle, outcome for outcome."""
    one_pass = shuffles._check_unmarked_subword

    def agree(source, args):
        slots, marks, down, up, column, lo, images = args
        expected = _repr_or_error(check_unmarked_subword_by_two_sweeps,
                                  slots, marks, down, up, column, source)
        assert _repr_or_error(one_pass, *args) == expected, args

    assert _visit_checked_states(monkeypatch, agree, symmetric_group(4), (1, 2, 3),
                                 range(0, 5)) == 162_478


def test_subword_check_rejects_a_flipped_unmark(monkeypatch):
    """A state of a validated run with one unmarked cross marked up fails the
    check, with the text of the two-sweep oracle: every such state of the
    runs on S3, both variants, k = 1..3 and i = 0..3."""
    one_pass = shuffles._check_unmarked_subword
    flipped = 0

    def fail(source, args):
        nonlocal flipped
        slots, marks, down, up, column, lo, images = args
        for state in _with_one_unmark_flipped(marks):
            got = _repr_or_error(one_pass, slots, state, down, up, column, lo, images)
            assert got.startswith("InvariantError: unmarked subword ")
            assert got == _repr_or_error(check_unmarked_subword_by_two_sweeps,
                                         slots, state, down, up, column, source)
            flipped += 1

    _visit_checked_states(monkeypatch, fail, symmetric_group(3), (1, 2, 3), range(0, 4))
    assert flipped > 1_000
    # the first step of pieri_shuffle(5, 53, 3,4,5): 5v 3 oov oov 5^, where
    # the pending 5 holds the label that the up-marked 5 books
    lo, images = 2, list(prod_word((5, 3)).one_line(2, 9))
    args = ([5, 3, INF, INF, 5], [DOWN, None, DOWN, DOWN, UP], {1, 3, 4}, {5}, True, lo)
    assert _repr_or_error(shuffles._check_unmarked_subword, *args, images) == "None"
    args[1][1] = UP
    assert (_repr_or_error(shuffles._check_unmarked_subword, *args, images)
            == "InvariantError: unmarked subword [5] != rightmost subword [2, 5]")


# -- relations ----------------------------------------------------------------


def test_cycle_factor():
    assert cycle_factor(3, 1, "c") == Permutation.simple(3)
    assert cycle_factor(3, 2, "c") == prod_word((2, 3))
    assert cycle_factor(3, 2, "r") == prod_word((4, 3))
    with pytest.raises(ValueError):
        cycle_factor(1, 1, "x")
    for k in (0, -2):
        with pytest.raises(ValueError, match="^need k >= 1$"):
            cycle_factor(3, k, "r")
    # the variant is checked first
    with pytest.raises(ValueError, match="variant"):
        cycle_factor(3, 0, "x")


def test_pieri_relation_basics():
    p = parse_permutation("[321]")
    assert not pieri_relation(p, p, 1, 1)
    for variant in ("c", "r"):
        targets_k1 = pieri_targets(p, 1, 1, variant)
        assert targets_k1 == frozenset(monk_rhs(p, 1)), variant
    # "x" is no row rule; pieri_relation says so also where the lengths answer
    sigma = next(iter(pieri_targets(p, 1, 2, "r")))
    for call in (lambda: pieri_targets(p, 1, 2, "x"), lambda: pieri_relation(p, sigma, 1, 2, "x"),
                 lambda: pieri_relation(p, p, 1, 2, "x")):
        with pytest.raises(ValueError, match="variant must be 'c' \\(column\\) or 'r' \\(row\\)"):
            call()
    # k < 1 raises whichever way the lengths fall, after the variant check
    one, two = parse_permutation("[1]"), parse_permutation("[21]")
    for k in (0, -1):
        for call in (lambda: pieri_relation(one, two, 1, k), lambda: pieri_relation(two, one, 1, k),
                     lambda: pieri_relation(p, p, 1, k, "r"), lambda: pieri_targets(p, 1, k)):
            with pytest.raises(ValueError, match="^need k >= 1$"):
                call()
        with pytest.raises(ValueError, match="variant"):
            pieri_relation(one, two, 1, k, "x")


def test_pieri_targets_have_correct_length():
    p = parse_permutation("[231]")
    for variant in ("c", "r"):
        for sigma in pieri_targets(p, 2, 2, variant):
            assert sigma.length == p.length + 2


def test_rightmost_subword():
    assert rightmost_subword(parse_word("321323"), parse_permutation("[1432]")) == (4, 5, 6)
    assert rightmost_subword((1, 1), Permutation.simple(1)) == (2,)
    word = parse_word("232")
    assert rightmost_subword(word, prod_word(word)) == (1, 2, 3)
    with pytest.raises(ValueError):
        rightmost_subword((1,), parse_permutation("[321]"))


def test_rightmost_subword_skips_unusable_slots():
    assert rightmost_subword((1, None, 1), Permutation.simple(1)) == (3,)
    assert rightmost_subword((1, INF, 1), Permutation.simple(1)) == (3,)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_rightmost_subword_matches_right_multiplication():
    """Ambients with None and INF entries, and permutations the ambient may
    or may not contain."""
    rng = random.Random(5)
    contained = 0
    for word in random_words(6, 300):
        ambient = tuple(rng.choice((None, INF)) if rng.random() < 0.2 else a for a in word)
        p = prod_word_by_simples(tuple(a for a in word if rng.random() < 0.6))
        expected = _outcome(rightmost_subword_by_right_mul, ambient, p)
        assert _outcome(rightmost_subword, ambient, p) == expected, (ambient, str(p))
        contained += isinstance(expected, tuple)
    assert 60 <= contained < 300


def test_monk_covers_window():
    assert monk_covers(Permutation.identity(), 5) == ((5, 6),)
    assert monk_covers(parse_permutation("[321]"), 1) == ((0, 2), (0, 3), (1, 4))
    assert set(monk_rhs(parse_permutation("[21]"), 1)) == {
        parse_permutation("[312]"), Permutation.from_one_line((1, 2, 0), lo=0)}
    counts = [len(reduced_words(s)) for s in monk_rhs(parse_permutation("[21]"), 1)]
    assert sorted(counts) == [1, 1]


# -- golden digest of outputs, errors and traces ----------------------------


def _repr_or_error(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _golden_lines():
    """Every Monk position and a seeded sample of Pieri positions (k = 1-3,
    both variants, i = 0..5) on S4 and a seeded S5 sample, each with its
    unshuffle; unshuffles against seeded, mostly wrong, sources; and the
    trace lines of a few validated runs."""
    rng = random.Random(2024)
    for p in list(symmetric_group(4)) + rng.sample(list(symmetric_group(5)), 6):
        words = reduced_words(p)
        for w in (words if len(words) <= 2 else rng.sample(words, 2)):
            for i in range(0, 6):
                for j in range(1, len(w) + 2):
                    out = monk_shuffle(i, w, j)
                    yield f"monk {i} {w} {j} -> {out} <- {monk_unshuffle(i, out, p)}"
                for k, variant in itertools.product((1, 2, 3), "cr"):
                    spots = list(itertools.combinations(range(1, len(w) + k + 1), k))
                    for positions in (spots if len(spots) <= 4 else rng.sample(spots, 4)):
                        out = pieri_shuffle(i, w, positions, variant=variant)
                        back = pieri_unshuffle(i, out, p, variant=variant)
                        yield f"pieri {variant} {i} {w} {positions} -> {out} <- {back}"
    s4 = list(symmetric_group(4))
    for p in rng.sample(list(symmetric_group(5)), 40):
        w = rng.choice(reduced_words(p))
        for _ in range(4):
            q = rng.choice(s4)
            i = rng.randrange(0, 6)
            yield f"monk-inv {i} {w} {q}: {_repr_or_error(monk_unshuffle, i, w, q)}"
            for variant in "cr":
                got = _repr_or_error(pieri_unshuffle, i, w, q, variant=variant)
                yield f"pieri-inv {variant} {i} {w} {q}: {got}"
    for i, w, j in ((3, (3, 2, 3, 4, 3, 2), 5), (1, (1, 2, 1), 1), (2, (2, 3, 1, 2), 2)):
        trace: list[str] = []
        monk_shuffle(i, w, j, validate=True, trace=trace)
        yield from trace
    for i, w, positions, variant in ((5, (5, 3), (3, 4, 5), "c"),
                                     (2, (2, 3, 1, 2), (1, 3), "r"),
                                     (3, (2, 3, 2, 4), (2, 4, 6), "c")):
        trace = []
        out = pieri_shuffle(i, w, positions, variant=variant, validate=True, trace=trace)
        pieri_unshuffle(i, out, prod_word(w), variant=variant, validate=True, trace=trace)
        yield from trace


def test_golden_digest():
    """8,801 lines recorded before the engines moved to one wiring sweep per
    step: outputs, unshuffles, exception types and messages off the domain,
    and trace text, all of which must stay byte for byte."""
    lines = list(_golden_lines())
    assert len(lines) == 8801
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "776733176314dd4ec4ab2c8cc42489caa080789e6c7c8bd8e0fcb3b0d46fae71"


def _edge_lines():
    """Seeded S6-S7 words, and the same words moved to letters <= 0, with i
    inside, next to and far from their letters: validated Monk and Pieri round
    trips (k = 1-3, both variants), unshuffles against mostly wrong sources,
    and traced runs.  The label window of a run must reach every height these
    searches stop at."""
    rng = random.Random(18)
    words = []
    for n in (6, 7, 6, 7):
        w = rng.choice(reduced_words(Permutation.from_one_line(rng.sample(range(1, n + 1), n))))
        words += [w, tuple(a - n for a in w)]
    for w in words:
        p = prod_word(w)
        for i in (-3, 0, 9, 12):
            for j in rng.sample(range(1, len(w) + 2), 3):
                out = monk_shuffle(i, w, j, validate=True)
                back = monk_unshuffle(i, out, p, validate=True)
                yield f"monk {i} {w} {j} -> {out} <- {back}"
            for k, variant in itertools.product((1, 2, 3), "cr"):
                positions = tuple(sorted(rng.sample(range(1, len(w) + k + 1), k)))
                out = pieri_shuffle(i, w, positions, variant=variant, validate=True)
                back = pieri_unshuffle(i, out, p, variant=variant, validate=True)
                yield f"pieri {variant} {i} {w} {positions} -> {out} <- {back}"
                q = prod_word(w[rng.randrange(len(w) + 1):])
                for validate in (False, True):
                    got = _repr_or_error(pieri_unshuffle, i, out, q, variant=variant,
                                         validate=validate)
                    yield f"pieri-inv {variant} {i} {out} {q} {validate}: {got}"
            q = prod_word(w[rng.randrange(len(w) + 1):])
            yield f"monk-inv {i} {w} {q}: {_repr_or_error(monk_unshuffle, i, w, q)}"
        i = rng.choice((-3, 0, 9, 12))
        trace: list[str] = []
        monk_shuffle(i, w, rng.randrange(1, len(w) + 2), validate=True, trace=trace)
        variant = rng.choice("cr")
        positions = tuple(sorted(rng.sample(range(1, len(w) + 4), 3)))
        out = pieri_shuffle(i, w, positions, variant=variant, validate=True, trace=trace)
        pieri_unshuffle(i, out, p, variant=variant, validate=True, trace=trace)
        yield from trace


def test_window_edge_digest():
    """Recorded before each run kept one label window: outputs, error text
    and trace text where the pivot or the letters sit at the window's edge."""
    lines = list(_edge_lines())
    assert len(lines) == 784
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a73349691c17478748e3f34917c0f88666e9c28880edd38128efbba555f133b5"


def _entry_error_lines():
    """Off-domain calls to the four entry points, with each outcome: words
    that are not reduced, bad positions, bad variants, marked finite slots,
    and sources that are not one transposition away, do not straddle i, sit
    far from the word, or are off in length.  Several faults at once show
    which check comes first."""
    bad_words = [(1, 1), (1, 2, 1, 2), (3, 2, 3, 2, 4), (0, 0, 1)]
    good_words = [(), (2,), (1, 2, 1), (3, 1, 2, 3), (-1, 0, -1)]
    for w in bad_words + good_words:
        for j in (-1, 0, 1, len(w) + 1, len(w) + 2):
            yield f"monk {w} {j}: {_repr_or_error(monk_shuffle, 2, w, j)}"
    sources = [Permutation.identity(), Permutation.transposition(1, 2),
               Permutation.transposition(1, 3), Permutation.transposition(2, 4),
               parse_permutation("[321]"), parse_permutation("[2143]"),
               Permutation.transposition(-30, 40), Permutation.transposition(20, 21),
               Permutation(-12, (-11, -12)), prod_word((3, 1, 2, 3, 1))]
    for w in bad_words + good_words + [(1, 2), (2, 1, 2, 3), (20,), (-12,)]:
        for q in sources:
            for i in (-12, 0, 1, 2, 3, 20):
                yield f"monk-inv {i} {w} {q}: {_repr_or_error(monk_unshuffle, i, w, q)}"
    positions = [(), (1,), (3, 1), (2, 2), (1, 2, 2), (0,), (-1, 2), (4,), (1, 9), (2, 3)]
    for w in bad_words + good_words:
        for pos in positions:
            for variant in ("c", "r", "x"):
                got = _repr_or_error(pieri_shuffle, 2, w, pos, variant=variant)
                yield f"pieri {variant} {w} {pos}: {got}"
    yield f"pieri oo: {_repr_or_error(pieri_shuffle, 2, (1, INF), (1,))}"
    yield f"pieri oo-only: {_repr_or_error(pieri_shuffle, 2, (INF,), ())}"
    for slots, marks in (((1, INF), ("up", "down")), ((1,), ("down",)), ((INF, 2), ("down", None)),
                         ((2, 2, INF), (None, "up", "down")), ((2, 2, INF), (None, None, "down")),
                         ((1, 2, INF, 1), (None, None, "down", None))):
        marked = MarkedWord(slots, marks)
        for variant in ("c", "x"):
            got = _repr_or_error(pieri_shuffle, 2, marked, variant=variant)
            yield f"pieri-marked {variant} {marked}: {got}"
    for w in bad_words + good_words + [(2, 1, 2, 3), (20,)]:
        for q in sources:
            for variant in ("c", "x"):
                for validate in (False, True):
                    got = _repr_or_error(pieri_unshuffle, 2, w, q, variant=variant,
                                         validate=validate)
                    yield f"pieri-inv {variant} {validate} {w} {q}: {got}"


def test_entry_error_digest():
    """Recorded before the entry checks of the four calls were merged into
    their runs: the exception class and message of every off-domain call,
    in the order the checks meet them.  Padding a word by insert_slots first
    gives pieri_shuffle the same output or the same error."""
    lines = list(_entry_error_lines())
    assert len(lines) == 1549
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c16ef08381a8a39efd29b339d676370cec1b2457767a4d6cd49a2ebd450f424c"
    rng = random.Random(56)
    for n in (5, 6, 5, 6, 6):
        for p in rng.sample(list(symmetric_group(n)), 8):
            w = rng.choice(reduced_words(p))
            if rng.random() < 0.25:
                w += w[-1:]  # not reduced
            k = rng.randrange(0, 4)
            pos = sorted(rng.sample(range(0, len(w) + k + 2), k))
            if rng.random() < 0.25:
                pos.reverse()
            variant = rng.choice(["c", "r", "c", "r", "x"])
            i = rng.randrange(-1, n + 1)
            padded = _repr_or_error(lambda: pieri_shuffle(i, insert_slots(w, pos), variant=variant))
            assert padded == _repr_or_error(pieri_shuffle, i, w, pos, variant=variant), (w, pos)


def test_entry_outcomes_match_public_routes():
    """The four calls check their input on the run's own sweep.  On seeded
    words (letters -3..8, reduced or not) against sources from S<=5 with
    windows starting at -4..1, products of a subword, or transpositions far
    from the word, each reducedness and containment error must come exactly
    when is_reduced and rightmost_subword say so."""
    rng = random.Random(24)
    far = [Permutation.transposition(-30, 40), Permutation.transposition(20, 21),
           Permutation.transposition(-40, -39), Permutation.transposition(3, 30),
           Permutation(-12, (-11, -12))]
    seen = {"not reduced": 0, "not contained": 0, "contained": 0}
    for _ in range(2000):
        letters = [rng.randrange(-3, 9) for _ in range(rng.randrange(10))]
        while rng.random() < 0.5 and not perms.is_reduced(letters):
            letters.pop()
        w = tuple(letters)
        reduced = perms.is_reduced(w)
        roll = rng.random()
        if roll < 0.4:
            n, lo = rng.randrange(1, 6), rng.randrange(-4, 2)
            q = Permutation.from_one_line(rng.sample(range(lo, lo + n), n), lo=lo)
        elif roll < 0.8:
            q = prod_word(tuple(a for a in w if rng.random() < 0.6))
        else:
            q = rng.choice(far)
        i = rng.randrange(-2, 10)
        variant = rng.choice("cr")
        got = _repr_or_error(pieri_unshuffle, i, w, q, variant=variant)
        if not reduced:
            assert got == "ValueError: expected a reduced word", (w, q, i)
            seen["not reduced"] += 1
        else:
            contained = not _repr_or_error(rightmost_subword, w, q).startswith("ValueError")
            assert (got == "ValueError: ambient word does not contain the permutation") != contained
            seen["contained" if contained else "not contained"] += 1
        got = _repr_or_error(monk_shuffle, i, w, rng.randrange(1, len(w) + 2))
        assert (got == "ValueError: monk insertion starts from a reduced word") != reduced
        k = rng.randrange(4)
        positions = tuple(sorted(rng.sample(range(1, len(w) + k + 1), k)))
        got = _repr_or_error(pieri_shuffle, i, w, positions, variant=variant)
        assert (got == "ValueError: the unmarked content must be a reduced word") != reduced
    assert min(seen.values()) >= 300, seen


# -- round trips on random reduced words in S6-S8 -----------------------------


@st.composite
def _reduced_word(draw):
    """A reduced word of a permutation in S6-S8, by peeling random descents."""
    n = draw(st.integers(6, 8))
    p = Permutation.from_one_line(draw(st.permutations(range(1, n + 1))))
    letters = []
    while not p.is_identity():
        d = draw(st.sampled_from(p.descents()))
        letters.append(d)
        p = p * Permutation.simple(d)
    return tuple(reversed(letters))


@settings(max_examples=100, deadline=None)
@given(_reduced_word(), st.integers(0, 8), st.data())
def test_monk_round_trip(word, i, data):
    position = data.draw(st.integers(1, len(word) + 1))
    out = monk_shuffle(i, word, position, validate=True)
    assert monk_unshuffle(i, out, prod_word(word), validate=True) == (word, position)


@settings(max_examples=100, deadline=None)
@given(_reduced_word(), st.integers(0, 8), st.integers(1, 3), st.sampled_from("cr"),
       st.data())
def test_pieri_round_trip(word, i, k, variant, data):
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(1, len(word) + k), min_size=k, max_size=k))))
    out = pieri_shuffle(i, word, positions, variant=variant, validate=True)
    marked = pieri_unshuffle(i, out, prod_word(word), variant=variant, validate=True)
    assert marked.word_and_positions() == (word, positions)


@pytest.mark.parametrize("module", sorted(path.stem for path in Path(shuffles.__file__).parent.glob("*.py")
                                           if path.name != "selftest.py"))
def test_has_no_assert_statements(module):
    """python -O strips assert statements, so no check in the package is one:
    the validate=True checks of the shuffles raise InvariantError explicitly.
    selftest.py, whose worked examples are assert statements, is exempt."""
    tree = ast.parse((Path(shuffles.__file__).parent / f"{module}.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
