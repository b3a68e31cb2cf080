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
    INF,
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
    rightmost_subword,
)

from oracles import prod_word_by_simples, random_words, rightmost_subword_by_right_mul


# -- Monk insertion ----------------------------------------------------------


def test_monk_small_examples():
    assert monk_shuffle(1, parse_word("121"), 3, validate=True) == (1, 0, 2, 1)
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


def test_monk_counting_example():
    covers = monk_rhs(parse_permutation("[321]"), 1)
    counts = sorted(len(reduced_words(s)) for s in covers)
    assert counts == [2, 3, 3]
    assert sum(counts) == 8


def test_monk_rhs_example_permutations():
    targets = set(monk_rhs(parse_permutation("[321]"), 1))
    assert targets == {parse_permutation("[4213]"),
                       perms.tau(parse_permutation("[3412]"), -1),
                       perms.tau(parse_permutation("[2431]"), -1)}


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
    assert perms.is_reduced(out)
    assert len(trace) > 3
    sigma = prod_word(out)
    assert sigma.length == source.length + 3
    assert pieri_relation(source, sigma, 5, 3, "c")
    marked = pieri_unshuffle(5, out, source, validate=True)
    assert marked.word_and_positions() == (parse_word("53"), (3, 4, 5))


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


# -- relations ----------------------------------------------------------------


def test_cycle_factor():
    assert cycle_factor(3, 1, "c") == Permutation.simple(3)
    assert cycle_factor(3, 2, "c") == prod_word((2, 3))
    assert cycle_factor(3, 2, "r") == prod_word((4, 3))
    with pytest.raises(ValueError):
        cycle_factor(1, 1, "x")


def test_pieri_relation_basics():
    p = parse_permutation("[321]")
    assert not pieri_relation(p, p, 1, 1)
    for variant in ("c", "r"):
        targets_k1 = pieri_targets(p, 1, 1, variant)
        assert targets_k1 == frozenset(monk_rhs(p, 1)), variant


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
        p = p.right_mul_simple(d)
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


def test_shuffles_has_no_assert_statements():
    """python -O strips assert statements; the validate=True checks raise
    InvariantError explicitly instead."""
    tree = ast.parse(Path(shuffles.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
