import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from schubcalc import perms
from schubcalc.perms import (
    INF,
    Permutation,
    bruhat_cover,
    bruhat_leq,
    compatible_sequences,
    cross_labels,
    defects,
    demazure,
    format_permutation,
    format_word,
    from_lehmer_code,
    is_reduced,
    lehmer_code,
    parse_permutation,
    parse_word,
    prod_word,
    reduced_words,
    symmetric_group,
    tau,
    wiring_label,
    wiring_sweep,
)

from oracles import (
    cross_labels_by_walk,
    demazure_step,
    prod_word_by_simples,
    random_words,
    wiring_label_by_walk,
    words_on_letters,
)


def test_normalization_and_equality():
    assert Permutation.from_one_line((1, 2, 4, 3)) == Permutation.from_one_line((1, 2, 4, 3, 5))
    assert Permutation.from_one_line((1, 2, 3)) == Permutation.identity()
    p = Permutation.from_one_line((2, 3, 0, 1), lo=0)
    assert p(0) == 2 and p(-5) == -5 and p(7) == 7


def test_window_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation.from_one_line((1, 1, 2))


def test_reduced_words_are_sorted_and_reduced():
    for p in symmetric_group(4):
        words = reduced_words(p)
        assert list(words) == sorted(words)
        for w in words:
            assert len(w) == p.length
            assert prod_word(w) == p


def test_reduced_words_length_invariant_s5_sample():
    for p in symmetric_group(5):
        if p.length > 6:
            continue
        for w in reduced_words(p):
            assert prod_word(w) == p and len(w) == p.length


def test_demazure_equals_product_on_reduced_words():
    for length in range(7):
        for w in words_on_letters(length, range(1, 5)):
            if is_reduced(w):
                assert demazure(w) == prod_word(w)


def test_defect_examples():
    assert defects((1, 2, 1)) is None
    assert defects((1, 1)) == (1, 2)
    word = parse_word("3234432")
    pair = defects(word)
    assert pair is not None
    t, u = pair
    assert is_reduced(word[:t - 1] + word[t:])
    assert is_reduced(word[:u - 1] + word[u:])


def test_defect_lemma_exhaustive():
    """Whenever one deletion of a non-reduced word is reduced, exactly two
    are; `defects` raises otherwise, so running it is the check."""
    for length in range(2, 8):
        for w in words_on_letters(length, range(1, 5)):
            pair = defects(w)
            if pair is not None:
                assert not is_reduced(w)


def test_lehmer_examples():
    assert lehmer_code(Permutation.identity()) == ()
    assert lehmer_code(parse_permutation("[321]")) == (2, 1, 0)
    assert lehmer_code(parse_permutation("[15243]")) == (0, 3, 0, 1, 0)


def test_lehmer_matches_bruteforce_and_roundtrips():
    for p in symmetric_group(5):
        code = lehmer_code(p)
        line = [p(i) for i in range(1, 6)]
        brute = tuple(sum(1 for v in line[i + 1:] if v < line[i]) for i in range(5))
        assert code == brute[:len(code)] and all(c == 0 for c in brute[len(code):])
        assert from_lehmer_code(code) == p
    assert from_lehmer_code((0, 0, 0)) == Permutation.identity()


def test_lehmer_rejects_low_support():
    with pytest.raises(ValueError):
        lehmer_code(Permutation.from_one_line((1, 0), lo=0))


def test_wiring_labels():
    word = parse_word("3212")
    assert all(wiring_label(word, len(word), j) == j for j in range(-2, 7))
    assert wiring_label((), 0, 5) == 5


@pytest.mark.parametrize("word, position", [
    ((3, 2, 1, 2), 0), ((3, 2, 1, 2), -1), ((3, 2, 1, 2), 5), ((3, 2, 1, 2), 6), ((), 1)])
def test_cross_labels_rejects_positions_outside_the_word(word, position):
    with pytest.raises(ValueError):
        cross_labels(word, position)


@pytest.mark.parametrize("word, column", [
    ((3, 2, 1, 2), -1), ((3, 2, 1, 2), -4), ((3, 2, 1, 2), 5), ((), -1), ((), 1)])
def test_wiring_label_rejects_columns_outside_the_word(word, column):
    with pytest.raises(ValueError):
        wiring_label(word, column, 2)


def test_prod_word_and_is_reduced_match_products_of_simples():
    reduced = 0
    for word in random_words(1, 400):
        expected = prod_word_by_simples(word)
        assert prod_word(word) == expected, word
        assert is_reduced(word) == (expected.length == len(word)), word
        assert demazure(word) == functools.reduce(demazure_step, word, Permutation.identity()), word
        reduced += is_reduced(word)
    assert 200 <= reduced < 400


def test_wiring_sweep_matches_label_walk():
    """Every column's labels and every cross pair, with and without skipped
    positions and INF slots, agree with walking one height at a time."""
    rng = random.Random(2)
    heights = range(-4, 11)
    for k, word in enumerate(random_words(3, 160)):
        slots = tuple(INF if k % 4 >= 2 and rng.random() < 0.2 else a for a in word)
        skip = frozenset(p for p in range(1, len(word) + 1) if k % 2 and rng.random() < 0.3)
        for column in range(len(slots) + 1):
            labels, crosses = wiring_sweep(slots, column, skip, heights)
            assert labels == [wiring_label_by_walk(slots, column, h, skip) for h in heights]
            assert crosses == [None] * column + [cross_labels_by_walk(slots, p, skip)
                                                 for p in range(column + 1, len(slots) + 1)]
            h = heights[column % len(heights)]
            assert wiring_label(slots, column, h, skip) == labels[h - heights.start]
        assert ([cross_labels(slots, p, skip) for p in range(1, len(slots) + 1)]
                == wiring_sweep(slots, skip=skip)[1])


def test_cross_labels_give_inversions():
    """Right-to-left cross labels of a reduced word are distinct pairs (a, b),
    a < b, forming exactly the inversion set of the permutation."""
    for p in symmetric_group(4):
        lo, hi = 1, 4
        inversions = {(a, b) for a in range(lo, hi) for b in range(a + 1, hi + 1)
                      if p(a) > p(b)}
        for w in reduced_words(p):
            labels = [cross_labels(w, pos) for pos in range(1, len(w) + 1)]
            assert all(a < b for a, b in labels)
            assert len(set(labels)) == len(labels)
            assert set(labels) == inversions


def test_compatible_sequences_examples():
    assert compatible_sequences((1,)) == ((1,),)
    assert compatible_sequences((1, 2)) == ((1, 2),)


def test_compatible_sequences_against_bruteforce():
    for length in range(5):
        for w in words_on_letters(length, range(1, 4)):
            brute = {
                s for s in itertools.product(*(range(1, a + 1) for a in w))
                if all(s[k] <= s[k + 1] for k in range(length - 1))
                and all(s[k] < s[k + 1] for k in range(length - 1) if w[k] < w[k + 1])}
            assert set(compatible_sequences(w)) == brute


def test_compatible_sequences_lower_bound():
    assert set(compatible_sequences((1,), lower_bound=0)) == {(0,), (1,)}
    assert set(compatible_sequences((1,), lower_bound=-1)) == {(-1,), (0,), (1,)}


def test_tau_examples():
    p = parse_permutation("[4213]")
    assert tau(p, 0) == p
    assert tau(tau(p, 3), -3) == p
    assert tau(Permutation.identity(), 5) == Permutation.identity()


def test_bruhat_cover_examples():
    assert bruhat_cover(Permutation.identity(), 1, 2)
    assert not bruhat_cover(parse_permutation("[321]"), 1, 3)
    assert not bruhat_cover(parse_permutation("[21]"), 1, 2)
    with pytest.raises(ValueError):
        bruhat_cover(Permutation.identity(), 2, 2)


def test_bruhat_leq_matches_subword_containment():
    """p <= q iff some reduced word of q contains a reduced word of p."""
    group = list(symmetric_group(3)) + [parse_permutation("[1432]"),
                                        parse_permutation("[4213]")]
    for p in group:
        for q in group:
            contained = any(_contains(wq, wp)
                            for wq in reduced_words(q) for wp in reduced_words(p))
            assert bruhat_leq(p, q) == contained, (str(p), str(q))


def _contains(long, short):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def test_format_and_parse_permutations():
    for text in ("[4213]", "[1]", "[21]"):
        assert format_permutation(parse_permutation(text)) == text
    shifted = Permutation.from_one_line((2, 3, 0, 1), lo=0)
    assert parse_permutation(format_permutation(shifted)) == shifted
    wide = Permutation.from_one_line((10, 2, 3, 4, 5, 6, 7, 8, 9, 1))
    assert parse_permutation(format_permutation(wide)) == wide


@st.composite
def _permutations(draw):
    """A permutation of at most 12 points, its window at -3..3."""
    n, lo = draw(st.integers(1, 12)), draw(st.integers(-3, 3))
    return Permutation.from_one_line(draw(st.permutations(range(lo, lo + n))), lo=lo)


@settings(max_examples=200, deadline=None)
@given(_permutations())
def test_parse_inverts_str(p):
    assert parse_permutation(str(p)) == p


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-30, 30), max_size=8).map(tuple))
@example((10,))
def test_parse_word_inverts_format_word(word):
    """Digit strings, the comma form with negative letters and 0, and one
    letter past 9, whose digits alone would read as a digit string."""
    assert parse_word(format_word(word)) == word


def test_parse_errors_report_positions():
    with pytest.raises(perms.ParseError) as info:
        parse_permutation("4213")
    assert info.value.position == 0
    with pytest.raises(perms.ParseError):
        parse_permutation("[12x3]")
    with pytest.raises(perms.ParseError):
        parse_word("12a")


_NON_ASCII_DIGITS = [chr(c) for c in range(128, 0x110000) if chr(c).isdigit()]


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789,-@[] ", max_size=6), st.sampled_from(_NON_ASCII_DIGITS),
       st.text("0123456789,-@[] ", max_size=6))
@example("1", "\u0663", "")
@example("[2,", "\u0663", ",1]")
@example("[1", "\u00b2", "]")
@example("[21]@", "\u0663", "")
def test_parsers_reject_non_ascii_digits(before, digit, after):
    """int() and str.isdigit accept the digits of other scripts and
    superscripts; the parsers take only 0-9."""
    for parse in (parse_permutation, parse_word):
        with pytest.raises(perms.ParseError):
            parse(before + digit + after)


def test_parsers_take_only_a_sign_and_ascii_digits():
    """int() also reads a "+" and underscores between digits; the integer
    reader takes an optional "-" and the digits 0-9, whitespace around them."""
    for text in ("[2,1_0,1,3,4,5,6,7,8,9]", "[+2,1,3]", "[21]@+0", "[21]@1_0", "[2,-+1]",
                 "[2,-,1]"):
        with pytest.raises(perms.ParseError):
            parse_permutation(text)
    for text in ("2,1_0,1", "+2,1,3", "2,-+1", "2,-,1"):
        with pytest.raises(perms.ParseError):
            parse_word(text)
    assert parse_permutation("[2, 1, 3]") == parse_permutation("[213]")
    assert parse_permutation("[2,3,0,1]@ -0 ") == parse_permutation("[2,3,0,1]@0")
    assert parse_word(" 5, -1,3") == (5, -1, 3)


def test_format_and_parse_words():
    assert format_word((3, 2, 1, 2)) == "3212"
    assert format_word((5, -1, 3)) == "5,-1,3"
    assert parse_word("5,-1,3") == (5, -1, 3)
    assert parse_word("3212") == (3, 2, 1, 2)
    assert parse_word("") == ()
