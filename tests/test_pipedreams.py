import itertools
import random
from collections import Counter

import pytest

from schubcalc import perms, pipedreams
from schubcalc.perms import Permutation, parse_permutation, parse_word, symmetric_group
from schubcalc.pipedreams import (
    PipeDream,
    all_pipe_dreams,
    bottom_pipe_dream,
    chute_moves,
    from_word_and_rows,
    is_quasi_yamanouchi,
    ladder_moves,
    quasi_yamanouchi_for_word,
    quasi_yamanouchi_pipe_dreams,
    reduced_pipe_dreams,
    staircase_cells,
    triangular_word,
    weight_counts,
)

from oracles import (
    quasi_yamanouchi_for_word_by_sequences,
    reduced_pipe_dreams_by_moves,
    scan_pipe_dreams,
)


def test_reading_word_examples():
    assert PipeDream.empty(4).reading_word() == ()


def test_from_word_and_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        from_word_and_rows((1, 2), (2, 1), 4)  # rows not weakly increasing
    with pytest.raises(ValueError):
        from_word_and_rows((1, 1), (1, 1), 4)  # duplicate cross
    with pytest.raises(ValueError):
        from_word_and_rows((3,), (1,), 3)  # cross (1, 3) outside the staircase


def test_bijection_roundtrip_s4():
    for p in symmetric_group(4):
        for dream in reduced_pipe_dreams(p):
            rebuilt = from_word_and_rows(dream.reading_word(), dream.row_sequence(),
                                         dream.n)
            assert rebuilt == dream


def test_bijection_roundtrip_all_cross_sets_n5():
    """Every cross subset of the staircase of size 5, reduced or not, is
    recovered from its reading word and row record."""
    cells = staircase_cells(5)
    for r in range(len(cells) + 1):
        for chosen in itertools.combinations(cells, r):
            dream = PipeDream(5, frozenset(chosen))
            rebuilt = from_word_and_rows(dream.reading_word(),
                                         dream.row_sequence(), 5)
            assert rebuilt == dream


def test_bottom_pipe_dream():
    assert bottom_pipe_dream(Permutation.identity()).crosses == frozenset()
    assert bottom_pipe_dream(parse_permutation("[321]")).crosses == frozenset(
        {(1, 1), (1, 2), (2, 1)})
    p = parse_permutation("[15243]")
    assert perms.demazure(bottom_pipe_dream(p).reading_word()) == p
    assert bottom_pipe_dream(p).is_reduced()


def test_moves_preserve_permutation():
    for p in symmetric_group(4):
        for dream in reduced_pipe_dreams(p):
            for neighbour in chute_moves(dream) | ladder_moves(dream):
                assert neighbour.permutation() == p
                assert neighbour.is_reduced()


def test_move_counts():
    assert len(reduced_pipe_dreams(parse_permutation("[1432]"))) == 5
    assert chute_moves(PipeDream.empty(4)) == frozenset()
    assert ladder_moves(PipeDream.empty(4)) == frozenset()


def test_closure_equals_subword_enumeration():
    """The chute/ladder closure of the bottom pipe dream (the test oracle)
    gives the same set as the excess-0 search over subwords of the
    triangular word, for every p in S4-S6 at its own size and one larger."""
    for p in itertools.chain(*(symmetric_group(m) for m in (4, 5, 6))):
        for n in (None, pipedreams.ambient_size(p) + 1):
            closure = reduced_pipe_dreams_by_moves(p, n)
            assert reduced_pipe_dreams(p, n) == closure, (str(p), n)
            assert all_pipe_dreams(p, n, max_excess=0) == closure, (str(p), n)


def test_triangular_word():
    assert triangular_word(4) == (3, 2, 1, 3, 2, 3)
    assert triangular_word(6) == parse_word("543215432543545")
    cells = staircase_cells(4)
    assert [r + c - 1 for (r, c) in cells] == list(triangular_word(4))


def test_quasi_yamanouchi_examples():
    assert is_quasi_yamanouchi(PipeDream.empty(3))
    for p in symmetric_group(4):
        assert is_quasi_yamanouchi(bottom_pipe_dream(p))
    qy = quasi_yamanouchi_pipe_dreams(parse_permutation("[1432]"))
    weights = {d.reading_word(): d.weight() for d in qy}
    assert weights == {parse_word("323"): (0, 2, 1), parse_word("232"): (1, 2)}


def test_one_quasi_yamanouchi_per_word():
    """Each reduced word admitting a positive compatible sequence has exactly
    one quasi-Yamanouchi pipe dream with that reading word."""
    for p in itertools.chain(symmetric_group(4), symmetric_group(5)):
        dreams = reduced_pipe_dreams(p)
        by_word = {}
        for d in dreams:
            if is_quasi_yamanouchi(d):
                assert d.reading_word() not in by_word
                by_word[d.reading_word()] = d
        represented = {d.reading_word() for d in dreams}
        assert set(by_word) == represented
        for w in represented:
            assert quasi_yamanouchi_for_word(w) == by_word[w]


def test_quasi_yamanouchi_for_word_without_sequence():
    assert quasi_yamanouchi_for_word((1, 2, 1)) is None


def test_quasi_yamanouchi_for_word_matches_sequence_scan():
    """The greatest-rows dream is the one quasi-Yamanouchi dream the scan over
    every positive compatible sequence finds: on every reduced word of S3-S5,
    on a seeded sample of S6 and on words with letters below 1."""
    rng = random.Random(6)
    sample = rng.sample(list(symmetric_group(6)), 60)
    for p in itertools.chain(*(symmetric_group(m) for m in (3, 4, 5)), sample):
        for word in perms.reduced_words(p):
            assert quasi_yamanouchi_for_word(word) == \
                quasi_yamanouchi_for_word_by_sequences(word), word
    for word in [(), (0,), (1, 0), (2, 0, 1), (-1, 1)]:
        assert quasi_yamanouchi_for_word(word) == \
            quasi_yamanouchi_for_word_by_sequences(word), word
    with pytest.raises(ValueError):
        quasi_yamanouchi_for_word((1, 1))


def test_quasi_yamanouchi_count_135624_by_enumeration():
    """The quasi-Yamanouchi set of [135624] is pinned down by enumeration
    plus the slide expansion identity, not by any externally stated count."""
    from schubcalc import poly

    p = parse_permutation("[135624]")
    qy = quasi_yamanouchi_pipe_dreams(p)
    assert len(qy) == len({d.reading_word() for d in reduced_pipe_dreams(p)})
    assert poly.Polynomial.sum(poly.slide(d.weight()) for d in qy) == poly.schubert(p)


def test_all_pipe_dreams_excess_bound():
    p = parse_permutation("[21]")
    assert {d.crosses for d in all_pipe_dreams(p, 2)} == {frozenset({(1, 1)})}
    bigger = all_pipe_dreams(p, 3)
    assert {d.excess for d in bigger} <= {0, 1, 2}
    capped = all_pipe_dreams(p, 3, max_excess=0)
    assert all(d.excess == 0 for d in capped)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_all_pipe_dreams_matches_subset_scan(m):
    """The pruned search returns exactly the cross sets a scan over every
    subset of the staircase finds: for each p in S_m, at its own size, and
    below S6 at a larger size and at a smaller one, with and without an
    excess bound."""
    scans = {}

    def expected(p, n, max_excess):
        if n not in scans:
            scans[n] = scan_pipe_dreams(n)
        return frozenset(d for d in scans[n].get(p, ())
                         if max_excess is None or len(d.crosses) - p.length <= max_excess)

    for p in symmetric_group(m):
        size = pipedreams.ambient_size(p)
        for n in (size, m + 1, size - 1) if m < 6 else (size,):
            for max_excess in (None, 0, 1, 2):
                assert all_pipe_dreams(p, n, max_excess) == expected(p, n, max_excess), \
                    (str(p), n, max_excess)
        assert all_pipe_dreams(p) == expected(p, size, None)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_weight_counts_match_the_listing(m):
    """The merged-state pass counts, by weight and with sign (-1)^excess,
    exactly the dreams the enumerator lists."""
    for p in symmetric_group(m):
        for max_excess in (0, None):
            listed = Counter()
            for dream in all_pipe_dreams(p, max_excess=max_excess):
                listed[dream.weight()] += (-1) ** (len(dream.crosses) - p.length)
            assert weight_counts(p, max_excess=max_excess) == dict(listed), (str(p), max_excess)


def test_search_built_dreams_equal_checked_ones():
    """The search builds its dreams without the staircase check; they equal,
    and hash like, dreams built through the checking constructor, which
    still rejects a cross outside the staircase."""
    for dream in all_pipe_dreams(parse_permutation("[1432]")):
        checked = PipeDream(dream.n, dream.crosses)
        assert checked == dream and hash(checked) == hash(dream)
    with pytest.raises(ValueError):
        PipeDream(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        pipedreams.from_json({"size": 3, "crosses": [[1, 3]]})


def test_all_pipe_dreams_outside_positive_support():
    """A permutation moving 0 or -1 has no pipe dream in any staircase."""
    for p in [Permutation(0, (1, 0)), Permutation(-1, (0, -1)),
              Permutation(0, (2, 1, 0)), Permutation(-1, (1, 0, -1)),
              Permutation(-1, (-1, 2, 1, 0))]:
        for n in range(0, 6):
            for max_excess in (None, 0, 2):
                assert all_pipe_dreams(p, n, max_excess) == frozenset(), (str(p), n)
        with pytest.raises(ValueError):
            all_pipe_dreams(p)
        with pytest.raises(ValueError):
            weight_counts(p)


def test_render_and_json():
    dream = bottom_pipe_dream(parse_permutation("[321]"))
    art = pipedreams.render_ascii(dream)
    assert art.splitlines()[0] == "++"
    svg = pipedreams.render_svg(dream)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert pipedreams.from_json(pipedreams.to_json(dream)) == dream
