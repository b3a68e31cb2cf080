import itertools
import json
import random

import pytest

from schubcalc import shapes
from schubcalc.shapes import (
    Komposition,
    classify_set_valued,
    composition_to_set,
    content,
    descent_set,
    enumerate_set_valued_wct,
    enumerate_tableaux,
    flatten,
    is_glide,
    kontent,
    refines,
    selections,
    set_to_composition,
    standardize,
)

from oracles import compositions_weak, dominates, glide_kompositions, is_family_tableau_by_rules


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _refines_oracle(fine, coarse):
    """Split `fine` into consecutive blocks summing to the parts of `coarse`."""
    def go(i, j):
        if j == len(coarse):
            return i == len(fine)
        total = 0
        k = i
        while k < len(fine):
            total += fine[k]
            k += 1
            if total == coarse[j]:
                if go(k, j + 1):
                    return True
            if total >= coarse[j]:
                break
        return False
    return go(0, 0)


def test_flatten_and_set_bijection():
    assert flatten((2, 0, 5, 4)) == (2, 5, 4)
    assert composition_to_set((2, 3, 1)) == frozenset({2, 5})
    assert set_to_composition({2, 5}, 6) == (2, 3, 1)
    for n in range(1, 7):
        for comp in _compositions(n):
            assert set_to_composition(composition_to_set(comp), n) == comp


def test_refines_examples_and_oracle():
    assert refines((1, 1, 1), (2, 1))
    assert not refines((1, 2), (2, 1))
    for n in range(1, 7):
        comps = list(_compositions(n))
        for a in comps:
            for b in comps:
                assert refines(a, b) == _refines_oracle(a, b)


def test_dominates():
    assert dominates((2, 1), (1, 2))
    assert not dominates((1, 2), (2, 1))
    assert dominates((0, 2), (0, 2))
    assert dominates((1, 0, 1), (0, 1, 1))


def test_tableau_counts():
    assert len(enumerate_tableaux("syt", (3, 2), 5)) == 5
    assert enumerate_tableaux("ssyt", (), 3) == ((),)


@pytest.mark.parametrize("family", shapes.FAMILIES)
def test_variable_count_is_at_least_zero(family):
    """n = 0 leaves the empty tableau of the empty shape; a negative n is a
    domain error, not an empty answer."""
    assert enumerate_tableaux(family, (), 0) == ((),)
    assert enumerate_tableaux(family, (1,), 0) == ()
    for shape in ((), (1,)):
        with pytest.raises(ValueError, match="at least 0, not -1"):
            enumerate_tableaux(family, shape, -1)


def _fillings(shape, choices):
    """Every filling of the shape with one of the choices per box, in
    lexicographic order of the reading word."""
    for flat in itertools.product(choices, repeat=sum(shape)):
        it = iter(flat)
        yield tuple(tuple(next(it) for _ in range(width)) for width in shape)


def test_enumerations_match_membership_filter():
    """The box-by-box filler lists exactly the fillings the independent
    membership tests accept: in the same order for the four families, and
    without repeats for the set-valued weak composition tableaux."""
    valid = {"syt": shapes.is_partition, "ssyt": shapes.is_partition,
             "ct": shapes.is_composition, "wct": shapes.is_weak_composition}
    for total in range(5):
        for parts in range(5):
            for lam in compositions_weak(total, parts):
                for family in shapes.FAMILIES:
                    if not valid[family](lam):
                        continue
                    for n in range(1, 5):
                        expected = tuple(t for t in _fillings(lam, range(1, n + 1))
                                         if is_family_tableau_by_rules(t, family, n))
                        assert enumerate_tableaux(family, lam, n) == expected, (family, lam, n)
    for total in range(4):
        for parts in range(4):
            for lam in compositions_weak(total, parts):
                boxes = [frozenset(c) for r in range(1, parts + 1)
                         for c in itertools.combinations(range(1, parts + 1), r)]
                listed = enumerate_set_valued_wct(lam)
                assert len(set(listed)) == len(listed), lam
                assert set(listed) == {svt for svt in _fillings(lam, boxes)
                                       if classify_set_valued(svt, "wct", parts) == "set-valued"}, lam


def test_shape_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        enumerate_tableaux("ssyt", (1, 2), 3)
    with pytest.raises(ValueError):
        enumerate_tableaux("ct", (1, 0, 2), 3)
    with pytest.raises(ValueError):
        enumerate_tableaux("wct", (1, -1), 3)


def test_syt_are_standard():
    for t in enumerate_tableaux("syt", (2, 2, 1), 5):
        values = sorted(v for row in t for v in row)
        assert values == [1, 2, 3, 4, 5]
        assert standardize(t) == t


def test_content_examples():
    assert content(((1, 1), (2,))) == (2, 1)
    assert content(()) == ()


def test_ct_content_characterization():
    """A weak composition is the content of a composition tableau iff its
    flattening refines the shape."""
    for n in range(1, 7):
        for lam in _compositions(n):
            seen = {content(t) for t in enumerate_tableaux("ct", lam, n)}
            for mu in compositions_weak(n, n):
                mu_trimmed = tuple(mu)
                while mu_trimmed and mu_trimmed[-1] == 0:
                    mu_trimmed = mu_trimmed[:-1]
                expected = refines(flatten(mu), lam) if flatten(mu) else lam == ()
                assert (mu_trimmed in seen) == expected


def test_wct_content_characterization():
    """A weak composition is the content of a weak composition tableau iff
    its flattening refines the shape's flattening and it dominates the
    shape."""
    for total in range(1, 7):
        for parts in range(1, 5):
            for lam in compositions_weak(total, parts):
                seen = {content(t) for t in enumerate_tableaux("wct", lam, parts)}
                for mu in compositions_weak(total, parts):
                    mu_trimmed = tuple(mu)
                    while mu_trimmed and mu_trimmed[-1] == 0:
                        mu_trimmed = mu_trimmed[:-1]
                    expected = (refines(flatten(mu), flatten(lam))
                                and dominates(mu, lam))
                    assert (mu_trimmed in seen) == expected, (lam, mu)


def test_ct_wct_determined_by_content():
    for lam in [(2, 1), (1, 2, 1), (3, 1)]:
        tableaux = enumerate_tableaux("ct", lam, 4)
        assert len({content(t) for t in tableaux}) == len(tableaux)
    for lam in [(0, 2, 1), (3, 0, 2, 2), (1, 1)]:
        tableaux = enumerate_tableaux("wct", lam, len(lam))
        assert len({content(t) for t in tableaux}) == len(tableaux)


def test_standardize_and_descents():
    assert standardize(((1, 1), (2,))) == ((1, 2), (3,))
    assert descent_set(((1, 2), (3,))) == frozenset({2})
    assert descent_set(((1, 3), (2,))) == frozenset({1})
    with pytest.raises(ValueError):
        descent_set(((1, 1), (2,)))


def test_standardization_fibers_partition_ssyt():
    tableaux = enumerate_tableaux("ssyt", (2, 1), 3)
    fibers = {}
    for t in tableaux:
        fibers.setdefault(standardize(t), []).append(t)
    assert set(fibers) == set(enumerate_tableaux("syt", (2, 1), 3))
    assert sorted(len(v) for v in fibers.values()) == [4, 4]


def test_kontent_examples():
    single = ((frozenset({1}), frozenset({2})),)
    assert kontent(single).bold == frozenset()


def test_komposition_validation():
    with pytest.raises(ValueError):
        Komposition((1, 0, 1), frozenset({2}))
    assert Komposition((1, 0, 1), frozenset({3})).excess == 1
    assert str(Komposition((1, 0, 1), frozenset({3}))) == "(1,0,1*)"


def test_glide_examples():
    assert is_glide(Komposition((0, 2, 1)), (0, 2, 1))


def test_glide_keeps_no_stack_frame_per_block():
    assert is_glide(Komposition((1,) * 1200), (1,) * 1200)
    assert not is_glide(Komposition((1,) * 1200, frozenset({1200})), (1,) * 1200)


def test_glide_agrees_with_set_valued_kontents():
    shapes_to_try = [lam for total in range(0, 5) for parts in range(0, 5)
                     for lam in compositions_weak(total, parts)]
    shapes_to_try += [lam for lam in compositions_weak(5, 3)]
    for lam in shapes_to_try:
        brute = {kontent(svt).trimmed() for svt in enumerate_set_valued_wct(lam)}
        predicate = {k.trimmed() for k in glide_kompositions(lam)}
        assert brute == predicate, lam


def test_classify_set_valued():
    stacked_single_on_multi = ((frozenset({1}),), (frozenset({1, 2}),))
    assert classify_set_valued(stacked_single_on_multi, "ssyt", 2) == "limit"
    multi_on_single = ((frozenset({1, 2}),), (frozenset({1}),))
    assert classify_set_valued(multi_on_single, "ssyt", 2) == "neither"
    plain = ((frozenset({1}), frozenset({1})), (frozenset({2}),))
    assert classify_set_valued(plain, "ssyt", 2) == "set-valued"
    wider = ((frozenset({1}), frozenset({1, 2})), (frozenset({2, 3}),))
    kind = classify_set_valued(wider, "ssyt", 3)
    brute = [shapes.is_family_tableau(t, "ssyt", 3) for t in selections(wider)]
    assert (kind == "set-valued") == all(brute)
    assert (kind in ("set-valued", "limit")) == any(brute)


def test_family_tableau_checker_matches_the_rules():
    """The one bound checker, with each tableau as its own lows and highs,
    agrees with each family's rules written out on their own: every filling
    with entries 0..n+1 of every weak composition of at most 3 boxes in at
    most 3 rows, empty rows and non-partition shapes included, n = 0..4."""
    cases = 0
    for n in range(5):
        for total in range(4):
            for parts in range(4):
                for lam in compositions_weak(total, parts):
                    for t in _fillings(lam, range(n + 2)):
                        for family in shapes.FAMILIES:
                            assert shapes.is_family_tableau(t, family, n) == \
                                is_family_tableau_by_rules(t, family, n), (t, family, n)
                            cases += 1
    assert cases == 30560
    with pytest.raises(ValueError, match="unknown family"):
        shapes.is_family_tableau(((1,),), "svt", 1)


def test_selections_cover_products():
    svt = ((frozenset({1, 2}), frozenset({2})), (frozenset({3, 4}),))
    assert len(list(selections(svt))) == 4


def test_json_roundtrips():
    t = ((1, 2), (2,))
    assert json.loads(json.dumps(shapes.tableau_to_json(t))) == [[1, 2], [2]]
    assert tuple(map(tuple, shapes.tableau_to_json(t))) == t


def _random_set_valued(rng, n):
    """A random set-valued filling with entries in 0..n+1, rows possibly
    empty, on a shape that need not be a partition."""
    shape = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
    return tuple(tuple(frozenset(rng.sample(range(0, n + 2), rng.randint(1, 2)))
                       for _ in range(width)) for width in shape)


@pytest.mark.parametrize("family", ["ssyt", "ct", "wct"])
def test_every_selection_fits_matches_the_selections(family):
    """The box-extreme predicate agrees with testing every selection, on
    empty rows, entries 0 and n + 1, and non-partition shapes."""
    rng = random.Random(2017)
    edge_cases = [(), ((),), ((), (frozenset({1}),)), ((frozenset({2}),), ()),
                  ((frozenset({0, 1}),),), ((frozenset({1}), frozenset({1})), (frozenset({2, 3}),)),
                  ((frozenset({1}),), (frozenset({1, 2}), frozenset({3})))]
    for n in (1, 2, 3, 4):
        samples = edge_cases + [_random_set_valued(rng, n) for _ in range(1500)]
        for svt in samples:
            expected = all(is_family_tableau_by_rules(t, family, n) for t in selections(svt))
            assert shapes._every_selection_fits(svt, family, n) == expected, (svt, n)
            assert (classify_set_valued(svt, family, n) == "set-valued") == expected, (svt, n)
