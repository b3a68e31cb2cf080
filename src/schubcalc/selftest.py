"""Built-in verification corpus: worked examples with known answers,
runnable as `schubcalc selftest`.  Each check is a named zero-argument
callable raising AssertionError on failure.
"""
from __future__ import annotations

import sys
from collections.abc import Callable

from . import complexes, perms, pipedreams, poly, shapes, shuffles
from .perms import parse_permutation as pp, parse_word as pw
from .poly import Polynomial
from .shapes import Komposition


def _mono(**powers) -> Polynomial:
    return Polynomial.monomial({int(k[1:]): v for k, v in powers.items()})


def _poly_from_weights(*weights) -> Polynomial:
    return Polynomial.sum(poly.from_weak_composition(w) for w in weights)


def check_word_products() -> None:
    assert perms.prod_word(pw("3212")) == pp("[4213]")
    assert perms.prod_word(()) == perms.Permutation.identity()
    assert perms.prod_word((1, 1)) == perms.Permutation.identity()


def check_reduced_word_sets() -> None:
    assert set(perms.reduced_words(pp("[1432]"))) == {pw("232"), pw("323")}
    assert set(perms.reduced_words(pp("[4213]"))) == {pw("1321"), pw("3121"), pw("3212")}
    assert perms.reduced_words(perms.Permutation.identity()) == ((),)


def check_demazure() -> None:
    assert perms.demazure(()) == perms.Permutation.identity()
    assert perms.demazure((1, 1)) == perms.Permutation.simple(1)
    assert perms.demazure(pw("53153243")) == pp("[246135]")


def check_wiring_labels() -> None:
    word = pw("3212")
    labels = [perms.cross_labels(word, p) for p in (4, 3, 2, 1)]
    assert labels == [(2, 3), (1, 3), (1, 2), (1, 4)]
    assert all(perms.wiring_label((), 0, j) == j for j in range(-3, 5))


def check_compatible_sequences() -> None:
    seqs = perms.compatible_sequences(pw("21434"))
    assert set(seqs) == {pw("11223"), pw("11224"), pw("11234"), pw("11334")}


def check_tau_shift() -> None:
    assert perms.tau(pp("[321]")) == pp("[1432]")
    p = pp("[4213]")
    assert perms.tau(perms.tau(p), -1) == p


def check_schubert_values() -> None:
    assert poly.schubert(pp("[321]")) == _mono(x1=2, x2=1)
    expected = _poly_from_weights((0, 2, 1), (1, 1, 1), (2, 0, 1), (2, 1), (1, 2))
    assert poly.schubert(pp("[1432]")) == expected
    assert poly.schubert(perms.Permutation.identity()) == Polynomial.one()


def check_tableau_counts() -> None:
    assert len(shapes.enumerate_tableaux("ssyt", (2, 1), 3)) == 8
    assert len(shapes.enumerate_tableaux("ct", (1, 2, 1), 4)) == 5
    assert len(shapes.enumerate_tableaux("wct", (3, 0, 2, 2), 4)) == 5


def check_fundamental_quasisymmetric() -> None:
    expected = (_mono(x1=1, x2=2, x3=1) + _mono(x1=1, x2=2, x4=1)
                + _mono(x1=1, x2=1, x3=1, x4=1) + _mono(x1=1, x3=2, x4=1)
                + _mono(x2=1, x3=2, x4=1))
    assert poly.fundamental_quasisymmetric((1, 2, 1), 4) == expected


def check_slide_values() -> None:
    expected = (_mono(x1=3, x2=2, x3=2) + _mono(x1=3, x2=2, x3=1, x4=1)
                + _mono(x1=3, x2=2, x4=2) + _mono(x1=3, x2=1, x3=1, x4=2)
                + _mono(x1=3, x3=2, x4=2))
    assert poly.slide((3, 0, 2, 2)) == expected
    assert poly.slide((1, 0, 1)) == _mono(x1=1, x2=1) + _mono(x1=1, x3=1)
    assert poly.slide_of_word(pw("21")) == _mono(x1=2)
    assert poly.slide_of_word(pw("31")) == _mono(x1=2)
    assert poly.slide_of_word(pw("21")) == poly.slide((2,))


def check_kontent_and_glides() -> None:
    left = ((), (frozenset({1}),), (frozenset({2, 3}),))
    right = ((), (frozenset({1, 2}),), (frozenset({3}),))
    assert shapes.kontent(left) == Komposition((1, 1, 1), frozenset({3}))
    assert shapes.kontent(right) == Komposition((1, 1, 1), frozenset({2}))
    lam = (0, 1, 0, 0, 0, 3)
    assert shapes.is_glide(Komposition((1, 0, 1, 0, 1, 3), frozenset({5, 6})), lam)
    assert shapes.is_glide(Komposition((1, 1, 0, 2, 0, 2), frozenset({2, 6})), lam)
    assert not shapes.is_glide(Komposition((0, 1, 1, 1, 2, 0), frozenset({3})), lam)


def check_pipe_dream_bijection() -> None:
    first = pipedreams.from_word_and_rows(pw("315243"), pw("112233"), 6)
    second = pipedreams.from_word_and_rows(pw("513243"), pw("112233"), 6)
    third = pipedreams.from_word_and_rows(pw("53153243"), pw("11122233"), 6)
    for dream in (first, second):
        assert dream.is_reduced() and dream.permutation() == pp("[246135]")
    assert not third.is_reduced()
    assert third.permutation() == pp("[246135]")
    assert third.excess == 2
    assert first.reading_word() == pw("315243")
    assert first.row_sequence() == pw("112233")


def check_pipe_dream_counts() -> None:
    assert len(pipedreams.reduced_pipe_dreams(pp("[1432]"))) == 5
    assert pipedreams.reduced_pipe_dreams(perms.Permutation.identity()) == \
        frozenset({pipedreams.PipeDream.empty(1)})


def check_slide_equal_words() -> None:
    value = poly.slide_of_word(pw("315243"))
    assert value == poly.slide_of_word(pw("513243"))
    assert value == poly.slide((2, 2, 2)) == _mono(x1=2, x2=2, x3=2)


def check_subword_complex_facets() -> None:
    complex_ = complexes.subword_complex(pw("321323"), pp("[1432]"))
    expected = {frozenset(s) for s in ({1, 3, 6}, {3, 5, 6}, {3, 4, 5},
                                       {2, 3, 4}, {1, 2, 3})}
    assert complex_.facets == frozenset(expected)
    slide_part = complexes.slide_complex(pw("321323"), pw("323"))
    assert slide_part.facets == frozenset(expected - {frozenset({1, 3, 6})})


def check_vertex_decomposability_examples() -> None:
    simplex = complexes.SimplicialComplex.from_facets([{1, 2, 3, 4}])
    assert complexes.is_vertex_decomposable(simplex)
    glued = complexes.SimplicialComplex.from_facets([{1, 2, 3}, {3, 4, 5}])
    assert not complexes.is_vertex_decomposable(glued)
    assert complexes.is_vertex_decomposable(
        complexes.SimplicialComplex.from_facets([frozenset()]))


def check_backwards_saturated_examples() -> None:
    words = [pw("1434"), pw("4134"), pw("4314"), pw("4341")]
    assert complexes.is_backwards_saturated(words)
    assert complexes.is_backwards_saturated([pw("232")])
    assert complexes.is_backwards_saturated(perms.reduced_words(pp("[4213]")))


def check_monk_example_run() -> None:
    assert shuffles.monk_shuffle(3, pw("323432"), 5, validate=True) == pw("1232432")


MONK_TABLE = (
    (pw("121"), 1, pw("3121")),
    (pw("121"), 2, pw("1321")),
    (pw("121"), 3, (1, 0, 2, 1)),
    (pw("121"), 4, (1, 2, 0, 1)),
    (pw("212"), 1, pw("3212")),
    (pw("212"), 2, (0, 2, 1, 2)),
    (pw("212"), 3, (2, 0, 1, 2)),
    (pw("212"), 4, (0, 1, 2, 1)),
)


def check_monk_table() -> None:
    """Insertions of 1 into the reduced words of [321]: the eight outputs
    exhaust the reduced words of the three cover permutations."""
    outputs = []
    for word, position, expected in MONK_TABLE:
        result = shuffles.monk_shuffle(1, word, position, validate=True)
        assert result == expected, (word, position, result, expected)
        outputs.append(result)
    covers = shuffles.monk_rhs(pp("[321]"), 1)
    pool = sorted(w for s in covers for w in perms.reduced_words(s))
    assert sorted(outputs) == pool
    assert len(pool) == 8 and sorted(len(perms.reduced_words(s)) for s in covers) == [2, 3, 3]


def check_monk_inverses() -> None:
    source = pp("[321]")
    assert shuffles.monk_unshuffle(1, (1, 0, 2, 1), source) == (pw("121"), 3)
    assert shuffles.monk_unshuffle(1, pw("3121"), source) == (pw("121"), 1)
    assert shuffles.monk_unshuffle(5, (5,), perms.Permutation.identity()) == ((), 1)


def check_monk_rhs_names() -> None:
    targets = set(shuffles.monk_rhs(pp("[321]"), 1))
    sigma1 = perms.tau(pp("[3412]"), -1)
    sigma2 = perms.tau(pp("[2431]"), -1)
    assert targets == {pp("[4213]"), sigma1, sigma2}


def check_slide_product_disagreement() -> None:
    """The insertion rule does not see monomials: multiplying the slide
    polynomials of 232 and 2 disagrees with summing the slide polynomials of
    the four rectified shuffles."""
    rectified = [shuffles.monk_shuffle(2, pw("232"), j) for j in (1, 2, 3, 4)]
    assert rectified == [pw("4232"), pw("2432"), pw("2132"), pw("2312")]
    values = [poly.slide_of_word(w) for w in rectified]
    assert values[0] == _mono(x1=2, x2=2)
    assert values[1] == _mono(x1=1, x2=3)
    assert values[2] == _mono(x1=2, x2=2)
    assert values[3] == Polynomial.zero()
    product = poly.slide_of_word(pw("232")) * poly.slide_of_word(pw("2"))
    assert product == _mono(x1=2, x2=2) + _mono(x1=1, x2=3)
    total = values[0] + values[1] + values[2] + values[3]
    assert product != total


def check_pieri_example_run() -> None:
    """Inserting three high letters into 53: the output must be reduced,
    related to the input by the column Pieri relation, and must unshuffle
    back to the input."""
    source = perms.prod_word(pw("53"))
    out = shuffles.pieri_shuffle(5, pw("53"), (3, 4, 5), validate=True)
    assert perms.is_reduced(out)
    sigma = perms.prod_word(out)
    assert shuffles.pieri_relation(source, sigma, 5, 3, "c")
    marked = shuffles.pieri_unshuffle(5, out, source, validate=True)
    assert marked.word_and_positions() == (pw("53"), (3, 4, 5))


def check_schur_expansion() -> None:
    expansion = poly.expand_schur_into_fundamentals((2, 1), 3)
    values = sorted(str(v) for v in expansion.values())
    f21 = poly.fundamental_quasisymmetric((2, 1), 3)
    f12 = poly.fundamental_quasisymmetric((1, 2), 3)
    assert values == sorted([str(f21), str(f12)])
    assert Polynomial.sum(expansion.values()) == poly.schur((2, 1), 3)


def check_tableau_complex_counts() -> None:
    column = complexes.tableau_complex("ssyt", (1, 1, 1), 4)
    assert len(column.facets) == 4
    syt_complex = complexes.tableau_complex("syt", (2, 1), 3)
    assert complexes.classify_ball_or_sphere(syt_complex).kind == "neither"


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("word products", check_word_products),
    ("reduced word sets", check_reduced_word_sets),
    ("demazure products", check_demazure),
    ("wiring labels", check_wiring_labels),
    ("compatible sequences", check_compatible_sequences),
    ("tau shift", check_tau_shift),
    ("schubert values", check_schubert_values),
    ("tableau counts", check_tableau_counts),
    ("fundamental quasisymmetric", check_fundamental_quasisymmetric),
    ("slide values", check_slide_values),
    ("kontent and glides", check_kontent_and_glides),
    ("pipe dream bijection", check_pipe_dream_bijection),
    ("pipe dream counts", check_pipe_dream_counts),
    ("equal slides of distinct words", check_slide_equal_words),
    ("subword complex facets", check_subword_complex_facets),
    ("vertex decomposability", check_vertex_decomposability_examples),
    ("backwards-saturated sets", check_backwards_saturated_examples),
    ("monk insertion run", check_monk_example_run),
    ("monk table", check_monk_table),
    ("monk inverses", check_monk_inverses),
    ("monk product support", check_monk_rhs_names),
    ("slide product disagreement", check_slide_product_disagreement),
    ("pieri insertion run", check_pieri_example_run),
    ("schur expansion", check_schur_expansion),
    ("tableau complexes", check_tableau_complex_counts),
)


def run(verbose: bool = False) -> int:
    if not __debug__:
        print("selftest: the checks are assert statements, which python -O "
              "strips; run without -O", file=sys.stderr)
        return 1
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"ok   {name}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
        return 1
    if verbose:
        print(f"all {len(CHECKS)} checks passed")
    return 0
