"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact combinatorics; assertions are equalities, with no
numeric tolerances anywhere.
"""
import itertools
import math
import random
from functools import lru_cache

from schubcalc import complexes, perms, pipedreams, poly, selftest, shapes, shuffles
from schubcalc.perms import (
    Permutation,
    parse_permutation,
    parse_word,
    reduced_words,
    symmetric_group,
)
from schubcalc.poly import Polynomial

from oracles import compositions_weak, demazure_step, schubert_from_words, word_embeddings


def test_criterion_1_golden_corpus(capsys):
    """Every worked example with a stated answer reproduces exactly."""
    assert selftest.run() == 0
    sigma1 = perms.tau(parse_permutation("[3412]"), -1)
    sigma2 = perms.tau(parse_permutation("[2431]"), -1)
    assert set(reduced_words(sigma1)) == {(1, 0, 2, 1), (1, 2, 0, 1)}
    assert set(reduced_words(sigma2)) == {(0, 1, 2, 1), (0, 2, 1, 2), (2, 0, 1, 2)}
    with capsys.disabled():
        print("\nACCEPTANCE 1 (golden corpus): PASS")


def test_criterion_2_expansion_identities(capsys):
    """Schubert = sum of word slides over S5; Schur = sum of fundamentals
    over standard tableaux; Grothendieck = signed sum of glides over
    quasi-Yamanouchi pipe dreams for S4."""
    for p in symmetric_group(5):
        total = Polynomial.sum(poly.slide_of_word(w) for w in reduced_words(p))
        assert total == poly.schubert(p), str(p)
        assert schubert_from_words(p) == poly.schubert(p), str(p)

    for total_size in range(0, 6):
        for lam in _partitions(total_size):
            for n in range(1, 5):
                expansion = poly.expand_schur_into_fundamentals(lam, n)
                assert Polynomial.sum(expansion.values()) == poly.schur(lam, n), (lam, n)

    for p in symmetric_group(4):
        expansion = poly.expand_grothendieck_into_glides(p)
        assert Polynomial.sum(expansion.values()) == poly.grothendieck(p), str(p)
    with capsys.disabled():
        print("ACCEPTANCE 2 (expansion identities): PASS")


def _partitions(total, cap=None):
    cap = cap or total
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_criterion_3_monk_and_pieri_polynomial_identities(capsys):
    """Product identities for truncated back-stable series, all variables
    below -2 set to zero."""
    cutoff = -2
    for p in symmetric_group(3):
        left = poly.backstable_truncation(p, cutoff)
        for i in range(0, 4):
            lhs = left * poly.backstable_truncation(Permutation.simple(i), cutoff)
            rhs = Polynomial.sum(
                poly.backstable_truncation(p * Permutation.transposition(a, b), cutoff)
                for (a, b) in shuffles.monk_covers(p, i))
            assert lhs == rhs, ("monk", str(p), i)
        for variant in ("c", "r"):
            for k in (1, 2):
                for i in range(0, 4):
                    factor = shuffles.cycle_factor(i, k, variant)
                    lhs = left * poly.backstable_truncation(factor, cutoff)
                    rhs = Polynomial.sum(poly.backstable_truncation(sigma, cutoff)
                                         for sigma in shuffles.pieri_targets(p, i, k, variant))
                    assert lhs == rhs, (variant, str(p), i, k)
    with capsys.disabled():
        print("ACCEPTANCE 3 (Monk/Pieri truncated product identities): PASS")


def test_criterion_4_bijection_suites(capsys):
    """Insertion bijections with their counting identities."""
    for p in symmetric_group(4):
        words = reduced_words(p)
        for i in range(0, 5):
            outputs = []
            for w in words:
                for j in range(1, len(w) + 2):
                    out = shuffles.monk_shuffle(i, w, j)
                    outputs.append(out)
                    assert shuffles.monk_unshuffle(i, out, p) == (w, j)
            pool = sorted(w for s in shuffles.monk_rhs(p, i) for w in reduced_words(s))
            assert sorted(outputs) == pool
            assert (p.length + 1) * len(words) == len(pool)

    eight = [len(reduced_words(s))
             for s in shuffles.monk_rhs(parse_permutation("[321]"), 1)]
    assert sorted(eight) == [2, 3, 3] and sum(eight) == 8

    for p in symmetric_group(3):
        words = reduced_words(p)
        for variant in ("c", "r"):
            for k in (1, 2):
                for i in range(0, 4):
                    outputs = []
                    for w in words:
                        for positions in itertools.combinations(
                                range(1, len(w) + k + 1), k):
                            out = shuffles.pieri_shuffle(i, w, positions,
                                                         variant=variant)
                            outputs.append(out)
                            marked = shuffles.pieri_unshuffle(i, out, p,
                                                              variant=variant)
                            assert marked.word_and_positions() == (w, positions)
                    pool = sorted(w for s in shuffles.pieri_targets(p, i, k, variant)
                                  for w in reduced_words(s))
                    assert sorted(outputs) == pool
                    assert math.comb(p.length + k, k) * len(words) == len(pool)
    with capsys.disabled():
        print("ACCEPTANCE 4 (bijection suites with counting): PASS")


def test_criterion_5_subword_complex_sweep(capsys):
    """For every ambient word of length at most 7 over letters {1,2,3} and
    every contained permutation: purity in the right dimension, vertex
    decomposability, ridges in at most two facets, sphere exactly when the
    Demazure product hits the target, boundary faces matching the Demazure
    criterion, and the matching reduced Euler characteristic.  Slide
    complexes partition the facets."""
    identity = Permutation.identity()

    @lru_cache(maxsize=None)
    def leq(p, q):
        return perms.bruhat_leq(p, q)

    checked = 0
    for length in range(0, 8):
        for q_word in itertools.product((1, 2, 3), repeat=length):
            full = (1 << length) - 1
            dem = [identity] * (1 << length)
            for mask in range(1, full + 1):
                last = mask.bit_length() - 1
                dem[mask] = demazure_step(dem[mask & ~(1 << last)], q_word[last])
            targets = set(dem)
            for p in targets:
                checked += 1
                is_face = [leq(p, dem[full ^ m]) for m in range(full + 1)]
                face_masks = [m for m in range(full + 1) if is_face[m]]
                facet_masks = [m for m in face_masks
                               if all((m >> b) & 1 or not is_face[m | (1 << b)]
                                      for b in range(length))]
                facets = frozenset(
                    frozenset(b + 1 for b in range(length) if (m >> b) & 1)
                    for m in facet_masks)

                # purity in dimension len(Q) - len(p) - 1
                expected_size = length - p.length
                assert all(len(f) == expected_size for f in facets), (q_word, str(p))

                complex_ = complexes.SimplicialComplex(
                    tuple(range(1, length + 1)), facets)
                built = complexes.subword_complex(q_word, p)
                assert built.facets == facets

                result = complexes.classify_ball_or_sphere(complex_)
                assert result.kind in ("ball", "sphere"), (q_word, str(p))
                assert (result.kind == "sphere") == (dem[full] == p)

                ridge_counts = complex_.ridge_facet_counts()
                assert all(c <= 2 for c in ridge_counts.values())

                euler = sum((-1) ** (m.bit_count() - 1) for m in face_masks)
                if result.kind == "sphere":
                    assert euler == (-1) ** (expected_size - 1)
                else:
                    assert euler == 0

                boundary_expected = {
                    frozenset(b + 1 for b in range(length) if (m >> b) & 1)
                    for m in face_masks if dem[full ^ m] != p}
                assert complexes.boundary_faces(complex_) == boundary_expected

                # facets split across the slide complexes of the words
                split = []
                for w in reduced_words(p):
                    for emb in word_embeddings(q_word, w):
                        split.append(frozenset(range(1, length + 1)) - emb)
                assert len(split) == len(facets) and frozenset(split) == facets
    assert checked > 10000
    with capsys.disabled():
        print(f"ACCEPTANCE 5 (subword complex sweep, {checked} complexes): PASS")


def test_criterion_5_backwards_saturated_complexes(capsys):
    """Every backwards-saturated subset of the reduced words of a short S4
    permutation gives a ball-or-sphere word-set complex, as does the longer
    worked example.  The ambient is two staircase words in a row so that
    every reduced word embeds (words without a compatible sequence have no
    embedding in a single staircase and would only give the void complex).
    """
    ambient = pipedreams.triangular_word(4) * 2
    for p in symmetric_group(4):
        if not 1 <= p.length <= 4:
            continue
        words = reduced_words(p)
        for r in range(1, len(words) + 1):
            for subset in itertools.combinations(words, r):
                if not complexes.is_backwards_saturated(subset):
                    continue
                sub = complexes.word_set_complex(ambient, subset)
                assert not sub.is_void
                result = complexes.classify_ball_or_sphere(sub)
                assert result.kind in ("ball", "sphere"), (str(p), subset)

    q5 = pipedreams.triangular_word(5)
    example = [parse_word("1434"), parse_word("4134"), parse_word("4314"),
               parse_word("4341")]
    assert complexes.is_backwards_saturated(example)
    result = complexes.classify_ball_or_sphere(
        complexes.word_set_complex(q5, example))
    assert result.kind in ("ball", "sphere")
    with capsys.disabled():
        print("ACCEPTANCE 5b (backwards-saturated word-set complexes): PASS")


def test_criterion_6_tableau_complex_suites(capsys):
    """Tableau complexes of the three determined-by-content families are
    vertex-decomposable balls or spheres; the standard-tableau complex is
    not; interior faces match the topological boundary; the standardization
    decomposition refines the fundamental expansion."""
    for total in range(1, 5):
        for lam in _partitions(total):
            for n in range(1, 5):
                complex_ = complexes.tableau_complex("ssyt", lam, n)
                if complex_.is_void:
                    continue
                assert complexes.is_vertex_decomposable(complex_)
                assert complexes.classify_ball_or_sphere(complex_).kind in (
                    "ball", "sphere"), ("ssyt", lam, n)

    for total in range(1, 5):
        for lam in _compositions(total):
            for n in range(1, 5):
                complex_ = complexes.tableau_complex("ct", lam, n)
                if complex_.is_void:
                    continue
                assert complexes.classify_ball_or_sphere(complex_).kind in (
                    "ball", "sphere"), ("ct", lam, n)

    for total in range(1, 5):
        for parts in range(1, 5):
            for lam in compositions_weak(total, parts):
                complex_ = complexes.tableau_complex("wct", lam, parts)
                if complex_.is_void:
                    continue
                assert complexes.classify_ball_or_sphere(complex_).kind in (
                    "ball", "sphere"), ("wct", lam)

    assert complexes.classify_ball_or_sphere(
        complexes.tableau_complex("syt", (2, 1), 3)).kind == "neither"

    for total in range(1, 5):
        for lam in _partitions(total):
            for n in range(1, 5):
                complex_ = complexes.tableau_complex("ssyt", lam, n)
                if complex_.is_void:
                    continue
                interior = complexes.interior_faces("ssyt", lam, n)
                boundary = complexes.boundary_faces(complex_)
                all_faces = set(complex_.faces())
                assert interior | boundary == all_faces, (lam, n)
                assert not (interior & boundary), (lam, n)

    for total in range(1, 5):
        for lam in _partitions(total):
            for n in range(1, 5):
                decomposition = complexes.ssyt_standardization_decomposition(lam, n)
                if not decomposition:
                    continue
                ambient = complexes.tableau_ambient("ssyt", lam, n)
                whole = complexes.tableau_complex("ssyt", lam, n)
                all_facets = []
                for t, sub in decomposition.items():
                    result = complexes.classify_ball_or_sphere(sub)
                    assert result.kind in ("ball", "sphere"), (lam, n)
                    all_facets.extend(sub.facets)
                    generating = Polynomial.sum(
                        poly.from_weak_composition(shapes.set_valued_content(
                            complexes.elements_to_set_valued(
                                frozenset(ambient) - f, lam)))
                        for f in sub.facets)
                    comp = shapes.set_to_composition(shapes.descent_set(t), total) \
                        if total else ()
                    assert generating == poly.fundamental_quasisymmetric(comp, n)
                assert frozenset(all_facets) == whole.facets
                assert len(all_facets) == len(whole.facets)
    with capsys.disabled():
        print("ACCEPTANCE 6 (tableau complex suites): PASS")


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_criterion_7_stanley_reisner_shadow(capsys):
    """Only the squarefree face-ideal generators of the fully degenerate
    pipe dream complex are emitted; they and the facet complements match the
    combinatorial shadow of the five-component decomposition."""
    q = parse_word("321323")
    cells = [(1, 3), (1, 2), (1, 1), (2, 2), (2, 1), (3, 1)]
    complex_ = complexes.subword_complex(q, parse_permutation("[1432]"))
    gens = {frozenset(cells[p - 1] for p in g)
            for g in complexes.stanley_reisner_generators(complex_)}
    assert gens == {frozenset({(1, 2), (2, 1)}), frozenset({(1, 3), (2, 1)}),
                    frozenset({(1, 3), (2, 2)}), frozenset({(1, 2), (3, 1)}),
                    frozenset({(2, 2), (3, 1)})}
    components = {frozenset(cells[p - 1] for p in set(range(1, 7)) - f)
                  for f in complex_.facets}
    assert components == {
        frozenset({(1, 2), (1, 3), (2, 2)}), frozenset({(1, 2), (1, 3), (3, 1)}),
        frozenset({(1, 3), (2, 1), (3, 1)}), frozenset({(2, 1), (2, 2), (3, 1)}),
        frozenset({(1, 2), (2, 1), (2, 2)})}
    with capsys.disabled():
        print("ACCEPTANCE 7 (face-ideal shadow of the degenerate complex): PASS")


def test_criterion_8a_slide_sub_balls_of_the_staircase(capsys):
    """The slide expansion of S_p is a sum over sub-balls of Delta(Q_n, p):
    for every p in S1-S6, the facets grouped by the word their complement
    spells are slide complexes, each a ball, or the sphere when p = w0, and
    the slide polynomials of those words sum to S_p."""
    rng = random.Random(8)
    groups_by_n = []
    for n in range(1, 7):
        q = pipedreams.triangular_word(n)
        w0 = Permutation.from_one_line(range(n, 0, -1))
        groups = 0
        for p in symmetric_group(n):
            complex_ = complexes.subword_complex(q, p)
            by_word: dict[tuple, list] = {}
            for facet in complex_.facets:
                word = tuple(a for k, a in enumerate(q, start=1) if k not in facet)
                by_word.setdefault(word, []).append(facet)
            for word, facets in by_word.items():
                group = complexes.SimplicialComplex(complex_.vertices, frozenset(facets))
                if rng.random() < 0.05:
                    assert group == complexes.slide_complex(q, word), (str(p), word)
                kind = complexes.classify_ball_or_sphere(group).kind
                assert kind == ("sphere" if p == w0 else "ball"), (str(p), word)
            assert Polynomial.sum(poly.slide_of_word(w) for w in by_word) == poly.schubert(p)
            groups += len(by_word)
        groups_by_n.append(groups)
    assert groups_by_n[-1] == 2679
    with capsys.disabled():
        print(f"ACCEPTANCE 8a (slide sub-balls of Delta(Q_n, p), n = 1..6: "
              f"{', '.join(map(str, groups_by_n))} groups): PASS")
