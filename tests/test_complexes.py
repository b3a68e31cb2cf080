import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from schubcalc import complexes, perms, pipedreams, poly, shapes
from schubcalc.complexes import (
    SimplicialComplex,
    classify_ball_or_sphere,
    boundary_faces,
    interior_faces,
    is_backwards_saturated,
    is_vertex_decomposable,
    slide_complex,
    ssyt_standardization_decomposition,
    stanley_reisner_generators,
    subword_complex,
    tableau_complex,
    vertex_decomposition,
    word_set_complex,
)
from schubcalc.perms import parse_permutation, parse_word

from oracles import (
    antidiagonal_generators,
    boundary_faces_by_combinations,
    complement_facets_by_words,
    deletion_by_sets,
    elements_to_set_valued,
    face_by_binary_digits,
    faces_by_combinations,
    from_facets_by_scan,
    has_face_by_sets,
    interior_faces_by_tableaux,
    link_by_sets,
    reduced_euler_characteristic_by_submasks,
    ridge_facet_counts_by_sets,
    stanley_reisner_by_subset_scan,
    vertex_decomposition_by_deletion_link,
    word_embeddings,
)


def facets(*sets):
    return frozenset(frozenset(s) for s in sets)


def test_deletion_and_link_worked_example():
    """Complex on x1..x6 with facets {1,2,3,4}, {1,6}, {3,4,5}: deleting x1
    keeps {2,3,4}, {3,4,5}, {6}; the link of x1 is {2,3,4}, {6}."""
    c = SimplicialComplex.from_facets([{1, 2, 3, 4}, {1, 6}, {3, 4, 5}])
    assert c.deletion([1]).facets == facets({2, 3, 4}, {3, 4, 5}, {6})
    assert c.link([1]).facets == facets({2, 3, 4}, {6})
    assert c.link([]) == c
    with pytest.raises(ValueError):
        c.link([2, 5])


def test_cone_vertex_link_equals_deletion():
    c = SimplicialComplex.from_facets([{1, 2, 3}, {3, 4, 5}])
    assert c.cone_vertices() == (3,)
    assert c.deletion([3]).facets == c.link([3]).facets


def test_vertex_decomposability_base_cases():
    assert not is_vertex_decomposable(SimplicialComplex.void())
    simplex = SimplicialComplex.from_facets([{1, 2, 3, 4, 5}])
    assert is_vertex_decomposable(simplex)
    assert vertex_decomposition(simplex) is not None
    glued = SimplicialComplex.from_facets([{1, 2, 3}, {3, 4, 5}])
    assert vertex_decomposition(glued) is None


def _decomposition_cases():
    """Subword complexes Delta(Q_n, p) for all of S3-S5 and on random words,
    word-set complexes on proper subsets of R(p), tableau complexes, and the
    degenerate cases."""
    for n in (3, 4, 5):
        for p in perms.symmetric_group(n):
            yield subword_complex(pipedreams.triangular_word(n), p)
    rng = random.Random(4)
    for _ in range(300):
        q = tuple(rng.randint(1, 4) for _ in range(rng.randint(4, 11)))
        yield subword_complex(q, perms.demazure([a for a in q if rng.random() < 0.5]))
    ambient = parse_word("32132312")
    for p in perms.symmetric_group(4):
        words = perms.reduced_words(p)
        if len(words) > 6:
            continue
        for r in range(1, len(words)):
            for subset in itertools.combinations(words, r):
                yield word_set_complex(ambient, subset)
    for family, shape, n in [
            ("ssyt", (1, 1), 3), ("ssyt", (2, 1), 3), ("ssyt", (1, 1, 1), 4),
            ("ssyt", (3,), 3), ("ssyt", (2, 2), 3), ("ct", (1, 2), 3),
            ("ct", (2, 1), 3), ("ct", (1, 1, 1), 4), ("wct", (0, 2, 1), 3),
            ("wct", (1, 0, 2), 3), ("wct", (0, 1, 2), 3), ("wct", (1, 1, 1), 3)]:
        yield tableau_complex(family, shape, n)
    yield SimplicialComplex.void((1, 2))
    yield SimplicialComplex.from_facets([frozenset()])
    yield SimplicialComplex.from_facets([{1, 2}, {3, 4}])
    yield SimplicialComplex((1, 2, 3, 4, 5), facets({1, 2}, {2, 4}, {1, 4}))
    yield SimplicialComplex.from_facets([{1, 2}, {3}])


def test_memos_are_bounded():
    """The three process-global memos share one finite bound, and a repeated
    call is answered from the memo."""
    memos = {perms._reduced_words: parse_permutation("[4213]"),
             complexes._vd_tree: frozenset({0b011, 0b110}),
             complexes._bs_check: frozenset({(1, 2, 1), (2, 1, 2)})}
    bounds = {memo.cache_info().maxsize for memo in memos}
    assert len(bounds) == 1 and None not in bounds
    for memo, argument in memos.items():
        first = memo(argument)
        hits = memo.cache_info().hits
        assert memo(argument) == first
        assert memo.cache_info().hits == hits + 1


def test_vertex_decomposition_matches_deletion_link_walk():
    """The memoised search picks the same vertex at every node as the plain
    walk over deletions and links, trying vertices in sorted order."""
    checked = decomposable = 0
    for complex_ in _decomposition_cases():
        tree = vertex_decomposition(complex_)
        assert tree == vertex_decomposition_by_deletion_link(complex_), complex_
        assert is_vertex_decomposable(complex_) == (tree is not None), complex_
        checked += 1
        decomposable += tree is not None
    assert decomposable > 0 and checked - decomposable > 20


def test_vertex_decomposition_matches_walk_on_q6_sample():
    """A seeded sample of S6, every length possible, on the triangular word."""
    q = pipedreams.triangular_word(6)
    for p in random.Random(6).sample(list(perms.symmetric_group(6)), 16):
        complex_ = subword_complex(q, p)
        assert vertex_decomposition(complex_) == vertex_decomposition_by_deletion_link(complex_), p


def test_vertex_decomposition_survives_memo_clear():
    """The witness is rebuilt equal from an empty search memo."""
    cases = [subword_complex(pipedreams.triangular_word(5), p)
             for p in random.Random(5).sample(list(perms.symmetric_group(5)), 10)]
    cases.append(SimplicialComplex.from_facets([{1, 2}, {2, 4}, {1, 4}, {4, 5}]))
    before = [vertex_decomposition(c) for c in cases]
    complexes._vd_tree.cache_clear()
    assert [vertex_decomposition(c) for c in cases] == before


def test_vertex_decomposition_skips_a_vertex_that_does_not_shed():
    """The deletion of 1 leaves {2}, {3, 4}, not pure, so the search goes on
    to 2, on whose deletion {1, 3}, {3, 4} and link {1} the bit of 2 is
    unused."""
    tree = vertex_decomposition(SimplicialComplex.from_facets([{1, 2}, {1, 3}, {3, 4}]))
    assert tree == (2, (1, (3, (4, "leaf", "leaf"), (4, "leaf", "leaf")), (3, "leaf", "leaf")),
                    (1, "leaf", "leaf"))


def test_vertex_decomposition_shares_equal_subtrees():
    """In the cone over {2}, {3} the deletion and the link of 1 are equal."""
    tree = vertex_decomposition(SimplicialComplex.from_facets([{1, 2}, {1, 3}]))
    assert tree[0] == 1 and tree[1] == (2, (3, "leaf", "leaf"), "leaf")
    assert tree[1] is tree[2]


def test_tableau_builders_enumerate_once(monkeypatch):
    calls = []
    enumerate_tableaux = shapes.enumerate_tableaux

    def counted(*args):
        calls.append(args)
        return enumerate_tableaux(*args)

    monkeypatch.setattr(shapes, "enumerate_tableaux", counted)
    for build in (lambda: tableau_complex("ssyt", (2, 1), 3),
                  lambda: interior_faces("ssyt", (2, 1), 3),
                  lambda: ssyt_standardization_decomposition((2, 1), 3)):
        calls.clear()
        build()
        assert calls == [("ssyt", (2, 1), 3)]


def test_tableau_builders_with_phantom_ambient():
    """An ambient element in no tableau, in a box of the shape, is a cone
    point of the complex; the interior faces are those whose complement is a
    set-valued tableau."""
    for family, shape, n, phantom in [("ssyt", (2, 1), 3, ((1, 1), 4)),
                                      ("wct", (0, 2, 1), 3, ((2, 1), 4)),
                                      ("ct", (1, 2), 3, ((1, 1), 4)),
                                      ("syt", (2, 1), 3, ((2, 1), 4))]:
        ambient = frozenset(tableau_complex(family, shape, n).vertices) | {phantom}
        complex_ = tableau_complex(family, shape, n, ambient)
        assert complex_.vertices == tuple(sorted(ambient))
        assert complex_.facets == {ambient - complexes._tableau_elements(t)
                                   for t in shapes.enumerate_tableaux(family, shape, n)}
        assert phantom in complex_.cone_vertices()
        assert interior_faces(family, shape, n, ambient) == interior_faces_by_tableaux(
            family, shape, n, ambient)
    with pytest.raises(ValueError):
        tableau_complex("ssyt", (2, 1), 3, frozenset({((1, 1), 1)}))


@pytest.mark.parametrize("family, shape, n, outside", [
    ("wct", (0, 2, 1), 3, ((1, 1), 4)),   # a box of an empty row
    ("ssyt", (2, 1), 3, ((5, 5), 1)),     # below and right of the shape
    ("ssyt", (2, 1), 3, ((2, 2), 3)),     # past the end of a row
    ("ct", (1, 2), 3, ((0, 1), 1)),       # above the first row
    ("syt", (2, 1), 3, ((1, 0), 1)),      # left of the first column
])
def test_tableau_builders_reject_elements_outside_the_shape(family, shape, n, outside):
    """An element outside every box would sit in no selection, so the
    complement rule would count both F and F + {element} as interior."""
    ambient = frozenset(tableau_complex(family, shape, n).vertices) | {outside}
    with pytest.raises(ValueError, match="no box of the shape"):
        tableau_complex(family, shape, n, ambient)
    with pytest.raises(ValueError, match="no box of the shape"):
        interior_faces(family, shape, n, ambient)


def test_classification_examples():
    triangle_boundary = SimplicialComplex.from_facets([{1, 2}, {2, 3}, {1, 3}])
    assert classify_ball_or_sphere(triangle_boundary).kind == "sphere"
    solid = SimplicialComplex.from_facets([{1, 2, 3}])
    result = classify_ball_or_sphere(solid)
    assert result.kind == "ball"
    assert result.boundary_ridges == facets({1, 2}, {2, 3}, {1, 3})
    assert classify_ball_or_sphere(SimplicialComplex.from_facets([frozenset()])).kind == "sphere"


def test_euler_characteristic():
    triangle_boundary = SimplicialComplex.from_facets([{1, 2}, {2, 3}, {1, 3}])
    assert triangle_boundary.reduced_euler_characteristic() == -1  # 1-sphere
    solid = SimplicialComplex.from_facets([{1, 2, 3}])
    assert solid.reduced_euler_characteristic() == 0


def _random_complexes(seed, count):
    """Seeded complexes on up to 7 used vertices: reduced by from_facets or
    built directly with non-maximal facets, some with phantom vertices
    (listed but in no facet), plus {} with and without vertices."""
    rng = random.Random(seed)
    yield SimplicialComplex.from_facets([frozenset()])
    yield SimplicialComplex((1, 2, 3), facets(set()))
    for k in range(count):
        used = range(1, rng.randint(1, 7) + 1)
        raw = [frozenset(v for v in used if rng.random() < 0.5)
               for _ in range(rng.randint(1, 6))]
        vertices = tuple(used) + tuple(range(8, 8 + rng.randint(0, 2) * (k % 2)))
        if k % 3:
            yield SimplicialComplex.from_facets(raw, vertices)
        else:
            yield SimplicialComplex(vertices, frozenset(raw))


def test_euler_characteristic_matches_face_sum():
    """The deletion-link recursion gives the alternating sum over faces(),
    on random complexes, {} and the void complex."""
    cases = [*_random_complexes(5, 300), SimplicialComplex.void((1, 2))]
    for complex_ in cases:
        expected = sum((-1) ** (len(f) - 1) for f in complex_.faces())
        assert complex_.reduced_euler_characteristic() == expected, complex_
    assert SimplicialComplex.from_facets([frozenset()]).reduced_euler_characteristic() == -1
    assert SimplicialComplex.void().reduced_euler_characteristic() == 0


def test_mask_view_matches_frozenset_references():
    """Every routine that reads the int-mask view equals its frozenset
    reference: faces, has_face, deletion and link, ridge counts, boundary
    faces and the Euler characteristic, on seeded random complexes (phantom
    vertices, non-maximal and non-pure facets, {}), void complexes, tableau
    complexes (tuple vertices) and Delta(Q_n, p) for all of S4 and S5."""
    cases = [*_random_complexes(7, 300), SimplicialComplex.void((1, 2)),
             SimplicialComplex.void(), SimplicialComplex.from_facets([{1, 2}, {3}])]
    cases += [tableau_complex(family, shape, n) for family, shape, n in [
        ("ssyt", (2, 1), 3), ("ssyt", (2, 2), 3), ("ct", (1, 2), 3), ("wct", (0, 2, 1), 3),
        ("syt", (2, 1), 3)]]
    cases += [subword_complex(pipedreams.triangular_word(n), p)
              for n in (4, 5) for p in perms.symmetric_group(n)]
    rng = random.Random(8)
    kinds = set()
    for complex_ in cases:
        faces = faces_by_combinations(complex_)
        listed = list(complex_.faces())
        assert len(listed) == len(faces) and set(listed) == faces, complex_
        assert complex_.ridge_facet_counts() == ridge_facet_counts_by_sets(complex_), complex_
        boundary = boundary_faces(complex_)
        assert boundary == boundary_faces_by_combinations(complex_), complex_
        kinds.add((complex_.is_pure(), bool(boundary)))
        chi = sum((-1) ** (len(f) - 1) for f in faces) if faces else 0
        assert complex_.reduced_euler_characteristic() == chi, complex_
        assert reduced_euler_characteristic_by_submasks(complex_) == chi, complex_
        pool = list(complex_.vertices) + ["x"]
        probes = [frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
                  for _ in range(6)] + rng.sample(listed, min(2, len(listed)))
        for probe in probes:
            assert complex_.has_face(probe) == has_face_by_sets(complex_, probe), (complex_, probe)
            if has_face_by_sets(complex_, probe):
                assert complex_.deletion(probe) == deletion_by_sets(complex_, probe)
                assert complex_.link(probe) == link_by_sets(complex_, probe)
    assert kinds == {(True, True), (True, False), (False, False)}


def test_euler_characteristic_of_subword_complexes():
    """Knutson-Miller: Delta(Q, p) is a sphere, of reduced Euler
    characteristic (-1)^dim, when the Demazure product of Q is p, and a ball
    (0) otherwise; for every p in S5 over Q_5, and for Delta(Q_9,
    [163728495]), whose 1,288 facets of 25 vertices rule out a face walk."""
    q = pipedreams.triangular_word(5)
    for p in perms.symmetric_group(5):
        dim = len(q) - p.length - 1
        expected = (-1) ** dim if perms.demazure(q) == p else 0
        assert subword_complex(q, p).reduced_euler_characteristic() == expected, p
    large = subword_complex(pipedreams.triangular_word(9), parse_permutation("[163728495]"))
    assert len(large.facets) == 1288
    assert large.reduced_euler_characteristic() == 0


def test_subword_complex_facets_example():
    c = subword_complex(parse_word("321323"), parse_permutation("[1432]"))
    assert c.is_pure()
    assert c.dimension() == 6 - 3 - 1


def test_subword_complex_trivial_and_void():
    single = subword_complex(parse_word("232"), parse_permutation("[1432]"))
    assert single.facets == frozenset({frozenset()})
    void = subword_complex(parse_word("11"), parse_permutation("[1432]"))
    assert void.is_void


def test_subword_complex_ball_classification():
    q = parse_word("321323")
    target = parse_permutation("[1432]")
    assert perms.demazure(q) == parse_permutation("[4321]") != target
    result = classify_ball_or_sphere(subword_complex(q, target))
    assert result.kind == "ball"
    sphere = classify_ball_or_sphere(
        subword_complex(parse_word("2332"), parse_permutation("[1432]")))
    # demazure(2332) = s2 s3 s2 = [1432]
    assert perms.demazure(parse_word("2332")) == target
    assert sphere.kind == "sphere"


def test_slide_complex_partition():
    q = parse_word("321323")
    full = subword_complex(q, parse_permutation("[1432]"))
    part_323 = slide_complex(q, parse_word("323"))
    part_232 = slide_complex(q, parse_word("232"))
    assert part_232.facets == facets({1, 3, 6})
    assert part_323.facets | part_232.facets == full.facets
    assert not (part_323.facets & part_232.facets)


def test_word_set_complex_full_set():
    q = parse_word("321323")
    target = parse_permutation("[1432]")
    assert word_set_complex(q, perms.reduced_words(target)).facets == \
        subword_complex(q, target).facets


def test_word_set_complex_rejects_mixed_words():
    with pytest.raises(ValueError):
        word_set_complex(parse_word("1212"), [(1,), (2,)])
    with pytest.raises(ValueError):
        word_set_complex(parse_word("1212"), [(1, 1)])


def test_backwards_saturated_examples():
    assert is_backwards_saturated([])
    # all six orderings of three commuting letters, one word removed, fails
    letters = (1, 3, 5)
    import itertools
    all_words = [tuple(w) for w in itertools.permutations(letters)]
    assert is_backwards_saturated(all_words)
    assert not is_backwards_saturated(all_words[:-1])
    # two reduced words of [3421]: behind the letter 2 are 1232 and 3123, the
    # words behind the 1 of 1232 are {232}, and 3123 contains no 232, so the
    # set behind 2 fails and the whole set fails with it
    words = [parse_word("21232"), parse_word("23123")]
    assert {perms.prod_word(w) for w in words} == {parse_permutation("[3421]")}
    assert not is_backwards_saturated(words)


def test_backwards_saturated_word_set_complexes_are_balls_or_spheres():
    q = parse_word("4321432434")
    words = [parse_word("1434"), parse_word("4134"), parse_word("4314"),
             parse_word("4341")]
    result = classify_ball_or_sphere(word_set_complex(q, words))
    assert result.kind in ("ball", "sphere")


def test_stanley_reisner_examples():
    simplex = SimplicialComplex.from_facets([{1, 2, 3}])
    assert stanley_reisner_generators(simplex) == frozenset()
    triangle_boundary = SimplicialComplex.from_facets([{1, 2}, {2, 3}, {1, 3}])
    assert stanley_reisner_generators(triangle_boundary) == facets({1, 2, 3})
    phantom = SimplicialComplex((1, 2), facets({1}))
    assert stanley_reisner_generators(phantom) == facets({2})
    with pytest.raises(ValueError):
        stanley_reisner_generators(SimplicialComplex.void((1, 2)))


def test_stanley_reisner_matches_subset_scan():
    """The minimal-transversal search equals the subset scan on every
    Delta(Q_n, p), p in S4 and S5, and on seeded random complexes with
    phantom vertices, {} and non-maximal facets."""
    cases = [subword_complex(pipedreams.triangular_word(n), p)
             for n in (4, 5) for p in perms.symmetric_group(n)]
    cases += _random_complexes(6, 400)
    for complex_ in cases:
        assert stanley_reisner_generators(complex_) == stanley_reisner_by_subset_scan(complex_), \
            complex_


def test_stanley_reisner_matches_antidiagonals():
    """Knutson-Miller Theorem B: on Delta(Q_n, p) the minimal non-faces are
    the minimal antidiagonals on the essential set, for all of S3-S5 and a
    seeded sample of S6."""
    cases = [(n, p) for n in (3, 4, 5) for p in perms.symmetric_group(n)]
    cases += [(6, p) for p in random.Random(6).sample(list(perms.symmetric_group(6)), 40)]
    for n, p in cases:
        complex_ = subword_complex(pipedreams.triangular_word(n), p)
        assert stanley_reisner_generators(complex_) == antidiagonal_generators(p, n), p


def test_pipe_dream_complex_stanley_reisner():
    """For the staircase ambient word of [1432], the minimal non-faces match
    the quadratic monomials of the degenerate ideal, and facet complements
    match its five components, under the position-to-cell dictionary."""
    q = parse_word("321323")
    cells = [(1, 3), (1, 2), (1, 1), (2, 2), (2, 1), (3, 1)]
    complex_ = subword_complex(q, parse_permutation("[1432]"))
    gens = {frozenset(cells[p - 1] for p in g)
            for g in stanley_reisner_generators(complex_)}
    assert gens == {frozenset({(1, 2), (2, 1)}), frozenset({(1, 3), (2, 1)}),
                    frozenset({(1, 3), (2, 2)}), frozenset({(1, 2), (3, 1)}),
                    frozenset({(2, 2), (3, 1)})}
    components = {frozenset(cells[p - 1] for p in (set(range(1, 7)) - f))
                  for f in complex_.facets}
    assert components == {
        frozenset({(1, 2), (1, 3), (2, 2)}), frozenset({(1, 2), (1, 3), (3, 1)}),
        frozenset({(1, 3), (2, 1), (3, 1)}), frozenset({(2, 1), (2, 2), (3, 1)}),
        frozenset({(1, 2), (2, 1), (2, 2)})}


def test_boundary_faces_match_demazure_criterion():
    q = parse_word("321323")
    target = parse_permutation("[1432]")
    complex_ = subword_complex(q, target)
    expected = set()
    for face in complex_.faces():
        rest = tuple(a for p, a in enumerate(q, start=1) if p not in face)
        if perms.demazure(rest) != target:
            expected.add(face)
    assert boundary_faces(complex_) == frozenset(expected)


def test_tableau_complex_column_shape():
    c = tableau_complex("ssyt", (1, 1, 1), 4)
    assert classify_ball_or_sphere(c).kind in ("ball", "sphere")
    single = tableau_complex("ssyt", (1, 1, 1, 1), 4)
    assert single.facets == frozenset({frozenset()})


@pytest.mark.parametrize("build", [
    lambda shape, n: tableau_complex("ssyt", shape, n),
    lambda shape, n: tableau_complex("wct", shape, n),
    lambda shape, n: interior_faces("ct", shape, n),
    ssyt_standardization_decomposition,
])
def test_negative_variable_count_rejected(build):
    for shape in ((2, 1), ()):
        with pytest.raises(ValueError, match="at least 0, not -2"):
            build(shape, -2)


def test_syt_complex_is_neither():
    c = tableau_complex("syt", (2, 1), 3)
    assert len(c.facets) == 2


def test_wct_complex_differs_from_slide_complex_in_adjacency():
    """The slide complex of 323 has facets for the weights (2,1,0) and
    (0,2,1) sharing a vertex; the corresponding tableau complex facets are
    disjoint."""
    q = parse_word("321323")
    slide_part = slide_complex(q, parse_word("323"))
    f1 = frozenset({3, 5, 6})   # complement of the embedding with weight (2,1,0)
    f2 = frozenset({1, 2, 3})   # complement of the embedding with weight (0,2,1)
    assert f1 in slide_part.facets and f2 in slide_part.facets
    assert f1 & f2

    complex_ = tableau_complex("wct", (0, 2, 1), 3)
    ambient = frozenset(complex_.vertices)
    tableaux = {shapes.content(t): ambient - complexes._tableau_elements(t)
                for t in shapes.enumerate_tableaux("wct", (0, 2, 1), 3)}
    assert not (tableaux[(2, 1)] & tableaux[(0, 2, 1)])
    assert tableaux[(2, 1)] in complex_.facets


def test_ssyt_decomposition_small():
    decomposition = ssyt_standardization_decomposition((2, 1), 3)
    assert len(decomposition) == 2
    total_facets = sum(len(c.facets) for c in decomposition.values())
    assert total_facets == 8
    ambient = frozenset(tableau_complex("ssyt", (2, 1), 3).vertices)
    for t, sub in decomposition.items():
        result = classify_ball_or_sphere(sub)
        assert result.kind in ("ball", "sphere")
        generating = poly.Polynomial.sum(
            poly.from_weak_composition(shapes.set_valued_content(
                elements_to_set_valued(ambient - facet, (2, 1))))
            for facet in sub.facets)
        comp = shapes.set_to_composition(shapes.descent_set(t), 3)
        assert generating == poly.fundamental_quasisymmetric(comp, 3)


def test_word_embeddings():
    found = {tuple(sorted(e)) for e in word_embeddings(parse_word("321323"),
                                                       parse_word("323"))}
    assert found == {(1, 2, 4), (1, 2, 6), (1, 5, 6), (4, 5, 6)}
    assert word_embeddings(parse_word("11"), parse_word("121")) == []


def test_subword_walk_matches_word_route_on_staircases():
    """Delta(Q_n, p) for every p in S1-S6: the walk's facets are the
    complements of the embeddings of every reduced word of p."""
    for n in range(1, 7):
        q = pipedreams.triangular_word(n)
        for p in perms.symmetric_group(n):
            built = subword_complex(q, p)
            assert built.vertices == tuple(range(1, len(q) + 1))
            assert built.facets == complement_facets_by_words(q, perms.reduced_words(p)), p


def test_subword_walk_matches_word_route_on_random_words():
    """2,000 seeded words over the letters -1..5, of length 0-12, each with a
    permutation it mostly contains, and word-set complexes on random subsets
    of its reduced words, the empty subset included."""
    rng = random.Random(16)
    empty = 0
    for _ in range(2000):
        q = tuple(rng.randint(-1, 5) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.8:
            p = perms.demazure([a for a in q if rng.random() < 0.5])
        else:
            p = perms.prod_word([rng.randint(-1, 6) for _ in range(rng.randint(0, 4))])
        words = perms.reduced_words(p)
        assert subword_complex(q, p).facets == complement_facets_by_words(q, words), (q, p)
        subset = rng.sample(words, rng.randint(0, min(len(words), 4)))
        empty += not subset
        built = word_set_complex(q, subset)
        assert built.vertices == tuple(range(1, len(q) + 1))
        assert built.facets == complement_facets_by_words(q, subset), (q, subset)
    assert empty > 100


def test_subword_walk_degenerate_cases():
    identity = perms.Permutation.identity()
    s1 = perms.Permutation.simple(1)
    cases = {((), identity): facets(()),
             ((), s1): frozenset(),
             ((1, 2, 1), identity): facets({1, 2, 3}),
             ((1, 1), parse_permutation("[321]")): frozenset(),
             ((1, 2, 1), perms.Permutation.simple(3)): frozenset(),
             ((1, 2, 1), perms.Permutation.simple(0)): frozenset(),
             ((-1, 0, -1), parse_permutation("[1,0,-1]@-1")): facets(())}
    for (q, p), expected in cases.items():
        built = subword_complex(q, p)
        assert built.vertices == tuple(range(1, len(q) + 1))
        assert built.facets == expected == complement_facets_by_words(q, perms.reduced_words(p))
    assert word_set_complex((1, 2, 1), []) == SimplicialComplex.void((1, 2, 3))
    assert word_set_complex((), [()]).facets == facets(())


def test_subword_complex_lists_no_reduced_words():
    """Delta(Q_6, w0) is built without a call to the reduced-word memo."""
    w0 = perms.Permutation.from_one_line(range(6, 0, -1))
    before = perms._reduced_words.cache_info()
    built = subword_complex(pipedreams.triangular_word(6), w0)
    after = perms._reduced_words.cache_info()
    assert built.facets == facets(())
    assert after.hits + after.misses == before.hits + before.misses


def test_from_json_keeps_maximal_facets():
    """JSON listing a non-maximal facet loads to the same complex as JSON
    without it, and to_json round-trips."""
    wide = complexes.from_json({"vertices": [1, 2], "facets": [[1, 2], [1]]})
    tight = complexes.from_json({"vertices": [1, 2], "facets": [[1, 2]]})
    assert wide == tight and wide.facets == frozenset({frozenset({1, 2})})
    assert complexes.from_json(wide.to_json()) == wide
    assert wide.to_json() == {"vertices": [1, 2], "facets": [[1, 2]]}


def test_facets_must_lie_in_the_vertex_set():
    """A facet vertex missing from the given vertices is refused, by
    from_facets and by from_json; phantom vertices are still allowed."""
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([{1, 2}, {2, 3}], vertices=[1, 2])
    with pytest.raises(ValueError):
        complexes.from_json({"vertices": [1, 2], "facets": [[1, 2], [2, 3]]})
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([{("a", 1)}], vertices=[])
    phantom = SimplicialComplex.from_facets([{1, 2}], vertices=[1, 2, 3])
    assert phantom.used_vertices() == (1, 2)
    assert stanley_reisner_generators(phantom) == facets({3})


def _raw_facet_lists(seed, count):
    """Seeded face lists on up to 9 vertices, with duplicates, nested faces
    and, in every third list, a small face that nothing else contains; each
    with or without a vertex set holding phantom vertices."""
    rng = random.Random(seed)
    for k in range(count):
        used = list(range(1, rng.randint(1, 9) + 1))
        raw = [frozenset(rng.sample(used, rng.randint(0, len(used))))
               for _ in range(rng.randint(1, 8))]
        raw += [raw[0], raw[-1] - {min(raw[-1], default=0)}]
        if k % 3 == 0:
            raw.append({100 + k})
        vertices = None if k % 2 else sorted(set().union(*raw)) + [200, 201][:k % 3]
        yield [sorted(f) for f in raw], vertices


def test_from_facets_matches_the_inclusion_scan():
    """The mask filter of from_facets keeps what the frozenset inclusion scan
    keeps: seeded duplicate, nested and non-pure lists, the void complex,
    {} and phantom vertices."""
    cases = list(_raw_facet_lists(23, 300)) + [
        ([], None), ([], [1, 2]), ([[]], None), ([[]], [3]), ([[1], [1, 2], [3]], [1, 2, 3, 4]),
        ([[1, 2, 3], [4], [1, 2], [2, 3, 4], [4]], None),
        ([[("a", 1)], [("a", 1), ("b", 2)], [("c", 3)]], None)]
    for raw, vertices in cases:
        got = SimplicialComplex.from_facets(raw, vertices)
        assert got == from_facets_by_scan(raw, vertices), (raw, vertices)
    assert SimplicialComplex.from_facets([]).is_void
    assert SimplicialComplex.from_facets([[]]).facets == facets(set())
    assert SimplicialComplex.from_facets([[1, 2], [3]], [4, 3, 2, 1]).vertices == (4, 3, 2, 1)
    for raw, vertices in ([[{1, 2}, {2, 3}], [1, 2]], [[[1], [4, 1]], [4]], [[[5]], []]):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(raw, vertices)
        with pytest.raises(ValueError):
            from_facets_by_scan(raw, vertices)
    # the masks order the used vertices, so ones that do not sort fail here
    with pytest.raises(TypeError):
        SimplicialComplex.from_facets([[1, "a"]], vertices=[1, "a"])


_vertex_lists = st.sampled_from([
    st.integers(-3, 12),
    st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)), st.integers(1, 4)),
]).flatmap(lambda vertex: st.lists(vertex, unique=True, max_size=8))


@st.composite
def _complexes(draw):
    """A complex on distinct int or tableau vertices, from up to six drawn
    faces: phantom vertices, the void complex and {} all occur."""
    vertices = draw(_vertex_lists)
    face = st.sets(st.sampled_from(vertices)) if vertices else st.just(set())
    return SimplicialComplex.from_facets(draw(st.lists(face, max_size=6)), vertices)


@st.composite
def _pure_complexes(draw):
    """A pure complex on three or more vertices of `_complexes`, from two to
    eight drawn faces of one size, at least two: phantom vertices and
    complexes that are not vertex-decomposable occur."""
    vertices = draw(_vertex_lists.filter(lambda vs: len(vs) >= 3))
    size = draw(st.integers(2, len(vertices) - 1))
    face = st.sets(st.sampled_from(vertices), min_size=size, max_size=size)
    return SimplicialComplex.from_facets(draw(st.lists(face, min_size=2, max_size=8)), vertices)


@settings(max_examples=200, deadline=None)
@given(_complexes())
@example(SimplicialComplex.void([1, 2]))
@example(SimplicialComplex.from_facets([[]], [((1, 1), 2)]))
@example(tableau_complex("wct", (0, 2, 1), 3, frozenset(
    tableau_complex("wct", (0, 2, 1), 3).vertices) | {((2, 1), 4)}))
def test_json_round_trip(c):
    assert complexes.from_json(json.loads(json.dumps(c.to_json()))) == c


@settings(max_examples=200, deadline=None)
@given(_pure_complexes())
@example(SimplicialComplex.from_facets([{-4, -3}, {-4, -2}, {-2, -1}], [-5, -4, -3, -2, -1]))
@example(SimplicialComplex.from_facets(
    [{((1, 1), 1), ((1, 1), 2)}, {((1, 1), 1), ((1, 2), 1)}, {((1, 2), 1), ((2, 1), 3)}],
    [((1, 1), 1), ((1, 1), 2), ((1, 1), 4), ((1, 2), 1), ((2, 1), 3)]))
def test_vertex_decomposition_matches_walk_on_drawn_pure_complexes(c):
    """The search on the complex's own masks, whose deletions and links leave
    bits unused, against the plain walk, on negative and tableau labels; the
    examples are the complex whose lowest vertex does not shed, relabelled,
    with a phantom vertex."""
    tree = vertex_decomposition(c)
    assert tree == vertex_decomposition_by_deletion_link(c)
    assert is_vertex_decomposable(c) == (tree is not None)


def test_table_decoder_matches_binary_digits():
    """`_faces` equals the digit-by-digit decode on seeded random masks, in
    the order of the masks: orders of 0 to 25 vertices, on both sides of the
    8-bit table and of the 16-bit mark, and tuple (tableau) vertices, with 1,
    2, 5 and 300 masks, so every table width and the high-bit decode run."""
    rng = random.Random(17)
    orders = [tuple(range(10, 10 + n)) for n in (0, 1, 7, 8, 9, 15, 16, 17, 25)]
    orders.append(tableau_complex("ssyt", (3, 2), 4).vertices)
    for order in orders:
        for count in (1, 2, 5, 300):
            masks = [rng.getrandbits(len(order)) for _ in range(count)]
            masks[0] = (1 << len(order)) - 1
            decoded = complexes._faces(order, masks)
            assert not isinstance(decoded, (list, tuple, set, frozenset))
            assert list(decoded) == [face_by_binary_digits(order, m) for m in masks], (order, count)
            keyed = dict.fromkeys(masks)
            assert dict(zip(complexes._faces(order, keyed), keyed)) == {
                face_by_binary_digits(order, m): m for m in keyed}


def _submask_union(masks):
    return {s for m in masks for s in range(m + 1) if s & m == s}


def test_closure_is_the_submask_union():
    """`_closure` walks only the submasks that hold every bit whose removal
    gives a listed mask; it must still list every submask of every mask in
    any container, with duplicates, nested masks and 0, and where the
    sorted order is no shelling (two triangles on one vertex, two disjoint
    edges), and on seeded random mask sets over up to 10 bits."""
    cases = [[0b111, 0b11100], [0b11, 0b1100], [0b1011, 0b1011, 0b11, 0b1],
             [0], [0, 0b101], [0b110, 0b111000, 0b1], []]
    rng = random.Random(18)
    cases += [[rng.getrandbits(rng.randint(0, 10)) for _ in range(rng.randint(0, 8))]
              for _ in range(300)]
    for masks in cases:
        expected = _submask_union(masks)
        for given in (list(masks), tuple(masks), frozenset(masks), reversed(masks),
                      (m for m in masks)):
            assert complexes._closure(given) == expected, masks
    assert complexes._closure([]) == set()


def test_boundary_faces_match_combinations_on_q6_sample():
    """Delta(Q_6, p) has 15 vertices, so its boundary masks decode through
    the table and the high bits; a seeded sample of S6."""
    q = pipedreams.triangular_word(6)
    for p in random.Random(21).sample(list(perms.symmetric_group(6)), 10):
        complex_ = subword_complex(q, p)
        assert boundary_faces(complex_) == boundary_faces_by_combinations(complex_), p


def test_cached_classification_is_order_free():
    """classify_ball_or_sphere, boundary_faces and is_vertex_decomposable
    share one cached classification: called in each of the six orders on a
    fresh copy, they give the answers of the first order, on the subword
    complexes of criterion 5 for words of length at most 5, on the deletions
    and links of a vertex, and on four complexes that are neither.
    Equality, hash and to_json ignore the cached entry."""
    calls = (classify_ball_or_sphere, boundary_faces, is_vertex_decomposable)
    cases = set()
    for length in range(6):
        for q in itertools.product((1, 2, 3), repeat=length):
            for p in {perms.demazure(sub) for r in range(length + 1)
                      for sub in itertools.combinations(q, r)}:
                c = subword_complex(q, p)
                cases.add(c)
                if c.used_vertices():
                    v = c.used_vertices()[0]
                    cases |= {c.deletion([v]), c.link([v])}
    # void, not pure, not vertex-decomposable, a ridge in three facets
    cases |= {SimplicialComplex.void((1, 2)), SimplicialComplex.from_facets([{1, 2}, {3}]),
              SimplicialComplex.from_facets([{1, 2}, {3, 4}]),
              SimplicialComplex.from_facets([{1, 2}, {1, 3}, {1, 4}])}
    kinds = set()
    for c in cases:
        expected = None
        for order in itertools.permutations(range(3)):
            fresh = SimplicialComplex(c.vertices, c.facets)
            got = [None] * 3
            for k in order:
                got[k] = calls[k](fresh)
            assert "_classified" in vars(fresh) and "_classified" not in vars(c)
            assert fresh == c and hash(fresh) == hash(c) and fresh.to_json() == c.to_json()
            if expected is None:
                expected = got
            assert got == expected, (c, order)
        kinds.add(expected[0].kind)
    assert kinds == {"ball", "sphere", "neither"}


def test_json_and_renderers():
    c = subword_complex(parse_word("321323"), parse_permutation("[1432]"))
    assert complexes.from_json(c.to_json()) == c
    dot = complexes.to_dot(c)
    assert dot.startswith("graph complex {")
    svg = complexes.to_svg(c)
    assert svg.startswith("<svg")
    deep = SimplicialComplex.from_facets([{1, 2, 3, 4}])
    with pytest.raises(ValueError):
        complexes.to_dot(deep)
