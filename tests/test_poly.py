import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from schubcalc import perms, pipedreams, poly, shapes
from schubcalc.perms import Permutation, parse_permutation, parse_word, symmetric_group
from schubcalc.poly import (
    Polynomial,
    backstable_truncation,
    expand_grothendieck_into_glides,
    expand_schubert_into_slides,
    expand_schur_into_fundamentals,
    from_weak_composition,
    fundamental_quasisymmetric,
    glide,
    grothendieck,
    schubert,
    schur,
    slide,
    slide_of_word,
)
from schubcalc.shuffles import monk_covers

from oracles import (
    compositions_weak,
    dominates,
    from_exponent_word,
    glide_from_kompositions,
    glide_of_word_by_filter,
    grothendieck_by_divided_differences,
    grothendieck_by_divided_differences_at,
    schubert_from_words,
)


def mono(d, c=1):
    return Polynomial.monomial(d, c)


# -- ring operations -------------------------------------------------------


def test_ring_basics():
    p = mono({1: 2}) + mono({2: 1}, 3)
    assert p + Polynomial.zero() == p
    assert p + 0 == p
    assert Polynomial.variable(1) * Polynomial.variable(2) == mono({1: 1, 2: 1})
    assert p - p == Polynomial.zero()
    assert (p * 0) == Polynomial.zero()
    assert Polynomial.one() * p == p


def test_constants_hash_as_the_ints_they_equal():
    """A polynomial that equals an int hashes as it, so the two are one key."""
    for c in (-2, 0, 1, 3, 2 ** 70):
        assert Polynomial.constant(c) == c and hash(Polynomial.constant(c)) == hash(c)
        assert len({Polynomial.constant(c), c}) == 1
    assert hash(Polynomial.zero()) == hash(0) and hash(Polynomial({(): 0})) == 0
    assert {Polynomial.one(): "one"}[1] == "one"
    x = Polynomial.variable(1)
    assert x + 3 != 3 and len({x + 3, 3, x}) == 3


_terms = st.lists(
    st.tuples(st.dictionaries(st.integers(-3, 3), st.integers(1, 3), max_size=3),
              st.integers(-5, 5)),
    max_size=5)


def _build(terms):
    return Polynomial.sum(mono(exps, coeff) for exps, coeff in terms)


def _naive_mul(p, q):
    terms = []
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1)
            for i, e in m2:
                exps[i] = exps.get(i, 0) + e
            terms.append(mono(exps, c1 * c2))
    return Polynomial.sum(terms)


@settings(max_examples=60, deadline=None)
@given(_terms, _terms)
def test_mul_matches_naive_convolution(ta, tb):
    a, b = _build(ta), _build(tb)
    assert a * b == _naive_mul(a, b)
    assert a * b == b * a


@settings(max_examples=30, deadline=None)
@given(_terms, _terms, _terms)
def test_distributivity(ta, tb, tc):
    a, b, c = _build(ta), _build(tb), _build(tc)
    assert a * (b + c) == a * b + a * c


_monomials = st.dictionaries(st.integers(-3, 3), st.integers(1, 3), max_size=3).map(
    lambda exps: tuple(sorted(exps.items())))
_term_dicts = st.dictionaries(_monomials, st.integers(-3, 3).filter(bool), max_size=6)


@st.composite
def _cancelling_pairs(draw):
    """Two term dicts, the second negating some terms of the first."""
    a, b = draw(_term_dicts), draw(_term_dicts)
    for m in draw(st.sets(st.sampled_from(sorted(a)))) if a else ():
        b[m] = -a[m]
    return a, b


def _clean(terms):
    return {m: c for m, c in terms.items() if c}


def _dict_add(*dicts):
    out = {}
    for terms in dicts:
        for m, c in terms.items():
            out[m] = out.get(m, 0) + c
    return _clean(out)


@settings(max_examples=150, deadline=None)
@given(_cancelling_pairs(), st.integers(-3, 3), st.integers(-3, 3),
       st.sets(st.integers(-3, 3)))
def test_folds_match_dict_routes(pair, i, j, kill):
    """Sums, products, the variable swap and zero substitution, and the JSON
    round trip (also of a term list naming a monomial twice) agree with
    plain dict arithmetic and never keep a zero coefficient."""
    a, b = pair
    f, g = Polynomial(a), Polynomial(b)
    neg_b = {m: -c for m, c in b.items()}
    assert (f + g).terms == _dict_add(a, b)
    assert (f - g).terms == _dict_add(a, neg_b)
    assert Polynomial.sum([f, g, f, -g]).terms == _dict_add(a, a)
    product = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for k, e in m2:
                exps[k] = exps.get(k, 0) + e
            m = tuple(sorted(exps.items()))
            product[m] = product.get(m, 0) + c1 * c2
    assert (f * g).terms == _clean(product)
    swapped = {}
    for m, c in a.items():
        exps = dict(m)
        exps[i], exps[j] = exps.get(j, 0), exps.get(i, 0)
        key = tuple(sorted((k, e) for k, e in exps.items() if e))
        swapped[key] = swapped.get(key, 0) + c
    assert f.swap_variables(i, j).terms == _clean(swapped)
    assert f.substitute_zero(kill).terms == {m: c for m, c in a.items()
                                             if not kill & dict(m).keys()}
    assert Polynomial.from_json(f.to_json()).terms == a
    assert Polynomial.from_json(f.to_json() + g.to_json()).terms == _dict_add(a, b)


def test_printing_and_json():
    p = mono({1: 2, 2: 1}) - mono({-1: 1}, 2) + Polynomial.one()
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.one()) == "1"
    assert str(mono({1: 2}, -1)) == "-x_1^2"
    assert "x_-1" in str(p)
    assert Polynomial.from_json(p.to_json()) == p


def test_from_json_builds_canonical_monomials():
    """from_json keys its monomials as Polynomial.monomial does: a zero
    exponent is dropped and a negative one is refused by both."""
    assert Polynomial.from_json([{"exponents": {"1": 0}, "coeff": 1}]) == Polynomial.one()
    assert Polynomial.from_json([{"exponents": {"1": 0, "2": 1}, "coeff": 3}]) == mono({2: 1}, 3)
    with pytest.raises(ValueError):
        Polynomial.from_json([{"exponents": {"1": -2}, "coeff": 1}])
    with pytest.raises(ValueError):
        Polynomial.monomial({1: -2})


@settings(max_examples=100, deadline=None)
@given(_term_dicts)
def test_json_round_trip(terms):
    p = Polynomial(terms)
    assert Polynomial.from_json(json.loads(json.dumps(p.to_json()))) == p


# -- schubert / grothendieck ------------------------------------------------


def test_schubert_two_routes_agree():
    for p in symmetric_group(4):
        assert schubert(p) == schubert_from_words(p)


def test_grothendieck_examples():
    assert grothendieck(Permutation.identity()) == Polynomial.one()
    assert grothendieck(parse_permutation("[21]")) == mono({1: 1})
    g = grothendieck(parse_permutation("[1432]"))
    assert g.lowest_degree_part() == schubert(parse_permutation("[1432]"))


def test_grothendieck_lowest_degree_is_schubert():
    for p in symmetric_group(4):
        assert grothendieck(p).lowest_degree_part() == schubert(p)


@pytest.mark.parametrize("n", [4, 5])
def test_grothendieck_matches_divided_differences(n):
    """Pipe dreams and isobaric divided differences from G_{w0} give the same
    Grothendieck polynomial on all of S_n."""
    expected = grothendieck_by_divided_differences(n)
    assert len(expected) == len(list(symmetric_group(n)))
    for p, g in expected.items():
        assert grothendieck(p) == g, str(p)


@pytest.mark.parametrize("n", [7, 8])
def test_families_match_second_routes_on_a_sample(n):
    """On a seeded sample of S7 and S8 the merged-state pass agrees with
    divided differences down a chain from G_{w0}, and with the reduced-word
    route for Schubert where that route stays cheap (length at most 10: a
    random S8 permutation can have millions of reduced words)."""
    rng = random.Random(n)
    for _ in range(12):
        p = Permutation.from_one_line(rng.sample(range(1, n + 1), n))
        g = grothendieck(p)
        assert g == grothendieck_by_divided_differences_at(p, n), str(p)
        assert g.lowest_degree_part() == schubert(p), str(p)
        if p.length <= 10:
            assert schubert(p) == schubert_from_words(p), str(p)


def test_grothendieck_s7_transposition():
    """A single transposition in S7, out of reach of a scan over the 2^21
    subsets of the staircase."""
    p = parse_permutation("[1234576]")
    g = grothendieck(p)
    assert len(g.terms) == 63
    assert sum(g.terms.values()) == 1
    assert g.lowest_degree_part() == schubert(p)


# -- schur / fundamental quasisymmetric --------------------------------------


def test_schur_examples():
    assert schur((1,), 2) == mono({1: 1}) + mono({2: 1})
    s21 = schur((2, 1), 3)
    assert sum(s21.terms.values()) == 8
    assert s21.coefficient({1: 1, 2: 1, 3: 1}) == 2


def test_schur_symmetry():
    for total in range(1, 6):
        for lam in _partitions(total):
            s = schur(lam, 4)
            for i in range(1, 4):
                assert s.swap_variables(i, i + 1) == s, (lam, i)


def _partitions(total, cap=None):
    cap = cap or total
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_fundamental_quasisymmetric_examples():
    assert fundamental_quasisymmetric((3,), 1) == mono({1: 3})


def _fqs_oracle(comp, n):
    """Sum over weakly increasing sequences, strict at the descent set."""
    strict = shapes.composition_to_set(comp)
    k = sum(comp)
    return Polynomial.sum(from_exponent_word(seq)
                          for seq in itertools.combinations_with_replacement(range(1, n + 1), k)
                          if all(seq[j] > seq[j - 1] for j in strict))


def test_fundamental_quasisymmetric_against_sequence_formula():
    for total in range(1, 6):
        for comp in _compositions(total):
            assert fundamental_quasisymmetric(comp, 4) == _fqs_oracle(comp, 4)


def test_quasisymmetry_of_fundamental():
    """Coefficients only depend on the exponent composition, not on which
    increasing variable set carries it."""
    n = 4
    for total in range(1, 6):
        for comp in _compositions(total):
            f = fundamental_quasisymmetric(comp, n)
            for exps in _compositions(total):
                if len(exps) > n:
                    continue
                reference = None
                for support in itertools.combinations(range(1, n + 1), len(exps)):
                    coeff = f.coefficient(dict(zip(support, exps)))
                    if reference is None:
                        reference = coeff
                    assert coeff == reference


# -- slide / glide -----------------------------------------------------------


def test_slide_examples():
    assert slide_of_word((1, 2, 1)) == Polynomial.zero()


def _slide_oracle(shape):
    return Polynomial.sum(from_weak_composition(d)
                          for d in compositions_weak(sum(shape), len(shape))
                          if dominates(d, shape) and _refine_ok(d, shape))


def _refine_ok(d, shape):
    fd, fs = shapes.flatten(d), shapes.flatten(shape)
    if not fs:
        return not fd
    if not fd:
        return False
    return shapes.refines(fd, fs)


def test_slide_two_routes_agree():
    for total in range(0, 6):
        for parts in range(0, 5):
            for lam in compositions_weak(total, parts):
                assert slide(lam) == _slide_oracle(lam), lam


def test_fundamental_is_padded_slide():
    """Prepending n zero rows to a composition turns its fundamental
    quasisymmetric polynomial into a slide polynomial, after restricting the
    slide to the first n variables."""
    for total in range(1, 5):
        for comp in _compositions(total):
            for n in range(1, 4):
                padded = (0,) * n + comp
                restricted = slide(padded).substitute_zero(
                    range(n + 1, n + len(comp) + 1))
                assert fundamental_quasisymmetric(comp, n) == restricted, (comp, n)


def test_glide_examples():
    assert glide((3,)) == mono({1: 3})
    expected = (mono({1: 1, 2: 1}) + mono({1: 1, 3: 1}) + mono({2: 1, 3: 1})
                - mono({1: 1, 2: 1, 3: 1}, 2))
    assert glide((0, 1, 1)) == expected


def test_glide_two_routes_agree():
    for total in range(0, 5):
        for parts in range(0, 4):
            for lam in compositions_weak(total, parts):
                assert glide(lam) == glide_from_kompositions(lam), lam


def test_slide_glide_and_fundamental_memos():
    """Each composition is computed once per process; every call still
    returns a fresh Polynomial, so mutating one leaves the memo intact."""
    memos = ((lambda: slide((0, 2, 1)), poly._tableau_terms),
             (lambda: glide((0, 2, 1)), poly._glide_terms),
             (lambda: fundamental_quasisymmetric((2, 1), 3), poly._tableau_terms))
    for call, memo in memos:
        assert memo.cache_info().maxsize == perms._reduced_words.cache_info().maxsize
        first = call()
        hits = memo.cache_info().hits
        second = call()
        assert memo.cache_info().hits == hits + 1
        assert first is not second and first == second
        expected = dict(second.terms)
        first.terms.clear()
        second.terms[((1, 1),)] = 7
        assert call().terms == expected


def test_glide_lowest_degree_is_slide():
    for total in range(0, 5):
        for parts in range(0, 5):
            for lam in compositions_weak(total, parts):
                assert glide(lam).lowest_degree_part() == slide(lam), lam


# -- back-stable truncations --------------------------------------------------


def test_backstable_examples():
    assert backstable_truncation(Permutation.identity(), -5) == Polynomial.one()
    assert backstable_truncation(parse_permutation("[21]"), 0) == \
        mono({0: 1}) + mono({1: 1})
    assert backstable_truncation(parse_permutation("[2,1,0]@0"), 0) == mono({0: 2, 1: 1})
    assert backstable_truncation(parse_permutation("[2,1,0]@0"), 1) == Polynomial.zero()
    for p in symmetric_group(4):
        assert backstable_truncation(p, 1) == schubert(p)


def _check_backstable_against_words(p, lowest_index):
    """The shifted search equals the word route term for term, prints and
    serialises the same, and is zero exactly when p moves a point below the
    lowest index."""
    result = backstable_truncation(p, lowest_index)
    expected = schubert_from_words(p, lowest_index=lowest_index)
    case = (str(p), lowest_index)
    assert result == expected, case
    assert str(result) == str(expected) and result.to_json() == expected.to_json(), case
    _assert_normal(result)
    below = p.support is not None and p.support[0] < lowest_index
    assert (result == Polynomial.zero()) == below, case


def test_backstable_truncation_matches_the_word_route():
    """Every p in S1-S4, moved by tau to start at -2, 0, 1 and 3, at every
    lowest index from -3 to 2: 792 cases, among them windows with entries at
    or below 0 that are zero."""
    cases = 0
    for m in range(1, 5):
        for p in symmetric_group(m):
            for shift in (-3, -1, 0, 2):
                for lowest_index in range(-3, 3):
                    _check_backstable_against_words(perms.tau(p, shift), lowest_index)
                    cases += 1
    assert cases == 792


def test_backstable_truncation_matches_the_word_route_on_s5():
    """A seeded sample of S5: all of S5 at every shift and lowest index
    takes the word route about half a minute."""
    rng = random.Random(5)
    for _ in range(20):
        p = perms.tau(Permutation.from_one_line(rng.sample(range(1, 6), 5)), rng.choice((-3, -1, 0, 2)))
        _check_backstable_against_words(p, rng.randint(-3, 2))


def test_monk_rule_as_truncated_polynomials():
    """Multiplying by a simple class matches the sum over Bruhat covers
    straddling i, after killing all variables below the cutoff."""
    cutoff = -2
    for p in symmetric_group(3):
        for i in range(0, 4):
            lhs = backstable_truncation(p, cutoff) * \
                backstable_truncation(Permutation.simple(i), cutoff)
            rhs = Polynomial.sum(
                backstable_truncation(p * Permutation.transposition(a, b), cutoff)
                for (a, b) in monk_covers(p, i))
            assert lhs == rhs, (str(p), i)


# -- expansions ----------------------------------------------------------------


def test_expand_schubert_into_slides_examples():
    expansion = expand_schubert_into_slides(parse_permutation("[1432]"))
    assert expansion[(3, 2, 3)] == slide((0, 2, 1))
    assert expansion[(2, 3, 2)] == slide((1, 2, 0))
    assert Polynomial.sum(expansion.values()) == schubert(parse_permutation("[1432]"))
    identity_expansion = expand_schubert_into_slides(Permutation.identity())
    assert identity_expansion == {(): Polynomial.one()}


def test_expand_schubert_into_slides_s4():
    for p in symmetric_group(4):
        assert Polynomial.sum(expand_schubert_into_slides(p).values()) == schubert(p)


def test_expand_schur_examples():
    assert expand_schur_into_fundamentals((1,), 2) == {
        ((1,),): fundamental_quasisymmetric((1,), 2)}
    for lam in [(2, 2), (3, 1), (2, 1, 1)]:
        assert Polynomial.sum(expand_schur_into_fundamentals(lam, 4).values()) == schur(lam, 4)


def test_glide_of_word():
    """On a reduced word the glide of the word extends the slide of the word;
    on an unrepresentable word it vanishes; on a non-reduced word it matches
    the weight of the quasi-Yamanouchi pipe dream with that reading word."""
    from schubcalc.poly import glide_of_word

    assert glide_of_word(parse_word("323")).lowest_degree_part() == \
        slide_of_word(parse_word("323"))
    assert glide_of_word((1, 2, 1)) == Polynomial.zero()
    # no pipe dream reads a letter below 1, as for slide_of_word
    assert glide_of_word((1, 0)) == slide_of_word((1, 0)) == Polynomial.zero()
    # two equal adjacent letters: the greatest rows put the pair in adjacent
    # rows, the upper one's leftmost cross right of every cross below it
    for text in ("11", "2332", "1221"):
        word = parse_word(text)
        assert glide_of_word(word) == glide_of_word_by_filter(word) == Polynomial.zero()
    for p in [parse_permutation("[1432]"), parse_permutation("[321]")]:
        for dream in pipedreams.quasi_yamanouchi_pipe_dreams(p, reduced_only=False):
            assert glide_of_word(dream.reading_word()) == glide(dream.weight())


def test_glide_of_word_matches_filter():
    """The greatest-rows dream, kept when quasi-Yamanouchi, gives the glide
    the filter over every pipe dream of the word's Demazure product gives:
    on every word of length at most 6 over the letters 1..4."""
    from schubcalc.poly import glide_of_word

    hits = 0
    for length in range(7):
        for word in itertools.product(range(1, 5), repeat=length):
            value = glide_of_word(word)
            assert value == glide_of_word_by_filter(word), word
            hits += bool(value)
    assert hits == 301


def test_expand_grothendieck_examples():
    assert expand_grothendieck_into_glides(Permutation.identity()) == {
        pipedreams.PipeDream.empty(1): Polynomial.one()}
    p21 = parse_permutation("[21]")
    expansion = expand_grothendieck_into_glides(p21)
    only = pipedreams.PipeDream(2, frozenset({(1, 1)}))
    assert expansion == {only: glide((1,))}
    for p in symmetric_group(3):
        assert Polynomial.sum(expand_grothendieck_into_glides(p).values()) == grothendieck(p)


def test_sum_matches_plus_fold():
    """Polynomial.sum equals the left fold of +, on seeded random summands
    that cancel, on summands summing to zero and on the empty sum."""
    rng = random.Random(11)
    for _ in range(200):
        summands = [Polynomial({tuple(sorted({rng.randint(-2, 3): rng.randint(1, 2)
                                              for _ in range(rng.randint(0, 2))}.items())):
                                rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})
                    for _ in range(rng.randint(0, 6))]
        folded = Polynomial.zero()
        for f in summands:
            folded = folded + f
        assert Polynomial.sum(summands) == folded
        assert Polynomial.sum(iter(summands)) == folded
        assert not Polynomial.sum(summands + [-f for f in summands]).terms
    assert Polynomial.sum([]) == Polynomial.zero()
    assert Polynomial.sum([mono({1: 1}), mono({1: 1}, -1)]).terms == {}


def _differential_sample():
    """All of S1-S5 and a seeded sample of S6 and S7, of length at most 10
    so that the reduced words stay few (w0 of S7 has 1.1e9)."""
    rng = random.Random(1996)
    sample = [p for m in range(1, 6) for p in symmetric_group(m)]
    for m in (6, 7):
        sample += rng.sample([p for p in symmetric_group(m) if p.length <= 10], 20)
    return sample


def _assert_normal(result):
    """Same terms as a checked copy, sorted monomials, no zero coefficient."""
    assert result.terms == Polynomial(result.terms).terms
    for mono, coeff in result.terms.items():
        assert [i for i, _ in mono] == sorted({i for i, _ in mono}) and coeff
        assert all(e > 0 for _, e in mono)


def test_families_built_from_codes_match_the_weight_counts():
    """schubert and grothendieck, decoded straight from the search's codes,
    equal the polynomials folded by from_weights from the signed counts of
    weight_terms, each weight written out as a weak composition; the slide
    expansion reads every word's weight as slide_of_word does."""
    for p in _differential_sample():
        for family, max_excess in ((schubert, 0), (grothendieck, None)):
            result = family(p)
            _assert_normal(result)
            counts = {}
            for mono, count in pipedreams.weight_terms(p, max_excess=max_excess).items():
                crosses = dict(mono)
                counts[tuple(crosses.get(r, 0) for r in range(1, max(crosses, default=0) + 1))] = count
            assert result == poly.from_weights(counts.items()), (str(p), family)
        for word, value in expand_schubert_into_slides(p).items():
            _assert_normal(value)
            assert value == slide_of_word(word), (str(p), word)
    for shape in [(), (1,), (0, 2, 1), (2, 0, 1), (1, 2)]:
        for family, args in ((slide, (shape,)), (glide, (shape,)),
                             (fundamental_quasisymmetric, (shapes.flatten(shape), 3))):
            _assert_normal(family(*args))
            assert family(*args).terms is not family(*args).terms  # each call owns its dict


def test_expand_schubert_into_slides_outside_positive_support():
    """As schubert, the slide expansion has no value for a permutation
    moving a point below 1, and says so before listing any word."""
    for text in ("[1,0]@0", "[2,1,0]@0", "[0,-1]@-1"):
        p = parse_permutation(text)
        for call in (schubert, expand_schubert_into_slides):
            with pytest.raises(ValueError, match="positive integers"):
                call(p)
