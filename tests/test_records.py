"""The contract of the six immutable value records: frozen fields, the
`Name(field=value, ...)` repr, equality within one class only, hashes that
agree with equality, and the constructor defaults."""
import copy
import pickle

import pytest

from schubcalc.complexes import Classification, SimplicialComplex
from schubcalc.perms import INF, Permutation
from schubcalc.pipedreams import PipeDream
from schubcalc.shapes import Komposition
from schubcalc.shuffles import DOWN, MarkedWord

# (a record, an equal one built apart from it, a different one of the same
# class, the field names, the repr)
CASES = [
    (Permutation(1, (4, 2, 1, 3)), Permutation(0, (0, 4, 2, 1, 3, 5)),
     Permutation(1, (2, 1)), ("lo", "window"), "Permutation('[4213]')"),
    (Komposition((1, 0, 2), frozenset({3})), Komposition((1, 0, 2), frozenset([3])),
     Komposition((1, 0, 2)), ("parts", "bold"),
     "Komposition(parts=(1, 0, 2), bold=frozenset({3}))"),
    (PipeDream(3, frozenset({(1, 2)})), PipeDream._trusted(3, frozenset([(1, 2)])),
     PipeDream(4, frozenset({(1, 2)})), ("n", "crosses"), "PipeDream(n=3, {(1,2)})"),
    (SimplicialComplex((1, 2), frozenset({frozenset({1, 2})})),
     SimplicialComplex.from_facets([[2, 1]]), SimplicialComplex.void((1, 2)),
     ("vertices", "facets"), "SimplicialComplex(2 vertices; facets {1,2})"),
    (Classification("ball", frozenset({frozenset({1})}), ""),
     Classification("ball", frozenset({frozenset({1})})), Classification("sphere"),
     ("kind", "boundary_ridges", "reason"),
     "Classification(kind='ball', boundary_ridges=frozenset({frozenset({1})}), reason='')"),
    (MarkedWord((2, INF), (None, DOWN)), MarkedWord((2, INF), (None, "down")),
     MarkedWord((2,), (None,)), ("slots", "marks"),
     "MarkedWord(slots=(2, inf), marks=(None, 'down'))"),
]
IDS = [case[0].__class__.__name__ for case in CASES]


@pytest.mark.parametrize("record, twin, other, fields, text", CASES, ids=IDS)
def test_record_contract(record, twin, other, fields, text):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    assert record is not twin and len({record, twin, other}) == 2
    assert record != other
    assert record != tuple(getattr(record, name) for name in fields)
    for case in CASES:
        if case[0].__class__ is not record.__class__:
            assert record != case[0] and case[0] != record
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_record_defaults():
    assert Komposition((1, 2)).bold == frozenset()
    empty = Classification("sphere")
    assert (empty.boundary_ridges, empty.reason) == (frozenset(), "")
    assert Classification("neither", reason="not pure").boundary_ridges == frozenset()


def test_record_validation_stays():
    with pytest.raises(ValueError):
        Permutation(1, (1, 1))
    with pytest.raises(ValueError):
        Komposition((1, 0), frozenset({2}))
    with pytest.raises(ValueError):
        PipeDream(2, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        MarkedWord((INF,), (None,))


def test_normalised_permutations_are_one_key():
    assert Permutation(1, (1, 2)) == Permutation.identity()
    assert hash(Permutation(1, (1, 2))) == hash(Permutation.identity())
    assert Permutation(-3, ()).lo == 1
    p = Permutation(1, (3, 1, 2))
    assert {p: 1}[Permutation(0, (0, 3, 1, 2))] == 1
    assert p * p.inverse() == Permutation.identity() == p.inverse() * p
    assert p.right_mul_simple(1) == p * Permutation.simple(1)
    assert p.length == 2 and p.length == 2
