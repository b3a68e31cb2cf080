"""Public functions refuse inputs outside their domain with a ValueError that
says why; these are the refusals no other in-process test reaches."""
import pytest

from schubcalc import complexes, perms, poly, shapes, shuffles
from schubcalc.complexes import SimplicialComplex
from schubcalc.perms import Permutation, parse_permutation, parse_word
from schubcalc.shapes import Komposition
from schubcalc.shuffles import MarkedWord


def _delta():
    return complexes.subword_complex(parse_word("321323"), parse_permutation("[1432]"))


CASES = {
    "void-dimension": (lambda: SimplicialComplex.void().dimension(),
                       "the void complex has no dimension"),
    "deletion-of-a-non-face": (lambda: _delta().deletion([9]), "deletion requires a face"),
    "slide-of-a-non-reduced-word": (lambda: complexes.slide_complex((1, 2, 1), (1, 1)),
                                    "slide complexes are indexed by reduced words"),
    "svg-of-a-3-simplex": (lambda: complexes.to_svg(SimplicialComplex.from_facets([[1, 2, 3, 4]])),
                           "svg output is for complexes of dimension at most 2"),
    "transposition-of-one-point": (lambda: Permutation.transposition(2, 2),
                                   "transposition needs two distinct points"),
    "lehmer-negative": (lambda: perms.from_lehmer_code((-1,)), "code entries must be non-negative"),
    "lehmer-no-room": (lambda: perms.from_lehmer_code((0, 5)),
                       "code entry 5 at index 1 exceeds the remaining room"),
    "slide-polynomial-of-a-non-reduced-word": (lambda: poly.slide_of_word((1, 1)),
                                               "expected a reduced word"),
    "composition-with-a-zero": (lambda: shapes.composition_to_set((1, 0)),
                                "expected a composition \\(positive parts\\)"),
    "set-outside-1..n-1": (lambda: shapes.set_to_composition({0}, 2),
                           "subset must lie inside 1..n-1"),
    "refines-a-weak-composition": (lambda: shapes.refines((1, 0), (1,)),
                                   "refinement is between compositions"),
    "unknown-family": (lambda: shapes.enumerate_tableaux("xx", (1,), 1), "unknown family 'xx'"),
    "negative-komposition": (lambda: Komposition((-1,)), "parts must be non-negative"),
    "set-valued-empty-box": (lambda: shapes.classify_set_valued(((frozenset(),),), "ssyt", 1),
                             "every box of a set-valued tableau must be non-empty"),
    "set-valued-wct-negative-shape": (lambda: shapes.enumerate_set_valued_wct((-1,)),
                                      "expected a weak composition shape"),
    "glide-negative-shape": (lambda: shapes.is_glide(Komposition(()), (-1,)),
                             "expected a weak composition shape"),
    "marked-word-misaligned": (lambda: MarkedWord((1,), ()), "slots and marks must align"),
    "marked-word-bad-mark": (lambda: MarkedWord((1,), ("sideways",)), "bad mark 'sideways'"),
    "pieri-targets-k-0": (lambda: shuffles.pieri_targets(parse_permutation("[321]"), 1, 0),
                          "need k >= 1"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_public_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
