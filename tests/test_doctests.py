import doctest

import pytest

from schubcalc import complexes, perms, pipedreams, poly, selftest, shapes, shuffles


@pytest.mark.parametrize("module", [perms, shapes, pipedreams, poly, complexes,
                                    shuffles])
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


@pytest.mark.parametrize("check", [check for _, check in selftest.CHECKS],
                         ids=lambda check: check.__name__.removeprefix("check_"))
def test_selftest_check(check):
    """Each worked example of the built-in corpus, as its own test.  Eight
    of them are also module doctests, which test_doctests runs: those of
    prod_word, demazure, reduced_words, compatible_sequences, tau,
    schubert, cross_labels and monk_shuffle."""
    check()
