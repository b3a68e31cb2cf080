import ast
import doctest
import re
from pathlib import Path

import pytest

import schubcalc
from schubcalc import complexes, perms, pipedreams, poly, selftest, shapes, shuffles

ROOT = Path(__file__).resolve().parent.parent


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


def test_public_names_without_a_caller_are_in_the_readme():
    """Each name of schubcalc.__all__, and each public module-level function
    and class of src/schubcalc, that no code in src/ or perfbench/ refers to,
    by an AST scan, is named in the README's section "Public functions the
    package does not call", which gives it a user.  A name outside __all__ is
    named there with its module, as `module.name`."""
    used = set()
    defined = set()
    for path in [*(ROOT / "src" / "schubcalc").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent.name == "schubcalc":
            defined.update((path.stem, node.name) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Public functions the package does not call\n")[1].split("\n## ")[0]
    uncalled = {name for name in schubcalc.__all__ if name not in used}
    uncalled |= {name if name in schubcalc.__all__ else f"{module}.{name}"
                 for module, name in defined if name not in used}
    assert uncalled and uncalled <= set(re.findall(r"`([\w.]+)`", section))
