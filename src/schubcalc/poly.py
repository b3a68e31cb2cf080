"""Sparse integer polynomials in variables x_i indexed by arbitrary integers,
and the polynomial families attached to permutations, shapes and words.

A monomial is a sorted tuple of (index, exponent) pairs with positive
exponents; a polynomial maps monomials to non-zero integer coefficients.
Negative variable indices appear in truncations of back-stable series, so
nothing here assumes indices start at 1.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence

from . import perms, pipedreams, shapes
from .perms import Permutation, Word
from .shapes import Shape

Monomial = tuple[tuple[int, int], ...]


class Polynomial:
    """Immutable-by-convention sparse polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self.terms[mono] = coeff

    @staticmethod
    def _trusted(terms: dict[Monomial, int]) -> "Polynomial":
        """A polynomial owning a fresh dict known to hold sorted monomials and
        non-zero coefficients, unchecked."""
        poly = object.__new__(Polynomial)
        poly.terms = terms
        return poly

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({(): 1})

    @staticmethod
    def constant(c: int) -> "Polynomial":
        return Polynomial({(): c} if c else {})

    @staticmethod
    def variable(index: int) -> "Polynomial":
        return Polynomial({((index, 1),): 1})

    @staticmethod
    def sum(polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of the polynomials, folded term by term into one dict:
        linear in the number of terms, where a chain of + copies the running
        total once per summand.

        >>> str(Polynomial.sum([Polynomial.variable(1), Polynomial.one(), -Polynomial.one()]))
        'x_1'
        """
        return _collect(itertools.chain.from_iterable(summand.terms.items() for summand in polys))

    @staticmethod
    def monomial(exponents: Mapping[int, int], coeff: int = 1) -> "Polynomial":
        key = _monomial(exponents)
        if any(e < 0 for _, e in key):
            raise ValueError("exponents must be non-negative")
        return Polynomial({key: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self.terms.keys() <= {()}:  # a constant hashes as the int it equals
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return Polynomial.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if not other:
                return Polynomial.zero()
            return Polynomial({m: c * other for m, c in self.terms.items()})
        return _collect((_merge_monomials(m1, m2), c1 * c2)
                        for m1, c1 in self.terms.items()
                        for m2, c2 in other.terms.items())

    __rmul__ = __mul__

    def coefficient(self, exponents: Mapping[int, int]) -> int:
        return self.terms.get(_monomial(exponents), 0)

    def lowest_degree_part(self) -> "Polynomial":
        if not self.terms:
            return Polynomial.zero()
        low = min(sum(e for _, e in m) for m in self.terms)
        return Polynomial({m: c for m, c in self.terms.items()
                           if sum(e for _, e in m) == low})

    def substitute_zero(self, kill: Iterable[int]) -> "Polynomial":
        """Set the listed variables to zero."""
        dead = set(kill)
        return Polynomial({m: c for m, c in self.terms.items()
                           if not any(i in dead for i, _ in m)})

    def swap_variables(self, i: int, j: int) -> "Polynomial":
        swap = {i: j, j: i}
        return _collect((tuple(sorted((swap.get(k, k), e) for k, e in m)), c)
                        for m, c in self.terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Graded order, then lexicographic on the (index, exponent) pairs."""
        return sorted(self.terms.items(),
                      key=lambda mc: (sum(e for _, e in mc[0]), mc[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            body = " ".join(f"x_{i}" if e == 1 else f"x_{i}^{e}" for i, e in mono)
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)} {body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    def to_json(self) -> list[dict]:
        return [{"exponents": {str(i): e for i, e in mono}, "coeff": coeff}
                for mono, coeff in self.sorted_terms()]

    @staticmethod
    def from_json(data: list[dict]) -> "Polynomial":
        """The inverse of to_json; an exponent map naming one variable twice,
        as "1" and "01", is a ValueError."""
        terms = []
        for term in data:
            exponents = {int(i): int(e) for i, e in term["exponents"].items()}
            if len(exponents) != len(term["exponents"]):
                raise ValueError(f"exponents {term['exponents']!r} name a variable twice")
            terms.append(Polynomial.monomial(exponents, int(term["coeff"])))
        return Polynomial.sum(terms)


def _monomial(exponents: Mapping[int, int]) -> Monomial:
    """The key of x^exponents: its (index, exponent) pairs, sorted, with the
    zero exponents dropped."""
    return tuple(sorted((i, e) for i, e in exponents.items() if e))


def _collect(pairs: Iterable[tuple[Monomial, int]]) -> Polynomial:
    """The sum of coeff * mono over (monomial, coefficient) pairs: the one
    fold behind every sum and product."""
    out: dict[Monomial, int] = {}
    for mono, coeff in pairs:
        out[mono] = out.get(mono, 0) + coeff
    return Polynomial(out)


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def from_weak_composition(weight: Sequence[int]) -> Polynomial:
    """x_1^{w_1} x_2^{w_2} ... for a weak composition."""
    return Polynomial.monomial({i + 1: e for i, e in enumerate(weight) if e})


def from_weights(pairs: Iterable[tuple[tuple[int, ...], int]]) -> Polynomial:
    """Sum of sign * x^weight over (weak composition, sign) pairs, counted
    per distinct weight before each becomes a monomial once.

    >>> str(from_weights([((0, 1), 1), ((1,), 1), ((1, 0), 1), ((0, 1), -1)]))
    '2 x_1'
    """
    counts: dict[tuple[int, ...], int] = {}
    for weight, sign in pairs:
        counts[weight] = counts.get(weight, 0) + sign
    return _collect((tuple((i, e) for i, e in enumerate(weight, 1) if e), count)
                    for weight, count in counts.items())


# ---------------------------------------------------------------------------
# the polynomial families


def schubert(p: Permutation) -> Polynomial:
    """Sum of x^weight over the reduced pipe dreams for p, counted by the
    merged-state pass (Fomin-Kirillov, 1996), each weight's code decoded
    straight into its monomial: no two codes meet, so no term cancels.
    The terms are memoised per permutation, as for the tableau families, and
    every call returns a fresh Polynomial.

    >>> str(schubert(perms.parse_permutation("[321]")))
    'x_1^2 x_2'
    """
    return Polynomial._trusted(dict(_dream_terms(p, 0)))


def grothendieck(p: Permutation) -> Polynomial:
    """Signed sum of x^weight over all pipe dreams for p, the sign being
    (-1)^excess, as for schubert (Fomin-Kirillov, 1994): a state of the pass
    fixes the length, so a weight there fixes the excess and no term cancels.
    Memoised per permutation, like schubert.
    """
    return Polynomial._trusted(dict(_dream_terms(p, None)))


@perms._memo
def _dream_terms(p: Permutation, max_excess: int | None) -> tuple[tuple[Monomial, int], ...]:
    return tuple(pipedreams.weight_terms(p, max_excess).items())


def schur(shape: Shape, n: int) -> Polynomial:
    """Generating polynomial of semistandard tableaux with entries up to n."""
    return Polynomial._trusted(dict(_tableau_terms("ssyt", tuple(shape), n)))


def fundamental_quasisymmetric(shape: Shape, n: int) -> Polynomial:
    """Generating polynomial of composition tableaux with entries up to n."""
    return Polynomial._trusted(dict(_tableau_terms("ct", tuple(shape), n)))


def slide(shape: Shape) -> Polynomial:
    """Generating polynomial of all weak composition tableaux of the shape.

    The row caps bound every entry by its row index, so no variable beyond
    x_len(shape) can occur and the polynomial needs no truncation parameter.
    """
    return Polynomial._trusted(dict(_tableau_terms("wct", tuple(shape), len(shape))))


@perms._memo
def _tableau_terms(family: str, shape: Shape, n: int) -> tuple[tuple[Monomial, int], ...]:
    """The terms of one family's generating polynomial, memoised as a tuple."""
    return tuple(from_weights((shapes.content(t), 1)
                              for t in shapes.enumerate_tableaux(family, shape, n)).terms.items())


def slide_of_word(word: Word) -> Polynomial:
    """Slide polynomial of the weight of the quasi-Yamanouchi pipe dream with
    the given reading word; zero when no such pipe dream exists.
    """
    if not perms.is_reduced(word):
        raise ValueError("expected a reduced word")
    rows = pipedreams._top_rows(word)
    return Polynomial.zero() if rows is None else slide(shapes._tally(rows))


def glide(shape: Shape) -> Polynomial:
    """Signed generating polynomial of set-valued weak composition tableaux,
    each weighted by (-1)^(entries beyond one per box).
    """
    return Polynomial._trusted(dict(_glide_terms(tuple(shape))))


@perms._memo
def _glide_terms(shape: Shape) -> tuple[tuple[Monomial, int], ...]:
    base = shapes.size(shape)
    return tuple(from_weights((shapes.set_valued_content(svt),
                               (-1) ** (shapes.set_valued_size(svt) - base))
                              for svt in shapes.enumerate_set_valued_wct(shape)).terms.items())


def glide_of_word(word: Word) -> Polynomial:
    """Glide polynomial of the weight of the quasi-Yamanouchi pipe dream with
    the given (not necessarily reduced) reading word; zero when none exists.
    That dream, when there is one, has the greatest compatible rows, whose
    dream is quasi-Yamanouchi unless two adjacent letters are equal.
    """
    rows = pipedreams._top_rows(word)
    if rows is None or any(a == b for a, b in zip(word, word[1:])):
        return Polynomial.zero()
    return glide(shapes._tally(rows))


def backstable_truncation(p: Permutation, lowest_index: int) -> Polynomial:
    """The back-stable Schubert series with every x_i, i < lowest_index, set
    to zero: the sum of x^s over reduced words and compatible sequences s
    with all entries at least lowest_index.

    Moving every index up by 1 - lowest_index turns that sum into the
    Schubert polynomial of the shifted permutation (Billey-Jockusch-Stanley,
    "Some combinatorial properties of Schubert polynomials", 1993), so with
    L = lowest_index it is schubert(tau(p, 1 - L)) with x_j renamed
    x_{j+L-1}.  It is zero when p moves a point below L: every reduced word
    of p holds the letter of its least moved point, and no compatible entry
    at least L fits under it.  The pipe dream search walks a staircase of
    size (largest moved point) + 1 - L, so a very negative L costs about
    |L|^3: on a 2-vCPU host s_1 takes 0.02-0.04 s at L = -100 and about 0.5 s
    at L = -300, where a sum over its one reduced word takes under 1 ms.
    A repeated (p, L) costs only the renaming: the shifted schubert call is
    memoised.

    >>> str(backstable_truncation(perms.parse_permutation("[21]"), 0))
    'x_0 + x_1'
    >>> backstable_truncation(perms.parse_permutation("[2,1,0]@0"), 1)
    Polynomial('0')
    """
    if p.support is not None and p.support[0] < lowest_index:
        return Polynomial.zero()
    shift = lowest_index - 1
    return Polynomial._trusted({tuple((i + shift, e) for i, e in mono): coeff
                                for mono, coeff in schubert(perms.tau(p, -shift)).terms.items()})


# ---------------------------------------------------------------------------
# expansions


def expand_schubert_into_slides(p: Permutation) -> dict[Word, Polynomial]:
    """Slide polynomial of each reduced word; the values sum to schubert(p).
    Each weight is read off the word's greatest compatible rows, as in
    slide_of_word, with no check: the words are reduced.
    """
    pipedreams.ambient_size(p)  # as schubert, raises for a p moving a point below 1
    out = {}
    for word in perms.reduced_words(p):
        rows = pipedreams._top_rows(word)
        out[word] = Polynomial.zero() if rows is None else slide(shapes._tally(rows))
    return out


def expand_schur_into_fundamentals(shape: Shape, n: int) -> dict[shapes.Tableau, Polynomial]:
    """One fundamental quasisymmetric polynomial per standard tableau, indexed
    by the descent composition; the values sum to schur(shape, n).
    """
    total = shapes.size(shape)
    out = {}
    for t in shapes.enumerate_tableaux("syt", shape, max(total, 1)):
        comp = shapes.set_to_composition(shapes.descent_set(t), total) if total else ()
        out[t] = fundamental_quasisymmetric(comp, n)
    return out


def expand_grothendieck_into_glides(p: Permutation) -> dict[pipedreams.PipeDream, Polynomial]:
    """Signed glide polynomial of each quasi-Yamanouchi pipe dream for p
    (all excesses); the values sum to grothendieck(p).
    """
    out = {}
    for dream in pipedreams.quasi_yamanouchi_pipe_dreams(p, reduced_only=False):
        term = glide(dream.weight())
        out[dream] = -term if (len(dream.crosses) - p.length) % 2 else term
    return out
