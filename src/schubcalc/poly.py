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
        key = tuple(sorted((i, e) for i, e in exponents.items() if e))
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
        key = tuple(sorted((i, e) for i, e in exponents.items() if e))
        return self.terms.get(key, 0)

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
        return _collect((tuple(sorted((int(i), int(e)) for i, e in term["exponents"].items())),
                         int(term["coeff"])) for term in data)


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


def from_exponent_word(seq: Sequence[int]) -> Polynomial:
    """The product of x_j over the entries j of a sequence."""
    exps: dict[int, int] = {}
    for j in seq:
        exps[j] = exps.get(j, 0) + 1
    return Polynomial.monomial(exps)


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


def from_tableau_contents(tableaux: Iterable[shapes.Tableau]) -> Polynomial:
    return from_weights((shapes.content(t), 1) for t in tableaux)


# ---------------------------------------------------------------------------
# the polynomial families


def schubert(p: Permutation) -> Polynomial:
    """Sum of x^weight over the reduced pipe dreams for p, counted by the
    merged-state pass pipedreams.weight_counts (Fomin-Kirillov, 1996).

    >>> str(schubert(perms.parse_permutation("[321]")))
    'x_1^2 x_2'
    """
    return from_weights(pipedreams.weight_counts(p, max_excess=0).items())


def grothendieck(p: Permutation) -> Polynomial:
    """Signed sum of x^weight over all pipe dreams for p, the sign being
    (-1)^excess, by the merged-state pass weight_counts (Fomin-Kirillov, 1994).
    """
    return from_weights(pipedreams.weight_counts(p).items())


def schur(shape: Shape, n: int) -> Polynomial:
    """Generating polynomial of semistandard tableaux with entries up to n."""
    return from_tableau_contents(shapes.enumerate_tableaux("ssyt", shape, n))


def fundamental_quasisymmetric(shape: Shape, n: int) -> Polynomial:
    """Generating polynomial of composition tableaux with entries up to n."""
    return Polynomial(dict(_tableau_terms("ct", tuple(shape), n)))


def slide(shape: Shape) -> Polynomial:
    """Generating polynomial of all weak composition tableaux of the shape.

    The row caps bound every entry by its row index, so no variable beyond
    x_len(shape) can occur and the polynomial needs no truncation parameter.
    """
    return Polynomial(dict(_tableau_terms("wct", tuple(shape), len(shape))))


@perms._memo
def _tableau_terms(family: str, shape: Shape, n: int) -> tuple[tuple[Monomial, int], ...]:
    """The terms of one family's generating polynomial, memoised as a tuple."""
    return tuple(from_tableau_contents(shapes.enumerate_tableaux(family, shape, n)).terms.items())


def slide_of_word(word: Word) -> Polynomial:
    """Slide polynomial of the weight of the quasi-Yamanouchi pipe dream with
    the given reading word; zero when no such pipe dream exists.
    """
    dream = pipedreams.quasi_yamanouchi_for_word(word)
    if dream is None:
        return Polynomial.zero()
    return slide(dream.weight())


def glide(shape: Shape) -> Polynomial:
    """Signed generating polynomial of set-valued weak composition tableaux,
    each weighted by (-1)^(entries beyond one per box).
    """
    return Polynomial(dict(_glide_terms(tuple(shape))))


@perms._memo
def _glide_terms(shape: Shape) -> tuple[tuple[Monomial, int], ...]:
    base = shapes.size(shape)
    return tuple(from_weights((shapes.set_valued_content(svt),
                               (-1) ** (shapes.set_valued_size(svt) - base))
                              for svt in shapes.enumerate_set_valued_wct(shape)).terms.items())


def glide_of_word(word: Word) -> Polynomial:
    """Glide polynomial of the weight of the quasi-Yamanouchi pipe dream with
    the given (not necessarily reduced) reading word; zero when none exists.
    That dream, when there is one, has the greatest compatible rows.
    """
    dream = pipedreams._top_rows_dream(word)
    if dream is None or not pipedreams.is_quasi_yamanouchi(dream):
        return Polynomial.zero()
    return glide(dream.weight())


def backstable_truncation(p: Permutation, lowest_index: int) -> Polynomial:
    """The back-stable Schubert series with every x_i, i < lowest_index, set
    to zero: the sum of x^s over reduced words and compatible sequences s
    with all entries at least lowest_index.

    >>> str(backstable_truncation(perms.parse_permutation("[21]"), 0))
    'x_0 + x_1'
    """
    return Polynomial.sum(from_exponent_word(seq)
                          for word in perms.reduced_words(p)
                          for seq in perms.compatible_sequences(word, lower_bound=lowest_index))


# ---------------------------------------------------------------------------
# expansions


def expand_schubert_into_slides(p: Permutation) -> dict[Word, Polynomial]:
    """Slide polynomial of each reduced word; the values sum to schubert(p)."""
    return {word: slide_of_word(word) for word in perms.reduced_words(p)}


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
