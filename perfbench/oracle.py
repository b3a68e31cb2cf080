"""Independent reference routes used to check the benchmark's answers.

Nothing here imports schubcalc.  Permutations of the integers are pairs
``(lo, window)``: the images of lo, lo+1, ... with fixed boundary points
stripped, the identity being ``(1, ())``.  A word multiplies out left to
right as s_{w1} s_{w2} ..., and ``p * s_i`` swaps the images of i and i+1.
Polynomials are dicts from monomials to coefficients; a monomial is the
sorted tuple of ``(variable, exponent)`` pairs with positive exponents.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

IDENTITY = (1, ())


def normalize(lo: int, window) -> tuple:
    window = tuple(window)
    start, end = 0, len(window)
    while start < end and window[start] == lo + start:
        start += 1
    while end > start and window[end - 1] == lo + end - 1:
        end -= 1
    if start == end:
        return IDENTITY
    return (lo + start, window[start:end])


def image(p, i: int) -> int:
    lo, window = p
    return window[i - lo] if lo <= i < lo + len(window) else i


def span(p) -> tuple[int, int]:
    """First and last point of the window (an empty range for the identity)."""
    lo, window = p
    return lo, lo + len(window) - 1


def times_transposition(p, a: int, b: int) -> tuple:
    """p * t(a, b): the images of a and b swapped."""
    lo, hi = span(p)
    lo, hi = min(lo, a, b), max(hi, a, b)
    images = [image(p, k) for k in range(lo, hi + 1)]
    images[a - lo], images[b - lo] = images[b - lo], images[a - lo]
    return normalize(lo, images)


def times_simple(p, i: int) -> tuple:
    return times_transposition(p, i, i + 1)


def length(p) -> int:
    w = p[1]
    return sum(1 for x, y in itertools.combinations(w, 2) if x > y)


def right_descents(p) -> list[int]:
    lo, w = p
    return [lo + k for k in range(len(w) - 1) if w[k] > w[k + 1]]


def demazure(word) -> tuple:
    """0-Hecke product: a letter acts only when it lengthens."""
    p = IDENTITY
    for a in word:
        if image(p, a) < image(p, a + 1):
            p = times_simple(p, a)
    return p


@lru_cache(maxsize=None)
def reduced_words(p) -> tuple:
    """Sorted reduced words, each ending in a right descent."""
    if p == IDENTITY:
        return ((),)
    out = [w + (i,) for i in right_descents(p) for w in reduced_words(times_simple(p, i))]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def count_reduced_words(p) -> int:
    if p == IDENTITY:
        return 1
    return sum(count_reduced_words(times_simple(p, i)) for i in right_descents(p))


def clear_caches() -> None:
    """Drop memoised words, so the benchmark's memory stays small."""
    reduced_words.cache_clear()
    count_reduced_words.cache_clear()


def compatible_sequences(word, lower: int = 1) -> list[tuple]:
    """Weakly increasing j with j_k <= word_k, strict at ascents, j_1 >= lower."""
    out = []

    def grow(prefix: list) -> None:
        k = len(prefix)
        if k == len(word):
            out.append(tuple(prefix))
            return
        low = lower
        if prefix:
            low = max(low, prefix[-1] + (word[k - 1] < word[k]))
        for j in range(low, word[k] + 1):
            prefix.append(j)
            grow(prefix)
            prefix.pop()

    grow([])
    return out


# -- polynomials --------------------------------------------------------------


def monomial_of_variables(variables) -> tuple:
    return tuple(sorted(Counter(variables).items()))


def monomial_of_weight(weight) -> tuple:
    return tuple((i + 1, e) for i, e in enumerate(weight) if e)


def add_into(total: dict, poly: dict, sign: int = 1) -> dict:
    for mono, coeff in poly.items():
        value = total.get(mono, 0) + sign * coeff
        if value:
            total[mono] = value
        else:
            total.pop(mono, None)
    return total


def from_program(poly) -> dict:
    """Read a schubcalc Polynomial through its public JSON form."""
    return {tuple(sorted((int(i), e) for i, e in term["exponents"].items())): term["coeff"]
            for term in poly.to_json()}


def degree(mono) -> int:
    return sum(e for _, e in mono)


def lowest_degree_part(poly: dict) -> dict:
    if not poly:
        return {}
    low = min(degree(m) for m in poly)
    return {m: c for m, c in poly.items() if degree(m) == low}


def reduced_pipe_dream_count(p) -> int:
    """S_p(1, ..., 1): pairs of a reduced word and a compatible sequence."""
    return sum(len(compatible_sequences(w)) for w in reduced_words(p))


def schubert_from_words(p, lower: int = 1) -> dict:
    """Billey-Jockusch-Stanley: x^j over reduced words and compatible j.

    With lower < 1 this is the back-stable series truncated below `lower`.
    """
    total: dict = {}
    for word in reduced_words(p):
        for seq in compatible_sequences(word, lower):
            mono = monomial_of_variables(seq)
            total[mono] = total.get(mono, 0) + 1
    return total


def weak_compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _flat(comp) -> tuple:
    return tuple(a for a in comp if a)


def _refines(fine, coarse) -> bool:
    cuts_fine = set(itertools.accumulate(fine))
    return set(itertools.accumulate(coarse)) <= cuts_fine


def _dominates(b, a) -> bool:
    return all(x >= y for x, y in zip(itertools.accumulate(b), itertools.accumulate(a)))


def slide(a) -> dict:
    """Fundamental slide polynomial (Assaf-Searles): x^b over weak
    compositions b >= a in dominance order whose flattening refines a's.
    """
    out = {}
    for b in weak_compositions(sum(a), len(a)):
        if _dominates(b, a) and _refines(_flat(b), _flat(a)):
            out[monomial_of_weight(b)] = 1
    return out


def _cells(shape):
    return [(r, c) for r, width in enumerate(shape) for c in range(width)]


def _hook(shape, r: int, c: int) -> int:
    arm = shape[r] - c - 1
    leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
    return arm + leg + 1


def hook_content(shape, n: int) -> int:
    """Number of semistandard tableaux of the partition with entries <= n."""
    value = Fraction(1)
    for r, c in _cells(shape):
        value *= Fraction(n + c - r, _hook(shape, r, c))
    return int(value)


def hook_length(shape) -> int:
    """Number of standard tableaux of the partition."""
    value = Fraction(1)
    for k, (r, c) in enumerate(_cells(shape), start=1):
        value *= Fraction(k, _hook(shape, r, c))
    return int(value)


def is_standard(tableau) -> bool:
    entries = sorted(v for row in tableau for v in row)
    if entries != list(range(1, len(entries) + 1)):
        return False
    rows_ok = all(row[c] < row[c + 1] for row in tableau for c in range(len(row) - 1))
    cols_ok = all(tableau[r][c] < tableau[r + 1][c]
                  for r in range(len(tableau) - 1) for c in range(len(tableau[r + 1])))
    return rows_ok and cols_ok


# -- Monk and Pieri rules -----------------------------------------------------


def monk_covers(p, i: int) -> list[tuple]:
    """p * t(a, b) for a <= i < b with the length going up by exactly one."""
    lo, hi = span(p)
    lo, hi = min(lo, i) - 1, max(hi, i + 1) + 1
    target = length(p) + 1
    out = []
    for a in range(lo, i + 1):
        for b in range(i + 1, hi + 1):
            q = times_transposition(p, a, b)
            if length(q) == target:
                out.append((q, a, b))
    return out


def pieri_targets(p, i: int, k: int, variant: str) -> set:
    """Ends of k-step chains of Monk covers whose a's (variant "c") or b's
    (variant "r") are pairwise distinct.
    """
    ends = set()

    def walk(q, depth: int, used: frozenset) -> None:
        if depth == k:
            ends.add(q)
            return
        for nxt, a, b in monk_covers(q, i):
            key = a if variant == "c" else b
            if key not in used:
                walk(nxt, depth + 1, used | {key})

    walk(p, 0, frozenset())
    return ends


# -- subword and word-set complexes --------------------------------------------


def embeddings(ambient, target) -> list[frozenset]:
    """1-based position sets carrying target as a subword of ambient."""
    out = []

    def scan(start: int, k: int, chosen: list) -> None:
        if k == len(target):
            out.append(frozenset(chosen))
            return
        for pos in range(start, len(ambient) + 1):
            if ambient[pos - 1] == target[k]:
                chosen.append(pos)
                scan(pos + 1, k + 1, chosen)
                chosen.pop()

    scan(1, 0, [])
    return out


def word_set_facets(ambient, words) -> frozenset:
    positions = frozenset(range(1, len(ambient) + 1))
    return frozenset(positions - emb for w in words for emb in embeddings(ambient, w))


def subword_facets(ambient, p) -> frozenset:
    return word_set_facets(ambient, reduced_words(p))


def is_subword(short, long) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def backwards_saturated(words) -> bool:
    """For every first letter used, the tails behind it are backwards
    saturated and every word of the set contains one of them.
    """
    words = frozenset(words)
    for letter in {w[0] for w in words if w}:
        tails = frozenset(w[1:] for w in words if w and w[0] == letter)
        if not backwards_saturated(tails):
            return False
        if not all(any(is_subword(t, w) for t in tails) for w in words):
            return False
    return True


def is_face(face, facets) -> bool:
    return any(face <= f for f in facets)
