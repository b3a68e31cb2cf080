"""Simplicial complexes with deletion/link, vertex-decomposition search,
ball/sphere classification, and the subword, slide, word-set and tableau
complexes built on words and tableaux.

A complex stores an explicit vertex set (phantom vertices allowed: elements
of the ground set lying in no face) and its facets.  The face routines read
one cached mask view: the used vertices in sorted order, each facet as an
int whose bit k is the k-th of them.  Faces are submasks, made frozensets
only when returned, all by the one table decoder `_faces`.  A complex also
caches its classification, which `classify_ball_or_sphere` and
`boundary_faces` share.

The void complex (no facets at all) is distinct from the complex {} whose
only face is the empty set; `SimplicialComplex.is_void` tells them apart.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from collections.abc import Collection, Hashable, Iterable, Iterator, Sequence

from . import perms, shapes
from .perms import Permutation, Record, Word, _set

Face = frozenset
Vertex = Hashable


class SimplicialComplex(Record):
    __slots__ = ("vertices", "facets", "__dict__")
    _fields = ("vertices", "facets")

    def __init__(self, vertices: tuple, facets: frozenset[Face]) -> None:
        _set(self, "vertices", vertices)
        _set(self, "facets", facets)

    @staticmethod
    def from_facets(facets: Iterable[Iterable[Vertex]],
                    vertices: Iterable[Vertex] | None = None) -> "SimplicialComplex":
        """The complex of the maximal given faces, found on their masks."""
        order, _, masks = SimplicialComplex((), frozenset(map(frozenset, facets)))._view
        vertices = order if vertices is None else tuple(vertices)
        if not set(order) <= set(vertices):
            raise ValueError("a facet has a vertex outside the vertex set")
        return SimplicialComplex(vertices, _maximal_faces(order, masks))

    @staticmethod
    def void(vertices: Iterable[Vertex] = ()) -> "SimplicialComplex":
        return SimplicialComplex(tuple(vertices), frozenset())

    @functools.cached_property
    def _view(self) -> tuple[tuple, dict, frozenset[int]]:
        """The used vertices in sorted order, their bits, the facet masks."""
        order = tuple(sorted(set().union(*self.facets)))
        bit = {v: 1 << k for k, v in enumerate(order)}
        return order, bit, frozenset(sum(bit[v] for v in f) for f in self.facets)

    @functools.cached_property
    def _classified(self) -> tuple[str, str, tuple[int, ...]]:
        """The kind, the reason for "neither", the once-covered ridge masks."""
        if self.is_void:
            return "neither", "void complex", ()
        if not self.is_pure():
            return "neither", "not pure", ()
        if not is_vertex_decomposable(self):
            return "neither", "not vertex-decomposable", ()
        counts = _ridge_counts(self._view[2])
        if any(c > 2 for c in counts.values()):
            return "neither", "a codimension-1 face lies in more than two facets", ()
        once = tuple(r for r, c in counts.items() if c == 1)
        return ("ball" if once else "sphere"), "", once

    def _mask(self, face: Face) -> int | None:
        """The mask of a face; None when it is not a face."""
        _, bit, masks = self._view
        if not face <= bit.keys():
            return None
        m = sum(bit[v] for v in face)
        return m if any(f & m == m for f in masks) else None

    @property
    def is_void(self) -> bool:
        return not self.facets

    def dimension(self) -> int:
        """Max facet dimension; -1 for {}; raises on the void complex."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1

    def used_vertices(self) -> tuple:
        return tuple(v for v in self.vertices if v in self._view[1])

    def has_face(self, face: Iterable[Vertex]) -> bool:
        return self._mask(frozenset(face)) is not None

    def faces(self) -> Iterator[Face]:
        """All faces, deduplicated, in no particular order."""
        return _faces(self._view[0], _closure(self._view[2]))

    def reduced_euler_characteristic(self) -> int:
        """Alternating sum over all faces, the empty face included, by
        chi(D) = chi(del v) - chi(lk v) on facet masks, v the lowest vertex:
        the faces without v are those of the deletion, the faces with v are
        those of the link plus v.  A cone gives 0, {} gives -1 and the void
        complex 0.  Values are memoised for one call."""
        memo: dict[frozenset[int], int] = {}

        def chi(facets: frozenset[int]) -> int:
            if not facets or functools.reduce(operator.and_, facets):
                return 0
            union = functools.reduce(operator.or_, facets)
            if not union:
                return -1
            if facets not in memo:
                b = union & -union
                memo[facets] = chi(_delete(facets, b)) - chi(_link(facets, b))
            return memo[facets]

        return chi(self._view[2])

    def deletion(self, face: Iterable[Vertex]) -> "SimplicialComplex":
        """Faces meeting the given face nowhere."""
        probe = frozenset(face)
        m = self._mask(probe)
        if m is None:
            raise ValueError("deletion requires a face")
        if not m:
            return self
        order, _, masks = self._view
        return SimplicialComplex(tuple(v for v in self.vertices if v not in probe),
                                 _maximal_faces(order, {f & ~m for f in masks}))

    def link(self, face: Iterable[Vertex]) -> "SimplicialComplex":
        """Faces disjoint from the given face whose union with it is a face."""
        probe = frozenset(face)
        m = self._mask(probe)
        if m is None:
            raise ValueError("link requires a face")
        order, _, masks = self._view
        # f ^ m < g ^ m gives f < g, which only facets built non-maximal have
        return SimplicialComplex(tuple(v for v in self.vertices if v not in probe),
                                 _maximal_faces(order, {f ^ m for f in masks if f & m == m}))

    def cone_vertices(self) -> tuple:
        if self.is_void:
            return ()
        common = functools.reduce(operator.and_, self._view[2])
        return tuple(v for v in self.vertices if self._view[1].get(v, 0) & common)

    def ridge_facet_counts(self) -> dict[Face, int]:
        """How many facets contain each codimension-1 face."""
        order, _, masks = self._view
        counts = _ridge_counts(masks)
        return dict(zip(_faces(order, counts), counts.values()))

    def to_json(self) -> dict:
        verts = list(self.vertices)
        return {"vertices": [_vertex_json(v) for v in verts],
                "facets": sorted([sorted(_vertex_json(v) for v in f) for f in self.facets])}

    def __repr__(self) -> str:
        inner = ", ".join(sorted("{" + ",".join(map(str, sorted(f))) + "}"
                                 for f in self.facets))
        return f"SimplicialComplex({len(self.vertices)} vertices; facets {inner or 'void'})"


def _vertex_json(v):
    if isinstance(v, tuple):
        return [_vertex_json(x) for x in v]
    return v


def from_json(data: dict) -> SimplicialComplex:
    def unpack(v):
        return tuple(unpack(x) for x in v) if isinstance(v, list) else v
    vertices = tuple(unpack(v) for v in data["vertices"])
    facets = [[unpack(v) for v in f] for f in data["facets"]]
    return SimplicialComplex.from_facets(facets, vertices)


# ---------------------------------------------------------------------------
# faces as int masks


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _closure(masks: Iterable[int]) -> set[int]:
    """Every submask of every mask: the faces of the complex they generate.
    `out` stays downward closed, so a submask of m that misses a bit b with
    m ^ b in `out` is listed already: only `forced | t` is new, `forced` the
    bits of m so read and t a submask of the rest.  That holds for any order
    and any masks; the sorted order is a heuristic, not a shelling proof,
    under which each boundary face tested was visited once."""
    out: set[int] = set()
    for m in sorted(masks):
        forced = 0
        for b in _bits(m):
            if m ^ b in out:
                forced |= b
        rest = t = m ^ forced
        while t:
            out.add(forced | t)
            t = (t - 1) & rest
        out.add(forced)
    return out


def _faces(order: tuple, masks: Collection[int]) -> Iterator[Face]:
    """The face of each mask, bit k selecting order[k].  The low w bits index
    a table of vertex tuples built by doubling, w = min(8, bit length of the
    mask count), so the table has at most 256 entries and at most twice as
    many as the masks; the bits above are decoded once per distinct value."""
    w = min(8, len(masks).bit_length())
    low = [()]
    for v in order[:w]:
        low += [t + (v,) for t in low]
    cut = len(low) - 1
    high = {h: tuple(order[b.bit_length() + w - 1] for b in _bits(h))
            for h in {m >> w for m in masks}}
    return (frozenset(low[m & cut] + high[m >> w]) for m in masks)


def _maximal_faces(order: tuple, masks: Collection[int]) -> frozenset[Face]:
    """The faces of the masks no other mask contains: those of the top size,
    those one size below that are no ridge of them, and those of the smaller
    masks that a scan finds in no other mask."""
    top = max((g.bit_count() for g in masks), default=0)
    near = {g for g in masks if g.bit_count() == top - 1}
    if near:
        near -= {f ^ b for f in masks if f.bit_count() == top for b in _bits(f)}
    return frozenset(_faces(order, [
        g for g in masks if g.bit_count() == top or g in near
        or g.bit_count() < top - 1 and not any(g & h == g and g != h for h in masks)]))


def _ridge_counts(facets: Iterable[int]) -> Counter[int]:
    return Counter(f ^ b for f in facets for b in _bits(f))


def _delete(facets: frozenset[int], b: int) -> frozenset[int]:
    """Facet masks of the deletion of vertex bit b: the facets without b, and
    those with b less b unless they are ridges of the former.  On a pure
    complex that is the maximality test, in O(facets * dimension); on any
    other the result still generates the faces of the deletion.  Through
    `_maximal_faces`, the search over the 1,681 complexes Delta(Q_6, p) and
    Delta(Q_7, p), l(p) >= 14, took 37-42 ms, not 31-32 ms."""
    kept = [f for f in facets if not f & b]
    ridges = {f ^ r for f in kept for r in _bits(f)}
    return frozenset(kept + [f ^ b for f in facets if f & b and f ^ b not in ridges])


def _link(facets: frozenset[int], b: int) -> frozenset[int]:
    return frozenset(f ^ b for f in facets if f & b)


# ---------------------------------------------------------------------------
# vertex decomposability


def is_vertex_decomposable(complex_: SimplicialComplex) -> bool:
    """A pure complex qualifies when it is {} or some vertex has vertex-
    decomposable deletion and link.  Vertices are tried in sorted order, so
    for subword complexes the leftmost surviving position is tried first;
    the search runs on the complex's own facet masks.
    """
    return _vd_tree(complex_._view[2]) is not None


def vertex_decomposition(complex_: SimplicialComplex):
    """A witness tree: "leaf" for {}, else (vertex, deletion tree, link tree),
    with the first vertex in sorted order that works and the original labels;
    None when the complex is not vertex-decomposable.  It is the search's own
    tree with each bit k read as the k-th sorted vertex; equal subtrees are
    shared, so its `repr`, which writes each share out again, can dwarf the
    tree: on Delta(Q_9, [163728495]) it grew past 600 MB.
    """
    order = complex_._view[0]
    named: dict = {}  # by id(subtree): hashing nested tuples costs their size

    def name(tree):
        if isinstance(tree, tuple) and id(tree) not in named:
            k, deletion, link = tree
            named[id(tree)] = (order[k], name(deletion), name(link))
        return named.get(id(tree), tree)

    return name(_vd_tree(complex_._view[2]))


@perms._memo
def _vd_tree(facets: frozenset[int]):
    """The memoised search on facet masks and its witness: "leaf" for {},
    None when not vertex-decomposable, else (k, deletion tree, link tree) for
    the lowest bit k of the facets' union whose deletion and link decompose.
    Bits no facet uses are skipped: deleting one gives the same masks.  It
    recurses on pure complexes only, where `_delete` gives the deletion's
    facets, on all but k."""
    if facets == frozenset({0}):
        return "leaf"
    if len({f.bit_count() for f in facets}) == 1:
        for b in _bits(functools.reduce(operator.or_, facets)):
            deletion = _vd_tree(_delete(facets, b))
            if deletion is not None and (link := _vd_tree(_link(facets, b))) is not None:
                return b.bit_length() - 1, deletion, link
    return None


# ---------------------------------------------------------------------------
# ball / sphere classification


class Classification(Record):
    __slots__ = ("kind", "boundary_ridges", "reason")
    _fields = ("kind", "boundary_ridges", "reason")

    def __init__(self, kind: str, boundary_ridges: frozenset[Face] = frozenset(),
                 reason: str = "") -> None:
        _set(self, "kind", kind)  # "sphere" | "ball" | "neither"
        _set(self, "boundary_ridges", boundary_ridges)
        _set(self, "reason", reason)


def classify_ball_or_sphere(complex_: SimplicialComplex) -> Classification:
    """Shellability (via vertex decomposability) plus the codimension-1 count
    criterion: every ridge in exactly two facets gives a sphere; at most two
    with some in only one gives a ball whose boundary is generated by the
    once-covered ridges.  Anything else is reported as "neither" (the
    criterion is sufficient, not necessary).
    """
    kind, reason, once = complex_._classified
    return Classification(kind, frozenset(_faces(complex_._view[0], once)), reason)


def boundary_faces(complex_: SimplicialComplex) -> frozenset[Face]:
    """Downward closure of the once-covered codimension-1 faces of a ball:
    `_closure` lists each face's mask once in one set of ints, and `_faces`
    makes each a frozenset.  That is every boundary face in memory: 577,995
    of them, about 495 MB and 2.9-3.4 s, for Delta(Q_7, [1432765])."""
    return frozenset(_faces(complex_._view[0], _closure(complex_._classified[2])))


def stanley_reisner_generators(complex_: SimplicialComplex) -> frozenset[Face]:
    """Minimal non-faces: the exponent sets of the squarefree generators of
    the face ideal.  Phantom vertices contribute singleton generators.

    A vertex set is a non-face iff it meets the complement of every facet,
    so the minimal non-faces are the minimal transversals of the facet
    complements.  They are enumerated on the facet masks by the MMCS
    depth-first search (Murakami-Uno, "Efficient algorithms for dualizing
    large-scale hypergraphs", 2014): branch on the uncovered complement with
    the fewest candidate vertices left, keep for each chosen vertex the
    complements only it meets, and cut a branch once a chosen vertex has
    none left, since no extension of it is then minimal.
    """
    if complex_.is_void:
        raise ValueError("the void complex has a unit face ideal")
    order, bit, masks = complex_._view
    full = (1 << len(order)) - 1
    complements = list({full ^ f for f in masks})
    # hits[k]: the complements meeting vertex k, as a bitset over their indices
    hits = [sum(1 << i for i, e in enumerate(complements) if e >> k & 1)
            for k in range(len(order))]
    found: list[int] = []

    def search(chosen: int, crit: list[int], cand: int, uncov: list[int], uncovered: int) -> None:
        # crit[j]: the complements met by the j-th chosen vertex alone;
        # uncov: the complements met by none, also as the bitset uncovered.
        if not uncov:
            found.append(chosen)
            return
        branch = min((e & cand for e in uncov), key=int.bit_count)
        cand ^= branch
        while branch:
            v = branch & -branch
            branch ^= v
            h = hits[v.bit_length() - 1]
            kept = [c & ~h for c in crit]
            if all(kept):
                search(chosen | v, kept + [uncovered & h], cand,
                       [e for e in uncov if not e & v], uncovered & ~h)
            cand |= v

    search(0, [], full, complements, (1 << len(complements)) - 1)
    phantoms = {frozenset([v]) for v in complex_.vertices if v not in bit}
    return frozenset(_faces(order, found)) | phantoms


# ---------------------------------------------------------------------------
# subword, slide and word-set complexes


def _reduced_subwords(ambient: Word, p: Permutation) -> list[int]:
    """The position masks (bit k for position k + 1) whose letters spell a
    reduced word for p: one depth-first walk, left to right, carrying y^-1
    for the part y of p still to spell; the letter a starts y iff y^-1(a) >
    y^-1(a+1).  Every branch ends in a mask, as the walk keeps y <= D_k =
    Dem(ambient[k:]) in Bruhat order (Knutson-Miller, "Subword complexes in
    Coxeter groups", 2004).  By the lifting property only passing over a
    letter a that starts y, where D_k = s_a D_{k+1} > D_{k+1}, needs a test:
    y <= D_{k+1}, on the inverses, memoised per (k, y).  One right-to-left
    pass builds every D_k^-1, the Demazure product of the reversed suffix."""
    lo = min((*ambient, p.lo))
    hi = max((*(a + 1 for a in ambient), p.lo + len(p.window) - 1))
    images = list(range(lo, hi + 1))
    reach = [tuple(images)]
    for a in reversed(ambient):
        a -= lo
        if images[a] < images[a + 1]:
            images[a], images[a + 1] = images[a + 1], images[a]
        reach.append(tuple(images))
    reach.reverse()
    below = functools.cache(lambda k, y: perms._bruhat_leq_images(y, reach[k], lo))
    out: list[int] = []

    def walk(k: int, y: tuple[int, ...], left: int, mask: int) -> None:
        if not left:
            out.append(mask)
            return
        for j in range(k, len(ambient)):
            a = ambient[j] - lo
            if y[a] > y[a + 1]:
                walk(j + 1, y[:a] + (y[a + 1], y[a]) + y[a + 2:], left - 1, mask | 1 << j)
                if reach[j] != reach[j + 1] and not below(j + 1, y):
                    return

    start = p.inverse().one_line(lo, hi)
    if below(0, start):
        walk(0, start, p.length, 0)
    return out


def subword_complex(ambient: Word, p: Permutation) -> SimplicialComplex:
    """Faces are the position sets whose complements still contain p: the
    facets are the complements of the reduced subwords for p, and there are
    none when the ambient word does not contain p."""
    return _complements(ambient, _reduced_subwords(ambient, p))


def _complements(ambient: Word, masks: list[int]) -> SimplicialComplex:
    """The complex on the ambient positions whose facets complement the masks."""
    positions = tuple(range(1, len(ambient) + 1))
    full = (1 << len(ambient)) - 1
    return SimplicialComplex(positions, frozenset(_faces(positions, [full ^ m for m in masks])))


def slide_complex(ambient: Word, target: Word) -> SimplicialComplex:
    """Subcomplex of the subword complex keeping only the facets whose
    complements are embeddings of the one given reduced word.
    """
    if not perms.is_reduced(target):
        raise ValueError("slide complexes are indexed by reduced words")
    return word_set_complex(ambient, [target])


def word_set_complex(ambient: Word, words: Sequence[Word]) -> SimplicialComplex:
    """The facets of the subword complex whose complements spell a word of
    the given set.  All words must be reduced words of one permutation, so
    the complex is pure.  Only the kept masks are decoded, but the walk
    still visits every facet of the subword complex."""
    target = _common_permutation(words)
    keep = set(map(tuple, words))
    masks = _reduced_subwords(ambient, Permutation.identity() if target is None else target)
    return _complements(ambient, [m for m in masks if tuple(
        a for k, a in enumerate(ambient) if m >> k & 1) in keep])


def _common_permutation(words: Sequence[Word]) -> Permutation | None:
    target = None
    for w in words:
        if not perms.is_reduced(w):
            raise ValueError(f"{w!r} is not reduced")
        p = perms.prod_word(w)
        if target is None:
            target = p
        elif p != target:
            raise ValueError("words do not all represent one permutation")
    return target


def is_backwards_saturated(words: Iterable[Word]) -> bool:
    """Recursive closure property guaranteeing that the word-set complex is a
    ball or sphere: for each first letter actually used, the words behind it
    stay backwards-saturated and every word of the set contains one of them
    as a subword.
    """
    word_set = frozenset(tuple(w) for w in words)
    _common_permutation(sorted(word_set))
    return _bs_check(word_set)


@perms._memo
def _bs_check(word_set: frozenset[Word]) -> bool:
    for letter in {w[0] for w in word_set if w}:
        behind = frozenset(w[1:] for w in word_set if w and w[0] == letter)
        if not _bs_check(behind):
            return False
        if not all(any(_is_subword(tail, w) for tail in behind) for w in word_set):
            return False
    return True


def _is_subword(short: Word, long: Word) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


# ---------------------------------------------------------------------------
# tableau complexes


TableauVertex = tuple[tuple[int, int], int]  # ((row, col), value)


def _tableau_elements(t: shapes.Tableau) -> frozenset[TableauVertex]:
    return frozenset(((r + 1, c + 1), v)
                     for r, row in enumerate(t) for c, v in enumerate(row))


def _tableau_facets(family: str, shape: shapes.Shape, n: int, ambient) -> tuple[frozenset, dict]:
    """The ambient filling, by default the union of all family tableaux, and
    each tableau's facet: its complement inside the ambient filling."""
    elements = {t: _tableau_elements(t) for t in shapes.enumerate_tableaux(family, shape, n)}
    ambient = frozenset().union(*elements.values()) if ambient is None else frozenset(ambient)
    if not all(0 < r <= len(shape) and 0 < c <= shape[r - 1] for (r, c), _ in ambient):
        raise ValueError("an ambient element lies in no box of the shape")
    if not all(e <= ambient for e in elements.values()):
        raise ValueError("ambient filling must contain every family tableau")
    return ambient, {t: ambient - e for t, e in elements.items()}


def tableau_complex(family: str, shape: shapes.Shape, n: int,
                    ambient: frozenset[TableauVertex] | None = None) -> SimplicialComplex:
    """Facets are the complements, inside the ambient filling, of the family
    tableaux; general faces are complements of limit set-valued tableaux.
    """
    ambient, facets = _tableau_facets(family, shape, n, ambient)
    return SimplicialComplex(tuple(sorted(ambient)), frozenset(facets.values()))


def interior_faces(family: str, shape: shapes.Shape, n: int,
                   ambient: frozenset[TableauVertex] | None = None) -> frozenset[Face]:
    """Faces whose complements are set-valued family tableaux outright (every
    selection in the family), not merely limit set-valued ones.

    For ssyt, ct and wct these are the faces off the boundary: the closure of
    the facets less the closure of the once-covered ridges that
    `boundary_faces` closes, all on masks; a sphere has no such ridge, so
    every face is interior.  For ssyt the complex is a ball or sphere whose
    interior faces are these (Knutson-Miller-Yong, "Groebner geometry of
    vertex decompositions and of flagged tableaux", 2009); for all three the
    rule was checked against the selections of each face's complement on
    every complex with |shape| <= 5 and n <= 5.  For syt they are the facets:
    were a box to hold two values, two selections would differ only there
    and could not both use each of 1..N once, so a set-valued tableau whose
    every selection is standard is single-valued, and its face a facet.
    """
    complex_ = tableau_complex(family, shape, n, ambient)
    if family == "syt":
        return complex_.facets
    order, _, masks = complex_._view
    return frozenset(_faces(order, _closure(masks) - _closure(complex_._classified[2])))


def ssyt_standardization_decomposition(shape: shapes.Shape, n: int) -> dict[shapes.Tableau, SimplicialComplex]:
    """Partition the facets of the semistandard tableau complex by the
    standardization of the complementary tableau, one subcomplex per standard
    tableau, all inside the common ambient filling.
    """
    ambient, facets = _tableau_facets("ssyt", shape, n, None)
    vertices = tuple(sorted(ambient))
    classes: dict[shapes.Tableau, list[Face]] = {}
    for t, facet in facets.items():
        classes.setdefault(shapes.standardize(t), []).append(facet)
    return {key: SimplicialComplex(vertices, frozenset(facets))
            for key, facets in sorted(classes.items())}


# ---------------------------------------------------------------------------
# rendering


def to_dot(complex_: SimplicialComplex, labels: dict | None = None) -> str:
    """1-skeleton as a graph; 2-faces are recorded as comments."""
    if complex_.is_void:
        return "graph complex { /* void */ }"
    if complex_.dimension() > 2:
        raise ValueError("dot output is for complexes of dimension at most 2")
    labels = labels or {}
    names = {v: f"v{k}" for k, v in enumerate(complex_.vertices)}
    lines = ["graph complex {"]
    for v in complex_.vertices:
        label = labels.get(v, v)
        lines.append(f'  {names[v]} [label="{label}"];')
    edges = sorted({tuple(sorted((names[a], names[b])))
                    for f in complex_.facets
                    for a, b in itertools.combinations(sorted(f), 2)})
    for a, b in edges:
        lines.append(f"  {a} -- {b};")
    for f in sorted(complex_.facets, key=sorted):
        if len(f) == 3:
            lines.append(f"  /* 2-face {sorted(f)} */")
    lines.append("}")
    return "\n".join(lines)


def to_svg(complex_: SimplicialComplex, labels: dict | None = None) -> str:
    """Vertices on a circle, edges as lines, triangles shaded."""
    import math

    if complex_.is_void:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>'
    if complex_.dimension() > 2:
        raise ValueError("svg output is for complexes of dimension at most 2")
    labels = labels or {}
    verts = list(complex_.vertices)
    radius = 120
    side = 2 * radius + 60
    centre = side / 2
    pos = {}
    for k, v in enumerate(verts):
        angle = 2 * math.pi * k / max(len(verts), 1)
        pos[v] = (centre + radius * math.cos(angle), centre + radius * math.sin(angle))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}">']
    for f in sorted(complex_.facets, key=sorted):
        if len(f) == 3:
            pts = " ".join(f"{pos[v][0]:.1f},{pos[v][1]:.1f}" for v in sorted(f))
            parts.append(f'<polygon points="{pts}" fill="#ccc" stroke="none"/>')
    edges = sorted({tuple(sorted((a, b)))
                    for f in complex_.facets
                    for a, b in itertools.combinations(sorted(f), 2)})
    for a, b in edges:
        (x1, y1), (x2, y2) = pos[a], pos[b]
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" stroke="#000"/>')
    for v in verts:
        x, y = pos[v]
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#000"/>')
        parts.append(f'<text x="{x + 5:.1f}" y="{y - 5:.1f}" font-size="10">{labels.get(v, v)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
