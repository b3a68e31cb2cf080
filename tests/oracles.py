"""Test-only second routes, deliberately naive and independent of the
code they check:

- `scan_pipe_dreams` tries every subset of the staircase, and
  `reduced_pipe_dreams_by_moves` closes the bottom pipe dream under chute
  and ladder moves (Bergeron-Billey, "RC-graphs and Schubert polynomials",
  1993), against the search in `pipedreams.all_pipe_dreams`;
- `grothendieck_by_divided_differences` starts from G_{w0} and applies
  isobaric divided differences (Lascoux-Schuetzenberger; Fomin-Kirillov
  1994), never looking at a pipe dream, to all of S_n, and
  `grothendieck_by_divided_differences_at` down one chain to one p;
- `schubert_from_words` sums over reduced words and compatible sequences
  at or above a lowest index, against `poly.schubert` and the shifted
  search of `poly.backstable_truncation`, and `glide_from_kompositions`
  over glide kompositions, found by filtering every candidate in
  `glide_kompositions`, against the pipe dream and tableau routes in
  `poly`; `compositions_weak` lists the weak compositions of a given size;
- `is_family_tableau_by_rules` writes each tableau family's rules out on
  its own, against the one bound checker behind `shapes.is_family_tableau`
  and `shapes._every_selection_fits`; `dominates` compares prefix sums of
  weak compositions;
- `interior_faces_by_tableaux` rebuilds each face's complement as a
  set-valued tableau with `elements_to_set_valued` and tests its
  selections, against the faces-minus-boundary rule on masks of
  `complexes.interior_faces`;
- `vertex_decomposition_by_deletion_link` walks deletions and links with no
  memo, against the memoised search in `complexes`;
- `face_by_binary_digits` reads a mask's binary digits, one per vertex,
  against the table decoder `complexes._faces`;
- `from_facets_by_scan` keeps each given face that no other contains, by
  frozenset inclusion, against the mask filter behind
  `SimplicialComplex.from_facets`;
- `faces_by_combinations`, `has_face_by_sets`, `deletion_by_sets`,
  `link_by_sets`, `ridge_facet_counts_by_sets`, `classify_by_sets` and
  `boundary_faces_by_combinations` build every face as a frozenset, and
  `reduced_euler_characteristic_by_submasks` visits every face as a
  submask, against the routines of `complexes.SimplicialComplex` that read
  its int-mask view of the facets;
- `stanley_reisner_by_subset_scan` tries every vertex subset up to
  dimension + 2, and `antidiagonal_generators` takes the inclusion-minimal
  antidiagonals of the rank minors on Fulton's essential set
  (Knutson-Miller, "Groebner geometry of Schubert polynomials", 2005,
  Theorem B), against the minimal-transversal search in
  `complexes.stanley_reisner_generators`;
- `word_embeddings` scans the ambient word once per target word, and
  `complement_facets_by_words` takes the complements of the embeddings of
  a list of words, against the reduced-subword walk behind
  `complexes.subword_complex`, `word_set_complex` and `slide_complex`;
- `words_on_letters` lists every word of a given length;
- `wiring_label_by_walk` and `cross_labels_by_walk` follow one height at a
  time through the swaps, `prod_word_by_simples` multiplies one
  `Permutation` per letter and `rightmost_subword_by_right_mul` peels one
  `Permutation` per chosen letter, against the one-pass image-list sweeps
  `perms.wiring_sweep`, `perms.prod_word`, `perms.is_reduced` and
  `rightmost_subword`; `random_words` draws the seeded words they are
  compared on;
- `rightmost_subword` embeds a permutation greedily from the right on one
  image list, against the containment check of `shuffles.pieri_unshuffle`,
  and `check_unmarked_subword_by_two_sweeps` is the Pieri insertion's
  subword check as a whole-word `perms.wiring_sweep` and then a separate
  `rightmost_subword`, against the one-pass
  `shuffles._check_unmarked_subword`;
- `demazure_step` is one letter of the Demazure product on a `Permutation`;
- `is_compatible` checks a row sequence against a word entry by entry, and
  `from_word_and_rows_by_compatibility` builds a dream only from compatible
  rows, against the reading-order check of `pipedreams.from_word_and_rows`;
- `quasi_yamanouchi_for_word_by_sequences` tries every positive compatible
  sequence of a reduced word, and `glide_of_word_by_filter` filters every
  pipe dream of the word's Demazure product, against the greatest-rows
  weight of `pipedreams.quasi_yamanouchi_weight` and `poly.glide_of_word`.
"""
import itertools
import random

from collections import Counter

from schubcalc import perms, shapes, shuffles
from schubcalc.complexes import Classification, SimplicialComplex, tableau_complex
from schubcalc.perms import INF, Permutation
from schubcalc.pipedreams import (
    PipeDream,
    all_pipe_dreams,
    ambient_size,
    bottom_pipe_dream,
    chute_moves,
    from_word_and_rows,
    is_quasi_yamanouchi,
    ladder_moves,
    staircase_cells,
)
from schubcalc.poly import Polynomial, from_weak_composition, glide


def scan_pipe_dreams(n):
    """Every cross set of the staircase of size n, grouped by the Demazure
    product of its reading word: all 2^(n(n-1)/2) subsets are tried."""
    cells = staircase_cells(n)
    out = {}
    for r in range(len(cells) + 1):
        for chosen in itertools.combinations(cells, r):
            p = perms.demazure(tuple(row + col - 1 for (row, col) in chosen))
            out.setdefault(p, set()).add(PipeDream(n, frozenset(chosen)))
    return out


def reduced_pipe_dreams_by_moves(p, n=None):
    """The chute/ladder closure of the bottom pipe dream for p."""
    if n is None:
        n = ambient_size(p)
    start = bottom_pipe_dream(p, n)
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbour in chute_moves(current) | ladder_moves(current):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return frozenset(seen)


def is_compatible(word, seq, lower_bound=None):
    """seq is weakly increasing, at most the word entrywise and at least
    lower_bound, and strictly increasing at every ascent of the word."""
    if len(word) != len(seq):
        return False
    for k in range(len(word)):
        if seq[k] > word[k]:
            return False
        if lower_bound is not None and seq[k] < lower_bound:
            return False
        if k + 1 < len(word):
            if seq[k] > seq[k + 1]:
                return False
            if word[k] < word[k + 1] and seq[k] >= seq[k + 1]:
                return False
    return True


def from_word_and_rows_by_compatibility(word, rows, n):
    """The dream with cross (r, a - r + 1) for letter a in row r, when the rows
    are compatible with the word (entries at least 1) and the crosses are
    distinct, lie in the staircase of size n and read the word back; None
    otherwise."""
    if not is_compatible(word, rows, lower_bound=1):
        return None
    crosses = frozenset((r, a - r + 1) for a, r in zip(word, rows))
    if len(crosses) != len(word) or any(r + c > n for r, c in crosses):
        return None
    dream = PipeDream(n, crosses)
    return dream if dream.reading_word() == tuple(word) else None


def quasi_yamanouchi_for_word_by_sequences(word):
    """The one quasi-Yamanouchi dream among the dreams of every positive
    compatible sequence of a reduced word, or None when it has none."""
    if not perms.is_reduced(word):
        raise ValueError("expected a reduced word")
    n = max(word) + 1 if word else 1
    found = None
    for rows in perms.compatible_sequences(word, lower_bound=1):
        dream = from_word_and_rows(word, rows, n)
        if is_quasi_yamanouchi(dream):
            assert found is None, f"two quasi-Yamanouchi dreams for word {word!r}"
            found = dream
    return found


def glide_of_word_by_filter(word):
    """Glide of the weight of the one quasi-Yamanouchi dream, among all pipe
    dreams of the word's Demazure product, that reads the word; zero when
    there is none."""
    p = perms.demazure(word)
    matches = [d for d in all_pipe_dreams(p, max_excess=len(word) - p.length)
               if is_quasi_yamanouchi(d) and d.reading_word() == tuple(word)]
    assert len(matches) <= 1, f"two quasi-Yamanouchi dreams read {word!r}"
    return glide(matches[0].weight()) if matches else Polynomial.zero()


def isobaric_divided_difference(f, i):
    """pi_i f = d_i((1 - x_{i+1}) f), with d_i f = (f - s_i f) / (x_i - x_{i+1})."""
    g = f - f * Polynomial.variable(i + 1)
    out = {}
    for mono, coeff in g.terms.items():
        exps = dict(mono)
        a, b = exps.pop(i, 0), exps.pop(i + 1, 0)
        sign = 1 if a > b else -1
        low, high = min(a, b), max(a, b)
        # d_i(x_i^a x_{i+1}^b) = sign * sum_k x_i^(high-1-k) x_{i+1}^(low+k)
        for k in range(high - low):
            exps[i], exps[i + 1] = high - 1 - k, low + k
            key = tuple(sorted((v, e) for v, e in exps.items() if e))
            out[key] = out.get(key, 0) + sign * coeff
    return Polynomial(out)


def grothendieck_by_divided_differences(n):
    """G_w for every w in S_n: G_{w0} = x_1^(n-1) ... x_{n-1}, and
    G_{w s_i} = pi_i G_w whenever w has a descent at i."""
    w0 = Permutation.from_one_line(range(n, 0, -1))
    out = {w0: Polynomial.monomial({i: n - i for i in range(1, n)})}
    layer = [w0]
    while layer:
        below = []
        for w in layer:
            for i in w.descents():
                v = w * Permutation.simple(i)
                if v not in out:
                    out[v] = isobaric_divided_difference(out[w], i)
                    below.append(v)
        layer = below
    return out


def grothendieck_by_divided_differences_at(p, n):
    """G_p for one p in S_n by the same divided differences, along a single
    chain: raise p by ascents s_{i_1}, ..., s_{i_m} to w0, so that
    G_p = pi_{i_1} ... pi_{i_m} G_{w0}."""
    images, ascents = list(p.one_line(1, n)), []
    while True:
        i = next((i for i in range(n - 1) if images[i] < images[i + 1]), None)
        if i is None:
            break
        images[i], images[i + 1] = images[i + 1], images[i]
        ascents.append(i + 1)
    g = Polynomial.monomial({i: n - i for i in range(1, n)})
    for i in reversed(ascents):
        g = isobaric_divided_difference(g, i)
    return g


def from_exponent_word(seq):
    """The product of x_j over the entries j of a sequence."""
    return Polynomial.monomial(Counter(seq))


def schubert_from_words(p, lowest_index=1):
    """Schubert polynomial via reduced words and their compatible sequences
    with every entry at least lowest_index: below 1, the truncation of the
    back-stable series that keeps x_lowest_index and beyond."""
    return Polynomial.sum(from_exponent_word(seq) for word in perms.reduced_words(p)
                          for seq in perms.compatible_sequences(word, lower_bound=lowest_index))


def is_family_tableau_by_rules(tableau, family, n):
    """Membership in one of the four tableau families, each family's rules
    written out on its own: rows, columns and the syt entry set for syt and
    ssyt, rows and whole-row separation (with the row cap for wct) for ct and
    wct."""
    shape = shapes.shape_of(tableau)
    entries = [v for row in tableau for v in row]
    if any(not 1 <= v <= n for v in entries):
        return False
    if not all(row[i] <= row[i + 1] for row in tableau for i in range(len(row) - 1)):
        return False
    if family in ("syt", "ssyt"):
        if not shapes.is_partition(shape):
            return False
        for r in range(len(tableau) - 1):
            for c in range(len(tableau[r + 1])):
                if tableau[r][c] >= tableau[r + 1][c]:
                    return False
        if family == "syt":
            return sorted(entries) == list(range(1, len(entries) + 1))
        return True
    previous_max = None
    for r, row in enumerate(tableau, start=1):
        if not row:
            continue
        if previous_max is not None and row[0] <= previous_max:
            return False
        if family == "wct" and row[-1] > r:
            return False
        previous_max = row[-1]
    return True


def glide_from_kompositions(shape):
    """Glide polynomial computed from the glide predicate on kompositions."""
    total = Polynomial.zero()
    for kappa in glide_kompositions(shape):
        term = from_weak_composition(kappa.parts)
        total = total + (term if kappa.excess % 2 == 0 else -term)
    return total


def glide_kompositions(shape):
    """All glides of a weak composition, by filtering candidates: at most
    len(shape) parts, total size |shape| plus the bold count."""
    n = len(shape)
    total = shapes.size(shape)
    out = []
    for extra in range(0, n + 1):
        for parts in compositions_weak(total + extra, n):
            nonzero_positions = [i + 1 for i, a in enumerate(parts) if a]
            for bold in itertools.combinations(nonzero_positions, extra):
                kappa = shapes.Komposition(parts, frozenset(bold))
                if shapes.is_glide(kappa, shape):
                    out.append(kappa)
    return tuple(out)


def compositions_weak(total, parts):
    """All weak compositions of `total` into exactly `parts` parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions_weak(total - first, parts - 1):
            yield (first,) + rest


def dominates(a, b):
    """Prefix sums of a weakly exceed those of b (shorter side padded)."""
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            return False
    return True


def elements_to_set_valued(elements, shape):
    """Reassemble ((row, col), value) pairs into a set-valued tableau; None
    when some box of the shape would be empty."""
    boxes = {}
    for box, v in elements:
        boxes.setdefault(box, set()).add(v)
    rows = []
    for r, width in enumerate(shape, start=1):
        row = []
        for c in range(1, width + 1):
            if (r, c) not in boxes:
                return None
            row.append(frozenset(boxes[(r, c)]))
        rows.append(tuple(row))
    return tuple(rows)


def interior_faces_by_tableaux(family, shape, n, ambient=None):
    """The faces of the tableau complex whose complements are set-valued
    family tableaux outright: each face's complement rebuilt as a
    set-valued tableau and its selections tested."""
    complex_ = tableau_complex(family, shape, n, ambient)
    ambient = frozenset(complex_.vertices)
    out = set()
    for face in faces_by_combinations(complex_):
        svt = elements_to_set_valued(ambient - face, shape)
        if svt is None:
            continue
        if (shapes.classify_set_valued(svt, family, n) == "set-valued" if family == "syt"
                else shapes._every_selection_fits(svt, family, n)):
            out.add(face)
    return frozenset(out)


def stanley_reisner_by_subset_scan(complex_):
    """Minimal non-faces: every vertex subset of size at most dimension + 2
    that is no face while all its codimension-one subsets are."""
    if complex_.is_void:
        raise ValueError("the void complex has a unit face ideal")
    out = set()
    vertices = list(complex_.vertices)
    top = complex_.dimension() + 2
    for size in range(1, min(len(vertices), top) + 1):
        for combo in itertools.combinations(vertices, size):
            face = frozenset(combo)
            if complex_.has_face(face) or any(gen <= face for gen in out):
                continue
            if all(complex_.has_face(face - {v}) for v in face):
                out.add(face)
    return frozenset(out)


def antidiagonal_generators(p, n):
    """Minimal non-faces of the subword complex of triangular_word(n) and p
    in S_n, as position sets: at each cell (i, j) of Fulton's essential set,
    where the NW i x j corner of p has rank r, every antidiagonal of an
    (r+1)-minor of that corner; the inclusion-minimal ones, with cell (i, j)
    sent to its position in the staircase read row by row from the top, each
    row right to left."""
    w = [p(i) for i in range(1, n + 1)]
    diagram = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
               if w[i - 1] > j and w.index(j) + 1 > i}
    essential = [(i, j) for (i, j) in diagram
                 if (i + 1, j) not in diagram and (i, j + 1) not in diagram]
    antidiagonals = set()
    for i, j in essential:
        r = sum(1 for k in range(i) if w[k] <= j)
        for rows in itertools.combinations(range(1, i + 1), r + 1):
            for cols in itertools.combinations(range(1, j + 1), r + 1):
                antidiagonals.add(frozenset(zip(rows, reversed(cols))))
    minimal = [a for a in antidiagonals if not any(b < a for b in antidiagonals)]
    position = {}
    for i in range(1, n):
        for j in range(n - i, 0, -1):
            position[(i, j)] = len(position) + 1
    return frozenset(frozenset(position[cell] for cell in a) for a in minimal)


def word_embeddings(ambient, target):
    """All position sets (1-based) carrying the target as a subword."""
    out = []

    def scan(start, k, chosen):
        if k == len(target):
            out.append(frozenset(chosen))
            return
        for p in range(start, len(ambient) - (len(target) - k) + 2):
            if ambient[p - 1] == target[k]:
                chosen.append(p)
                scan(p + 1, k + 1, chosen)
                chosen.pop()

    scan(1, 0, [])
    return out


def complement_facets_by_words(ambient, words):
    """The complements of the embeddings of the words in the ambient word."""
    everything = frozenset(range(1, len(ambient) + 1))
    return frozenset(everything - emb for word in words
                     for emb in word_embeddings(ambient, tuple(word)))


def words_on_letters(length, letters):
    """All words of the given length over the given alphabet."""
    yield from itertools.product(*([tuple(letters)] * length))


def vertex_decomposition_by_deletion_link(complex_):
    """Witness tree of the first vertex, in sorted order, whose deletion and
    link both decompose: "leaf" for {}, else (vertex, deletion tree, link
    tree); None when there is none.  No memo."""
    if complex_.is_void or not complex_.is_pure():
        return None
    if complex_.facets == frozenset({frozenset()}):
        return "leaf"
    for v in sorted(complex_.used_vertices()):
        del_tree = vertex_decomposition_by_deletion_link(complex_.deletion([v]))
        if del_tree is None:
            continue
        link_tree = vertex_decomposition_by_deletion_link(complex_.link([v]))
        if link_tree is None:
            continue
        return (v, del_tree, link_tree)
    return None


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def face_by_binary_digits(order, mask):
    """The vertices of a mask: its binary digits, lowest first, select them."""
    return frozenset(itertools.compress(order, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def from_facets_by_scan(facets, vertices=None):
    """The complex of the given faces that lie in no other one, on the given
    vertices or else the sorted used ones."""
    packed = frozenset(frozenset(f) for f in facets)
    packed = frozenset(f for f in packed if not any(f < g for g in packed))
    used = set().union(*packed)
    if vertices is None:
        return SimplicialComplex(tuple(sorted(used)), packed)
    vertices = tuple(vertices)
    if not used <= set(vertices):
        raise ValueError("a facet has a vertex outside the vertex set")
    return SimplicialComplex(vertices, packed)


def faces_by_combinations(complex_):
    """Every subset of every facet, as a set of frozensets."""
    out = set()
    for facet in complex_.facets:
        items = list(facet)
        for r in range(len(items) + 1):
            out.update(frozenset(c) for c in itertools.combinations(items, r))
    return out


def has_face_by_sets(complex_, face):
    probe = frozenset(face)
    return any(probe <= f for f in complex_.facets)


def deletion_by_sets(complex_, face):
    """Faces meeting the face nowhere: the facets less the face, reduced to
    the maximal ones, on the vertices outside it."""
    probe = frozenset(face)
    if not probe:
        return complex_
    remaining = tuple(v for v in complex_.vertices if v not in probe)
    return from_facets_by_scan({f - probe for f in complex_.facets}, remaining)


def link_by_sets(complex_, face):
    probe = frozenset(face)
    remaining = tuple(v for v in complex_.vertices if v not in probe)
    return from_facets_by_scan([f - probe for f in complex_.facets if probe <= f], remaining)


def ridge_facet_counts_by_sets(complex_):
    counts = Counter()
    for facet in complex_.facets:
        for v in facet:
            counts[facet - {v}] += 1
    return dict(counts)


def reduced_euler_characteristic_by_submasks(complex_):
    """Alternating sum over all faces, the empty face included, each face
    visited as a submask of a facet's int mask."""
    if complex_.is_void:
        return 0
    bit = {v: 1 << k for k, v in enumerate(set().union(*complex_.facets))}
    faces = set()
    for facet in complex_.facets:
        mask = sub = sum(bit[v] for v in facet)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    odd = sum(m.bit_count() & 1 for m in faces)
    return 2 * odd - len(faces) - 1  # odd sizes minus even ones and the empty face


def classify_by_sets(complex_):
    """The ball/sphere criterion with the unmemoised decomposition walk and
    ridge counts on frozensets."""
    if complex_.is_void or not complex_.is_pure():
        return Classification("neither")
    if vertex_decomposition_by_deletion_link(complex_) is None:
        return Classification("neither")
    counts = ridge_facet_counts_by_sets(complex_)
    if any(c > 2 for c in counts.values()):
        return Classification("neither")
    boundary = frozenset(f for f, c in counts.items() if c == 1)
    return Classification("ball" if boundary else "sphere", boundary)


def boundary_faces_by_combinations(complex_):
    """Every subset of every once-covered ridge of a ball."""
    out = set()
    for ridge in classify_by_sets(complex_).boundary_ridges:
        items = sorted(ridge)
        for r in range(len(items) + 1):
            out.update(frozenset(c) for c in itertools.combinations(items, r))
    return frozenset(out)


def demazure_step(p, letter):
    """One letter of the Demazure product."""
    if p(letter) < p(letter + 1):
        return p * Permutation.simple(letter)
    return p


def wiring_label_by_walk(word, column, height, skip=frozenset()):
    """The label at a height in a column: that one height walked through the
    swaps of positions column+1, ..., len(word); skipped positions and INF
    slots swap nothing."""
    h = height
    for p in range(column + 1, len(word) + 1):
        a = word[p - 1]
        if p in skip or a == INF:
            continue
        if h == a:
            h = a + 1
        elif h == a + 1:
            h = a
    return h


def cross_labels_by_walk(word, position, skip=frozenset()):
    h = word[position - 1]
    return (wiring_label_by_walk(word, position, h, skip),
            wiring_label_by_walk(word, position, h + 1, skip))


def prod_word_by_simples(word):
    result = Permutation.identity()
    for a in word:
        result = result * Permutation.simple(a)
    return result


def rightmost_subword_by_right_mul(ambient, p):
    """Greedy right-to-left embedding of a reduced word for p; None and INF
    entries are unusable.  Raises ValueError when there is none."""
    remaining = p
    chosen = []
    for pos in range(len(ambient), 0, -1):
        letter = ambient[pos - 1]
        if letter is None or letter == INF:
            continue
        if remaining(letter) > remaining(letter + 1):
            remaining = remaining * Permutation.simple(letter)
            chosen.append(pos)
    if not remaining.is_identity():
        raise ValueError("ambient word does not contain the permutation")
    return tuple(reversed(chosen))


def check_unmarked_subword_by_two_sweeps(slots, marks, down, up, column, source):
    """The subword check of a Pieri insertion step: the unmarked positions,
    each pending cross adding the leftmost up-marked cross that books the
    label it holds, are the rightmost subword for the source in the word
    without its pending crosses.  Raises InvariantError when they are not."""
    crosses = perms.wiring_sweep(slots, skip=down)[1]
    virtual = {p for p, m in enumerate(marks, start=1) if m is None}
    ups = sorted(up)
    for j in down:
        if slots[j - 1] == INF:
            continue
        held = crosses[j - 1][1 if column else 0]
        for p in ups:
            if crosses[p - 1][0 if column else 1] == held:
                virtual.add(p)
                break
    visible = tuple(None if (p in down or a == INF) else a
                    for p, a in enumerate(slots, start=1))
    expected = rightmost_subword(visible, source)
    if frozenset(virtual) != frozenset(expected):
        raise shuffles.InvariantError(f"unmarked subword {sorted(virtual)} "
                                      f"!= rightmost subword {sorted(expected)}")


def rightmost_subword(ambient, p):
    """Positions of the greedy right-to-left embedding of a reduced word for
    p, on one image list; entries of the ambient that are None (or INF) are
    unusable.  Raises ValueError when there is none."""
    usable = [(pos, int(a)) for pos, a in enumerate(ambient, start=1)
              if a is not None and a != INF]
    lo = min([p.lo] + [a for _, a in usable])
    hi = max([p.lo + len(p.window) - 1] + [a + 1 for _, a in usable])
    # images[x - lo] = remaining(x), remaining being p times the simple
    # transpositions of the letters chosen so far
    images = list(p.one_line(lo, hi))
    chosen: list[int] = []
    for pos, a in reversed(usable):
        a -= lo
        left, right = images[a], images[a + 1]
        if left > right:
            images[a], images[a + 1] = right, left
            chosen.append(pos)
    if images != list(range(lo, hi + 1)):
        raise ValueError("ambient word does not contain the permutation")
    return tuple(reversed(chosen))


def random_words(seed, count, letters=range(-2, 9), max_length=20):
    """Seeded words of length 0..max_length: every other one uniform (rarely
    reduced), the rest reduced, grown by keeping only letters that lengthen
    the product."""
    rng = random.Random(seed)
    for k in range(count):
        length = rng.randint(0, max_length)
        if k % 2:
            yield tuple(rng.choice(letters) for _ in range(length))
            continue
        word = ()
        for _ in range(length):
            longer = word + (rng.choice(letters),)
            if prod_word_by_simples(longer).length == len(longer):
                word = longer
        yield word
