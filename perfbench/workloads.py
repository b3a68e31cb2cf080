"""The benchmark's workloads: seeded inputs, the program calls that make up
one task, and the independent check of each task's answer.

A task is ``Task(kind, args, size)``.  ``RUN[kind](m, *args)`` is the timed
part: it calls the program through the namespace ``m`` of schubcalc modules.
``CHECK[kind](result, *args)`` runs after the timer stops and compares the
answer with a route from ``oracle`` or a known identity; it never compares
with a stored output of the program.  ``size`` records what was drawn.

Inputs are plain tuples, so the program receives only the generated data.
A pass is a fixed mix of task kinds; the seed decides which inputs fill it.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import namedtuple

import oracle as O

Task = namedtuple("Task", "kind args size")

# Per-pass mixes.  The smoke test shrinks these.
SIZES = {
    "families": {
        # (n, tasks per pass, largest length): the window of p ends at n; the
        # numbers of reduced words and of reduced pipe dreams, which set the
        # cost, lie in the bands below
        "schubert": ((6, 8, 15), (7, 10, 12), (8, 8, 10), (9, 2, 9)),
        "schubert_words": (6, 15), "schubert_dreams": (20, 40),
        # (n, tasks per pass, least and largest length of p, with the glide expansion)
        "grothendieck": ((4, 4, 2, 5, True), (5, 10, 5, 5, True), (6, 1, 8, 8, False)),
        "schur": 5, "schur_size": (3, 5), "schur_vars": 4,
        "slide": 4, "glide": 4, "comp_size": 5, "comp_parts": 4,
        "backstable": 3, "backstable_n": 5,
    },
    "complexes": {
        # subword tasks are banded by `face_bound`: facets * 2^(dim + 1),
        # which sets their cost.  (n, tasks per pass, band) for Q_n:
        "triangular": ((5, 6, (1536, 3072)), (6, 1, (1536, 3072))), "triangular_words": 400,
        "random": 14, "random_length": (10, 14), "random_band": (384, 768),
        "tableau": 4, "tableau_size": 3, "tableau_vars": 3,
        "decompose": 2, "wordset": 4,
    },
    "bijections": {
        # (least and most shuffles, Monk tasks, Pieri tasks) per pass; a sweep
        # of C(l + k, k) * |R(p)| shuffles costs about 0.3 ms per shuffle
        "bands": ((4, 12, 2, 2), (36, 60, 3, 3), (180, 240, 2, 1)),
        "n": (5, 7), "max_length": 10, "max_k": 3,
    },
    "cli": {"repeats": 1},
}


class CheckFailed(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# -- sampling -------------------------------------------------------------------


def walk_up(rng, n: int, target: int):
    """A permutation of S_n of the target length, by a random walk up."""
    p = O.IDENTITY
    cap = n * (n - 1) // 2
    target = min(target, cap)
    while O.length(p) < target:
        q = O.times_simple(p, rng.randint(1, n - 1))
        if O.length(q) > O.length(p):
            p = q
    return p


def draw_permutation(rng, n: int, min_len: int, max_len: int, max_words: int,
                     ending_at_n: bool = True, tries: int = 200, min_words: int = 1):
    """A permutation in S_n with min_len <= length <= max_len and between
    min_words and max_words reduced words; with ending_at_n its window ends
    exactly at n.  None when `tries` draws find none.
    """
    for _ in range(tries):
        p = walk_up(rng, n, rng.randint(min_len, max_len))
        if p == O.IDENTITY or O.length(p) < min_len:
            continue
        if ending_at_n and O.span(p)[1] != n:
            continue
        if min_words <= O.count_reduced_words(p) <= max_words:
            return p
    return None


def must_draw(rng, *args, **kwargs):
    for _ in range(100):
        p = draw_permutation(rng, *args, **kwargs)
        if p is not None:
            return p
    raise RuntimeError(f"no permutation fits {args} {kwargs}")


def partitions(total: int, cap: int | None = None):
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def to_program(m, p):
    lo, window = p
    return m.perms.Permutation.from_one_line(window, lo=lo)


def size_of(p) -> dict:
    return {"n": O.span(p)[1], "length": O.length(p), "words": O.count_reduced_words(p)}


# -- families -------------------------------------------------------------------


def families_pass(rng, sz) -> list[Task]:
    tasks = []
    lo_words, hi_words = sz["schubert_words"]
    lo_dreams, hi_dreams = sz["schubert_dreams"]
    for n, count, max_len in sz["schubert"]:
        for _ in range(count):
            while True:
                p = must_draw(rng, n, 1, max_len, hi_words, min_words=lo_words)
                dreams = O.reduced_pipe_dream_count(p)
                if lo_dreams <= dreams <= hi_dreams:
                    break
            tasks.append(Task("schubert", (p,), dict(size_of(p), dreams=dreams)))
    for n, count, min_len, max_len, glides in sz["grothendieck"]:
        for _ in range(count):
            p = must_draw(rng, n, min_len, max_len, 10 ** 9)
            tasks.append(Task("grothendieck", (p, glides), dict(size_of(p), glides=glides)))
    lo_size, hi_size = sz["schur_size"]
    shapes = [lam for t in range(lo_size, hi_size + 1) for lam in partitions(t)
              if len(lam) <= sz["schur_vars"]]
    for _ in range(sz["schur"]):
        lam = rng.choice(shapes)
        n = rng.randint(len(lam), sz["schur_vars"])
        tasks.append(Task("schur", (lam, n), {"size": sum(lam), "vars": n}))
    comps = [a for t in range(1, sz["comp_size"] + 1)
             for parts in range(1, sz["comp_parts"] + 1)
             for a in O.weak_compositions(t, parts)]
    for kind in ("slide", "glide"):
        for _ in range(sz[kind]):
            a = rng.choice(comps)
            tasks.append(Task(kind, (a,), {"size": sum(a), "parts": len(a)}))
    for _ in range(sz["backstable"]):
        n = rng.randint(3, sz["backstable_n"])
        p = must_draw(rng, n, 1, n * (n - 1) // 2, 60, ending_at_n=False)
        low = rng.randint(-1, 0)
        tasks.append(Task("backstable", (p, low), dict(size_of(p), lower=low)))
    rng.shuffle(tasks)
    return tasks


def run_schubert(m, p):
    q = to_program(m, p)
    return m.poly.schubert(q), m.poly.expand_schubert_into_slides(q)


def check_schubert(result, p):
    s, slides = result
    s = O.from_program(s)
    expect(s == O.schubert_from_words(p), "schubert differs from the reduced-word route")
    expect(set(slides) == set(O.reduced_words(p)), "slides not indexed by the reduced words")
    total = {}
    for value in slides.values():
        O.add_into(total, O.from_program(value))
    expect(total == s, "slides do not sum to the Schubert polynomial")


def run_grothendieck(m, p, with_glides):
    q = to_program(m, p)
    return (m.poly.grothendieck(q),
            m.poly.expand_grothendieck_into_glides(q) if with_glides else None)


def check_grothendieck(result, p, with_glides):
    g, glides = result
    g = O.from_program(g)
    expect(sum(g.values()) == 1, "G_w(1, ..., 1) != 1")
    expect(O.lowest_degree_part(g) == O.schubert_from_words(p),
           "lowest degree part is not the Schubert polynomial")
    if not with_glides:
        return
    total = {}
    for value in glides.values():
        O.add_into(total, O.from_program(value))
    expect(total == g, "glides do not sum to the Grothendieck polynomial")


def run_schur(m, lam, n):
    return m.poly.schur(lam, n), m.poly.expand_schur_into_fundamentals(lam, n)


def check_schur(result, lam, n):
    s, fundamentals = result
    s = O.from_program(s)
    expect(sum(s.values()) == O.hook_content(lam, n), "s_lambda(1^n) breaks hook-content")
    expect(len(fundamentals) == O.hook_length(lam), "wrong number of standard tableaux")
    expect(all(O.is_standard(t) for t in fundamentals), "a key is not a standard tableau")
    total = {}
    for value in fundamentals.values():
        O.add_into(total, O.from_program(value))
    expect(total == s, "fundamentals do not sum to the Schur polynomial")


def run_slide(m, a):
    return m.poly.slide(a)


def check_slide(result, a):
    expect(O.from_program(result) == O.slide(a), "slide differs from the dominance definition")


def run_glide(m, a):
    return m.poly.glide(a)


def check_glide(result, a):
    g = O.from_program(result)
    expect(O.lowest_degree_part(g) == O.slide(a), "lowest degree part of glide is not the slide")
    expect(all((c > 0) == ((O.degree(mono) - sum(a)) % 2 == 0) for mono, c in g.items()),
           "glide signs do not alternate with degree")


def run_backstable(m, p, low):
    return m.poly.backstable_truncation(to_program(m, p), low)


def check_backstable(result, p, low):
    expect(O.from_program(result) == O.schubert_from_words(p, low),
           "truncation differs from the reduced-word route")


# -- complexes ------------------------------------------------------------------


def face_bound(q, p) -> int:
    """facets * 2^(dim + 1): bounds the faces the complex's searches visit."""
    return len(O.subword_facets(q, p)) * 2 ** (len(q) - O.length(p))


def complexes_pass(rng, sz) -> list[Task]:
    tasks = []
    for n, count, (lo, hi) in sz["triangular"]:
        q = tuple(a for row in range(1, n) for a in range(n - 1, row - 1, -1))
        for _ in range(count):
            while True:
                p = must_draw(rng, n, 1, n * (n - 1) // 2, sz["triangular_words"],
                              ending_at_n=False)
                bound = face_bound(q, p)
                if lo <= bound < hi:
                    break
            tasks.append(Task("subword", (q, p, True),
                              {"ambient": len(q), "length": O.length(p), "face_bound": bound}))
    lo_len, hi_len = sz["random_length"]
    lo, hi = sz["random_band"]
    for _ in range(sz["random"]):
        while True:
            q = tuple(rng.randint(1, 4) for _ in range(rng.randint(lo_len, hi_len)))
            p = O.demazure([a for a in q if rng.random() < 0.5])
            bound = face_bound(q, p)
            if lo <= bound < hi:
                break
        tasks.append(Task("subword", (q, p, False),
                          {"ambient": len(q), "length": O.length(p), "face_bound": bound}))
    for _ in range(sz["tableau"]):
        family = rng.choice(("ssyt", "ct", "wct"))
        total = rng.randint(2, sz["tableau_size"])
        if family == "ssyt":
            shape = rng.choice(list(partitions(total)))
            n = rng.randint(len(shape), sz["tableau_vars"])
        elif family == "ct":
            shape = rng.choice(list(compositions(total)))
            n = rng.randint(len(shape), sz["tableau_vars"])
        else:
            shape = rng.choice([a for parts in range(2, sz["tableau_vars"] + 1)
                                for a in O.weak_compositions(total, parts)])
            n = len(shape)
        tasks.append(Task("tableau", (family, shape, n), {"size": total, "vars": n}))
    for _ in range(sz["decompose"]):
        shape = rng.choice(list(partitions(rng.randint(2, sz["tableau_size"]))))
        n = rng.randint(len(shape), sz["tableau_vars"])
        tasks.append(Task("decompose", (shape, n), {"size": sum(shape), "vars": n}))
    for _ in range(sz["wordset"]):
        p = must_draw(rng, 4, 2, 4, 10 ** 9, ending_at_n=False)
        words = list(O.reduced_words(p))
        if rng.random() < 0.5 and len(words) > 1:
            words = rng.sample(words, rng.randint(1, len(words) - 1))
        ambient = list(rng.choice(words))
        while len(ambient) < rng.randint(7, 9):
            ambient.insert(rng.randint(0, len(ambient)), rng.randint(1, 3))
        tasks.append(Task("wordset", (tuple(ambient), tuple(sorted(words))),
                          {"ambient": len(ambient), "words": len(words)}))
    rng.shuffle(tasks)
    return tasks


def run_subword(m, q, p, with_generators):
    c = m.complexes.subword_complex(q, to_program(m, p))
    return (c, m.complexes.classify_ball_or_sphere(c), m.complexes.vertex_decomposition(c),
            c.reduced_euler_characteristic(), m.complexes.boundary_faces(c),
            m.complexes.stanley_reisner_generators(c) if with_generators else None)


def check_subword(result, q, p, with_generators):
    c, kind, tree, chi, boundary, generators = result
    facets = O.subword_facets(q, p)
    expect(c.facets == facets, "facets are not the complements of the embeddings")
    sphere = O.demazure(q) == p
    dim = len(q) - O.length(p) - 1
    expect(kind.kind == ("sphere" if sphere else "ball"), "sphere iff Demazure(Q) == p")
    expect(chi == ((-1) ** dim if sphere else 0), "reduced Euler characteristic")
    expect(tree is not None, "subword complexes are vertex-decomposable")
    expect(bool(boundary) != sphere, "a ball has a boundary, a sphere none")
    for face in boundary:
        rest = [a for pos, a in enumerate(q, start=1) if pos not in face]
        expect(O.is_face(face, facets) and O.demazure(rest) != p,
               "boundary face fails the Demazure criterion")
    if with_generators:
        for g in generators:
            expect(not O.is_face(g, facets), "a generator is a face")
            expect(all(O.is_face(g - {v}, facets) for v in g), "a generator is not minimal")


def all_faces(facets) -> set:
    out = set()
    for f in facets:
        items = sorted(f)
        for r in range(len(items) + 1):
            out.update(frozenset(c) for c in itertools.combinations(items, r))
    return out


def run_tableau(m, family, shape, n):
    c = m.complexes.tableau_complex(family, shape, n)
    return (c, m.complexes.interior_faces(family, shape, n),
            m.complexes.classify_ball_or_sphere(c), m.complexes.boundary_faces(c))


def check_tableau(result, family, shape, n):
    c, interior, kind, boundary = result
    expect(kind.kind in ("ball", "sphere"), "tableau complexes are balls or spheres")
    expect(all(len(f) == len(c.vertices) - sum(shape) for f in c.facets), "facet size")
    if family == "ssyt":
        expect(len(c.facets) == O.hook_content(shape, n), "one facet per SSYT")
    faces = all_faces(c.facets)
    expect(interior | boundary == faces and not interior & boundary,
           "interior faces are not the complement of the boundary")


def run_decompose(m, shape, n):
    parts = m.complexes.ssyt_standardization_decomposition(shape, n)
    return parts, [m.complexes.classify_ball_or_sphere(sub).kind for sub in parts.values()]


def check_decompose(result, shape, n):
    parts, kinds = result
    expect(all(O.is_standard(t) and tuple(map(len, t)) == shape for t in parts),
           "classes are not indexed by standard tableaux")
    facets = [f for sub in parts.values() for f in sub.facets]
    expect(len(facets) == len(set(facets)) == O.hook_content(shape, n),
           "classes do not partition the SSYT facets")
    expect(all(k in ("ball", "sphere") for k in kinds), "a class is not a ball or sphere")


def run_wordset(m, ambient, words):
    c = m.complexes.word_set_complex(ambient, words)
    return (c, m.complexes.is_backwards_saturated(words),
            m.complexes.classify_ball_or_sphere(c))


def check_wordset(result, ambient, words):
    c, saturated, kind = result
    expect(c.facets == O.word_set_facets(ambient, words), "word-set facets")
    expect(saturated == O.backwards_saturated(words), "backwards saturation")
    if saturated:
        expect(kind.kind in ("ball", "sphere"), "saturated sets give balls or spheres")


# -- bijections -----------------------------------------------------------------


def bijections_pass(rng, sz) -> list[Task]:
    tasks = []
    lo_n, hi_n = sz["n"]
    for lo, hi, monks, pieris in sz["bands"]:
        for kind in ["monk"] * monks + ["pieri"] * pieris:
            p = None
            while p is None:
                n = rng.randint(lo_n, hi_n)
                length = rng.randint(1, min(sz["max_length"], n * (n - 1) // 2))
                k = 1 if kind == "monk" else rng.randint(1, sz["max_k"])
                per_word = math.comb(length + k, k)
                p = draw_permutation(rng, n, length, length, hi // per_word,
                                     ending_at_n=False, tries=20,
                                     min_words=max(1, -(-lo // per_word)))
            i = rng.randint(1, n - 1)
            shuffles = per_word * O.count_reduced_words(p)
            size = dict(size_of(p), shuffles=shuffles, k=k)
            if kind == "monk":
                tasks.append(Task("monk", (p, i), size))
            else:
                tasks.append(Task("pieri", (p, i, k, rng.choice("cr")), size))
    rng.shuffle(tasks)
    return tasks


def run_monk(m, p, i):
    q = to_program(m, p)
    words = m.perms.reduced_words(q)
    outputs, inverses = [], []
    for w in words:
        for j in range(1, len(w) + 2):
            out = m.shuffles.monk_shuffle(i, w, j)
            outputs.append(((w, j), out))
            inverses.append(m.shuffles.monk_unshuffle(i, out, q))
    return words, outputs, inverses


def check_monk(result, p, i):
    words, outputs, inverses = result
    expect(tuple(words) == O.reduced_words(p), "reduced words of p")
    expect(len(outputs) == (O.length(p) + 1) * O.count_reduced_words(p), "(l+1)|R(p)| shuffles")
    pool = sorted(w for cover, _, _ in O.monk_covers(p, i) for w in O.reduced_words(cover))
    expect(sorted(out for _, out in outputs) == pool, "outputs are not R(p t) over Monk covers")
    expect(all(inv == src for (src, _), inv in zip(outputs, inverses)), "unshuffle round trip")


def run_pieri(m, p, i, k, variant):
    q = to_program(m, p)
    targets = m.shuffles.pieri_targets(q, i, k, variant)
    words = m.perms.reduced_words(q)
    outputs, inverses = [], []
    for w in words:
        for positions in itertools.combinations(range(1, len(w) + k + 1), k):
            out = m.shuffles.pieri_shuffle(i, w, positions, variant=variant)
            outputs.append(((w, positions), out))
            inverses.append(m.shuffles.pieri_unshuffle(i, out, q, variant=variant)
                            .word_and_positions())
    return targets, words, outputs, inverses


def check_pieri(result, p, i, k, variant):
    targets, words, outputs, inverses = result
    mine = O.pieri_targets(p, i, k, variant)
    expect({(t.lo, t.window) for t in targets} == mine, "Pieri targets")
    expect(tuple(words) == O.reduced_words(p), "reduced words of p")
    expect(len(outputs) == math.comb(O.length(p) + k, k) * O.count_reduced_words(p),
           "C(l+k, k)|R(p)| shuffles")
    pool = sorted(w for t in mine for w in O.reduced_words(t))
    expect(sorted(out for _, out in outputs) == pool, "outputs are not R(sigma) over targets")
    expect(all(inv == src for (src, _), inv in zip(outputs, inverses)), "unshuffle round trip")


# -- cli ------------------------------------------------------------------------


def _poly(*terms) -> dict:
    """Terms as (coeff, {variable: exponent})."""
    return {tuple(sorted(exps.items())): c for c, exps in terms}


S1432 = _poly((1, {1: 2, 2: 1}), (1, {1: 2, 3: 1}), (1, {1: 1, 2: 2}),
              (1, {1: 1, 2: 1, 3: 1}), (1, {2: 2, 3: 1}))
Q321323_FACETS = frozenset(map(frozenset, ({1, 3, 6}, {3, 5, 6}, {3, 4, 5}, {2, 3, 4}, {1, 2, 3})))

# (arguments, output kind, expected value), answers worked out by hand from
# the README's examples and the definitions.
CLI_CASES = (
    (("perm", "reduced-words", "[1432]"), "words", ((2, 3, 2), (3, 2, 3))),
    (("perm", "lehmer", "[15243]"), "ints", (0, 3, 0, 1, 0)),
    (("perm", "demazure", "--word", "53153243"), "perm", "[246135]"),
    (("poly", "schubert", "[1432]"), "poly", S1432),
    (("poly", "grothendieck", "[132]"), "poly",
     _poly((1, {1: 1}), (1, {2: 1}), (-1, {1: 1, 2: 1}))),
    (("poly", "schur", "2,1", "--vars", "3"), "poly",
     _poly(*[(1, {a: 2, b: 1}) for a in (1, 2, 3) for b in (1, 2, 3) if a != b],
           (2, {1: 1, 2: 1, 3: 1}))),
    (("poly", "slide", "0,2"), "poly", _poly((1, {1: 2}), (1, {1: 1, 2: 1}), (1, {2: 2}))),
    (("poly", "backstable", "[21]", "--lower-bound", "0"), "poly",
     _poly((1, {0: 1}), (1, {1: 1}))),
    (("expand", "schubert-slides", "[1432]"), "expansion",
     {(2, 3, 2): _poly((1, {1: 1, 2: 2})),
      (3, 2, 3): _poly((1, {1: 1, 2: 1, 3: 1}), (1, {1: 2, 2: 1}), (1, {1: 2, 3: 1}),
                       (1, {2: 2, 3: 1}))}),
    (("pipedreams", "list", "[1432]"), "dreams",
     frozenset(frozenset(cells) for cells in (
         {(1, 2), (1, 3), (2, 2)}, {(1, 2), (1, 3), (3, 1)}, {(1, 2), (2, 1), (2, 2)},
         {(1, 3), (2, 1), (3, 1)}, {(2, 1), (2, 2), (3, 1)}))),
    (("complex", "subword", "--word", "321323", "--perm", "[1432]"), "complex", Q321323_FACETS),
    (("complex", "classify", "--word", "321323", "--perm", "[1432]"), "classify",
     ("ball", ((1, 2), (1, 6), (2, 4), (4, 5), (5, 6)))),
    (("complex", "sr-generators", "--word", "321323", "--perm", "[1432]"), "faces",
     ((1, 4), (1, 5), (2, 5), (2, 6), (4, 6))),
    (("shuffle", "monk", "--i", "3", "--word", "323432", "--pos", "5"), "word",
     (1, 2, 3, 2, 4, 3, 2)),
    (("shuffle", "monk-inv", "--i", "1", "--word", "3121", "--perm", "[321]"), "word_at",
     ((1, 2, 1), 1)),
    (("shuffle", "verify", "--rule", "monk", "--perm", "[1432]", "--i", "2"), "line",
     "monk bijection on [1432], i=2: ok (8 shuffles)"),
    (("shuffle", "verify", "--rule", "pieri-c", "--perm", "[321]", "--i", "1", "--k", "2"),
     "line", "pieri-c bijection on [321], i=1, k=2: ok (20 shuffles)"),
    # the heavier fifth of the mix, where task_p90_ms lies: C(l + k, k) * |R(p)| shuffles
    (("shuffle", "verify", "--rule", "pieri-c", "--perm", "[24153]", "--i", "2", "--k", "2"),
     "line", "pieri-c bijection on [24153], i=2, k=2: ok (75 shuffles)"),
    (("shuffle", "verify", "--rule", "pieri-c", "--perm", "[3412]", "--i", "2", "--k", "3"),
     "line", "pieri-c bijection on [3412], i=2, k=3: ok (70 shuffles)"),
    (("shuffle", "verify", "--rule", "pieri-r", "--perm", "[51324]", "--i", "2", "--k", "2"),
     "line", "pieri-r bijection on [51324], i=2, k=2: ok (84 shuffles)"),
    (("shuffle", "verify", "--rule", "pieri-r", "--perm", "[24351]", "--i", "2", "--k", "2"),
     "line", "pieri-r bijection on [24351], i=2, k=2: ok (84 shuffles)"),
)

# Placements of --format: json goes after the subcommand; text goes before it,
# after it, or is left to the default.  `--format json` before the subcommand
# is the probe in FORMAT_FIRST_PROBES, kept out of the timed mix (see README).
PLACEMENTS = (("json", "after"), ("text", "before"), ("text", "after"), ("text", "default"))


def cli_argv(args, fmt: str, placement: str) -> tuple:
    if placement == "before":
        return ("--format", fmt) + tuple(args)
    if placement == "after":
        return tuple(args) + ("--format", fmt)
    return tuple(args)


def cli_pass(rng, sz) -> list[Task]:
    tasks = []
    for _ in range(sz["repeats"]):
        for index, (args, _, _) in enumerate(CLI_CASES):
            fmt, placement = (PLACEMENTS[0] if rng.random() < 0.5
                              else rng.choice(PLACEMENTS[1:]))
            tasks.append(Task("cli", (index, cli_argv(args, fmt, placement), fmt),
                              {"command": args[0], "format": fmt, "placement": placement}))
    rng.shuffle(tasks)
    return tasks


def cli_call(src: str, root: str, argv) -> str:
    """One CLI invocation in a fresh interpreter; returns its stdout."""
    proc = subprocess.run([sys.executable, "-m", "schubcalc.cli", *argv],
                          capture_output=True, text=True, cwd=root, timeout=120,
                          env=cli_env(src))
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
    return proc.stdout


def cli_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    return env


def run_cli(m, index, argv, fmt):
    return m.cli_call(argv)


def parse_poly_text(text: str) -> dict:
    """Read back the CLI's text form of a polynomial, e.g. "2 x_1 x_2^2 - x_0"."""
    out = {}
    text = text.strip()
    if text == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        factors = term.lstrip("-").split()
        coeff = int(factors.pop(0)) if factors and factors[0].isdigit() else 1
        exps = {}
        for factor in factors:
            match = re.fullmatch(r"x_(-?\d+)(?:\^(\d+))?", factor)
            if match is None:
                raise CheckFailed(f"unparsable term {term!r}")
            var = int(match[1])
            exps[var] = exps.get(var, 0) + int(match[2] or 1)
        out[tuple(sorted(exps.items()))] = sign * coeff
    return out


def poly_json(data) -> dict:
    return {tuple(sorted((int(i), e) for i, e in t["exponents"].items())): t["coeff"]
            for t in data}


def parse_cli_output(kind: str, fmt: str, out: str):
    """The answer printed by one command, as a value comparable with CLI_CASES."""
    text = out.strip()
    if kind == "line":
        return text
    if fmt == "json":
        data = json.loads(text)
        if kind == "words":
            return tuple(tuple(w) for w in data)
        if kind == "ints" or kind == "word":
            return tuple(data)
        if kind == "perm":
            return data["permutation"]
        if kind == "poly":
            return poly_json(data)
        if kind == "expansion":
            return {tuple(e["word"]): poly_json(e["polynomial"]) for e in data}
        if kind == "dreams":
            return frozenset(frozenset(map(tuple, d["crosses"])) for d in data)
        if kind == "complex":
            return frozenset(map(frozenset, data["facets"]))
        if kind == "classify":
            return data["kind"], tuple(tuple(r) for r in data["boundary_ridges"])
        if kind == "faces":
            return tuple(tuple(f) for f in data)
        if kind == "word_at":
            return tuple(data["word"]), data["position"]
    lines = text.splitlines()
    if kind == "words":
        return tuple(tuple(int(ch) for ch in line) for line in lines)
    if kind == "ints":
        return tuple(int(x) for x in text.split(","))
    if kind == "perm":
        return text
    if kind == "poly":
        return parse_poly_text(text)
    if kind == "expansion":
        return {tuple(int(ch) for ch in word): parse_poly_text(rest)
                for word, rest in (line.split(": ", 1) for line in lines)}
    if kind == "dreams":
        return frozenset(frozenset((int(r), int(c)) for r, c in re.findall(r"\((\d+),(\d+)\)", line))
                         for line in lines)
    if kind == "complex":
        return frozenset(frozenset(int(v) for v in body.split(",") if v)
                         for body in re.findall(r"\{([\d,]*)\}", text))
    if kind == "classify":
        return text, None
    if kind == "faces":
        return tuple(tuple(json.loads(line)) for line in lines)
    if kind == "word":
        return tuple(int(ch) for ch in text)
    if kind == "word_at":
        word, position = text.split(" @ ")
        return tuple(int(ch) for ch in word), int(position)
    raise CheckFailed(f"unknown output kind {kind}")


def check_cli(result, index, argv, fmt):
    _, kind, expected = CLI_CASES[index]
    got = parse_cli_output(kind, fmt, result)
    if kind == "classify" and fmt != "json":
        expected = (expected[0], None)
    expect(got == expected, f"{' '.join(argv)} printed {result.strip()[:80]!r}")


RUN = {
    "schubert": run_schubert, "grothendieck": run_grothendieck, "schur": run_schur,
    "slide": run_slide, "glide": run_glide, "backstable": run_backstable,
    "subword": run_subword, "tableau": run_tableau, "decompose": run_decompose,
    "wordset": run_wordset, "monk": run_monk, "pieri": run_pieri, "cli": run_cli,
}
CHECK = {
    "schubert": check_schubert, "grothendieck": check_grothendieck, "schur": check_schur,
    "slide": check_slide, "glide": check_glide, "backstable": check_backstable,
    "subword": check_subword, "tableau": check_tableau, "decompose": check_decompose,
    "wordset": check_wordset, "monk": check_monk, "pieri": check_pieri, "cli": check_cli,
}
PASSES = {
    "families": families_pass, "complexes": complexes_pass,
    "bijections": bijections_pass, "cli": cli_pass,
}

# `--format json` placed before the subcommand; at present the value is lost
# and text comes out, so these are reported apart from the timed mix.
FORMAT_FIRST_PROBES = (0, 3, 11, 13)
