"""Test-only second routes to pipe dreams and Grothendieck polynomials.

Both are deliberately naive and independent of the search in
`pipedreams.all_pipe_dreams`:

- `scan_pipe_dreams` tries every subset of the staircase;
- `grothendieck_by_divided_differences` starts from G_{w0} and applies
  isobaric divided differences (Lascoux-Schuetzenberger; Fomin-Kirillov
  1994), never looking at a pipe dream.
"""
import itertools

from schubcalc import perms
from schubcalc.perms import Permutation
from schubcalc.pipedreams import PipeDream, staircase_cells
from schubcalc.poly import Polynomial


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
                v = w.right_mul_simple(i)
                if v not in out:
                    out[v] = isobaric_divided_difference(out[w], i)
                    below.append(v)
        layer = below
    return out
