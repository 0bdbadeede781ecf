"""Independent computations the benchmark checks bgkit's outputs against.

Nothing here imports bgkit.  Ball counts come from closed forms, distances
from the benchmark's own Dijkstra and word arithmetic, packings from closed
forms or a plain subset search, and the four-point constant from a separate
numpy scan.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

MARGIN = 1e-9   # the three-way verdict band bgkit documents for float rhs


# -- closed-form ball counts ---------------------------------------------------


def lattice_count(n: int, k: int = 2) -> int:
    """Points of Z^k (k = 1, 2) at l1 distance <= n."""
    if n < 0:
        return 0
    return 2 * n + 1 if k == 1 else 2 * n * n + 2 * n + 1


def free_count(n: int) -> int:
    """Elements of the rank-2 free group of word length <= n."""
    return 2 * 3 ** n - 1 if n >= 0 else 0


def atom_count(n: int) -> int:
    return 1 if n >= 0 else 0


COUNTS = {"lattice2": lattice_count,
          "free2": free_count,
          "atom": atom_count,
          "line": lambda n: lattice_count(n, 1)}


def mass_le(count, r: Fraction) -> int:
    return count(math.floor(r))


def mass_lt(count, r: Fraction) -> int:
    return count(math.ceil(r) - 1)


# -- concentric-ball scans -------------------------------------------------------


def scan_status(count, lo: Fraction, hi: Fraction, factor: float,
                exponent: float) -> str:
    """Verdict of mass(2r)/mass(r) <= factor e^(exponent r) on [lo, hi].

    Integer-distance ball counts jump only at integers and half-integers
    (for the doubled radius), so every half-integer in [lo, hi] plus lo is
    checked: the open-ball ratio at the point and the closed-ball ratio just
    after it, both against the right-hand side at the point.
    """
    violated = inconclusive = False
    for a, lhs in _ratios(count, lo, hi):
        rhs = factor * math.exp(exponent * float(a))
        value = float(lhs)
        if value >= rhs * (1.0 + MARGIN):
            violated = True
        elif value > rhs * (1.0 - MARGIN):
            inconclusive = True
    if violated:
        return "violated"
    return "inconclusive" if inconclusive else "verified"


def min_exponent(count, lo: Fraction, hi: Fraction, factor: float,
                 tolerance: float = 1e-6) -> float:
    """Smallest exponent K >= 0 with ratio <= factor e^(K r) on [lo, hi]."""
    best = 0.0
    ln_c = math.log(factor)
    for a, lhs in _ratios(count, lo, hi):
        if lhs > 1:
            ln_lhs = math.log(lhs.numerator) - math.log(lhs.denominator)
            best = max(best, (ln_lhs - ln_c) / float(a))
    return best if best > tolerance else 0.0


def _ratios(count, lo, hi):
    radii = {lo} | {Fraction(k, 2) for k in range(math.ceil(2 * lo),
                                                   math.floor(2 * hi) + 1)}
    for a in sorted(radii):
        yield a, Fraction(mass_lt(count, 2 * a), mass_lt(count, a))
        if a < hi:
            yield a, Fraction(mass_le(count, 2 * a), mass_le(count, a))


def weak_to_synthetic(r0: Fraction, C: float, K: float) -> float:
    """Dimension N' = max(K r0, log2 C) of the weak-to-synthetic conversion."""
    return max(K * float(r0), math.log(C) / math.log(2.0))


# -- packings ---------------------------------------------------------------------


def lattice_pack(r: int, R: int, k: int) -> int:
    """Largest family of points in the l1 ball of radius R - r of Z^k (k = 1,
    2) with pairwise l1 distance >= 2r.

    In the rotated coordinates u = x + y, v = x - y the l1 distance is the
    max-norm, and the ball is the square |u|, |v| <= R - r.  Each strip of
    u-width 2r holds at most floor((R - r)/r) + 1 points, and the grid of
    step 2r in (u, v) attains that count in every strip.
    """
    return ((R - r) // r + 1) ** k


def subset_pack(points, min_dist) -> int:
    """Largest subset with pairwise l1 distance >= min_dist, by plain search."""
    pts = list(points)
    for size in range(len(pts), 0, -1):
        for combo in itertools.combinations(pts, size):
            if all(l1(a, b) >= min_dist
                   for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


def l1(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def max_grid_packing(points) -> int:
    """Largest set of lattice points with no two at l1 distance 1.

    The conflict graph is bipartite by coordinate parity, so the answer is
    the number of points minus a maximum matching (Kuhn's augmenting paths).
    """
    pts = list(points)
    index = {p: i for i, p in enumerate(pts)}
    even = [p for p in pts if sum(p) % 2 == 0]
    match_of = {}

    def neighbours(p):
        for axis in range(len(p)):
            for step in (-1, 1):
                q = list(p)
                q[axis] += step
                q = tuple(q)
                if q in index:
                    yield q

    def augment(p, seen):
        for q in neighbours(p):
            if q in seen:
                continue
            seen.add(q)
            if q not in match_of or augment(match_of[q], seen):
                match_of[q] = p
                return True
        return False

    matching = sum(1 for p in even if augment(p, set()))
    return len(pts) - matching


# -- distances and the four-point constant ---------------------------------------


def integer_weights(edges):
    """(scale, [(u, v, int weight)]) with every weight times one common scale."""
    scale = 1
    for _u, _v, w in edges:
        scale = math.lcm(scale, Fraction(w).denominator)
    return scale, [(u, v, int(Fraction(w) * scale)) for u, v, w in edges]


def all_pairs(n, int_edges) -> np.ndarray:
    """All-pairs shortest path lengths by one Dijkstra per source."""
    adj = [[] for _ in range(n)]
    for u, v, w in int_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        dist = [None] * n
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is not None:
                continue
            dist[u] = d
            for v, w in adj[u]:
                if dist[v] is None:
                    heapq.heappush(heap, (d + w, v))
        if any(d is None for d in dist):
            raise ValueError("graph is disconnected")
        out[s] = dist
    return out


def four_point_twice(dist: np.ndarray) -> int:
    """2 delta = max over quadruples of (largest - middle pair sum)."""
    n = dist.shape[0]
    best = 0
    pairs_k, pairs_l = np.triu_indices(n, k=1)
    for j in range(1, n - 2):
        keep = pairs_k > j
        k, l = pairs_k[keep], pairs_l[keep]
        s1 = dist[:j, j, None] + dist[k, l][None, :]
        s2 = dist[:j][:, k] + dist[j, l][None, :]
        s3 = dist[:j][:, l] + dist[j, k][None, :]
        ordered = np.sort(np.stack([s1, s2, s3]), axis=0)
        best = max(best, int((ordered[2] - ordered[1]).max()))
    return best


def four_point_value(d, a, b, c, e) -> int:
    """Largest minus middle pair sum (2 delta) of one quadruple, from a
    distance lookup."""
    sums = sorted((d(a, b) + d(c, e), d(a, c) + d(b, e), d(a, e) + d(b, c)))
    return sums[2] - sums[1]


def free_distance(x, y) -> int:
    """Word distance of two reduced words of a free group (a tree metric)."""
    common = 0
    for a, b in zip(x, y):
        if a != b:
            break
        common += 1
    return len(x) + len(y) - 2 * common
