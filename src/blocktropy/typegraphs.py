"""Method-of-types machinery on de Bruijn multigraphs.

A k-block count table with total n is a balanced integer circulation on the
de Bruijn graph whose vertices are (k-1)-words and whose arcs are k-words
(arc w goes from prefix(w) to suffix(w)).  Balance (in-degree = out-degree
at every vertex) is exactly stationarity of the normalized table, and a
*connected* balanced table is the cyclic type of an actual sample, realized
by reading an Eulerian circuit.

This module provides: exhaustive type enumeration (small n), exact type
class sizes in closed form by the BEST theorem (van Aardenne-Ehrenfest and
de Bruijn, 1951) with Tutte's matrix-tree theorem, the factorial / entropy
sandwich bounds, deterministic Eulerian realization, rounding of an
arbitrary stationary law to a nearby realizable type, and the decomposition
of a stationary law into a convex combination of simple-cycle measures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .blocks import (
    BlockDistribution,
    _block_vector,
    _distinct_rows,
    _marginals,
    _require_int,
    block_counts,
    empirical_block_measure,
)
from .entropy import conditional_block_entropy

__all__ = [
    "CountTable",
    "CycleMeasure",
    "TypeSizeBounds",
    "components",
    "cycle_decompose",
    "enumerate_strings_chunk",
    "enumerate_types",
    "realize_sample",
    "round_to_type",
    "type_class_size",
    "type_count_bound",
]

#: Chunk budget (total matrix cells) for exhaustive string enumeration.
_CHUNK_CELLS = 1 << 22
#: The smaller chunk budget of the type census, which keeps only distinct
#: rows: its result does not depend on the chunking, and its transient
#: memory stays under 1 MiB.
_CENSUS_CHUNK_CELLS = 1 << 13


@dataclass(frozen=True)
class CountTable:
    """Integer k-block counts with total mass ``n``, balanced at every vertex.

    ``counts[c]`` is the number of occurrences of the k-word with code ``c``.
    Balance means: for every (k-1)-word u, the counts of words starting with
    u equal the counts of words ending with u.  Cyclic empirical counts of
    any sample satisfy this exactly, and conversely every *connected*
    balanced table is realizable (see :func:`realize_sample`).  The alphabet
    size must be an integer >= 2, k an integer >= 1 and n an integer;
    construction keeps a read-only copy of the counts.
    """

    alphabet_size: int
    k: int
    n: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        c = _block_vector(self.alphabet_size, self.k, self.counts, "counts", np.int64)
        _require_int("total n", self.n, 0)
        if np.any(c < 0):
            raise ValueError("negative count")
        if int(c.sum()) != self.n:
            raise ValueError(f"counts sum to {int(c.sum())}, expected n={self.n}")
        out_deg, in_deg = _marginals(c, self.alphabet_size, self.k)
        if not np.array_equal(out_deg, in_deg):
            raise ValueError("count table is not balanced (not a cyclic type)")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def vertex_count(self) -> int:
        return self.alphabet_size ** (self.k - 1)

    def out_degrees(self) -> np.ndarray:
        """Total count of words starting at each (k-1)-word vertex."""
        return _marginals(self.counts, self.alphabet_size, self.k)[0]

    def to_distribution(self) -> BlockDistribution:
        return BlockDistribution(self.alphabet_size, self.k, self.counts / self.n)


def components(table: CountTable) -> list[list[int]]:
    """Weakly-connected components of the support multigraph.

    Only vertices with nonzero degree are considered.  Components are
    returned as sorted vertex lists, ordered by their smallest vertex.
    For balanced tables weak and strong connectivity coincide, so each
    component is the set reached from its smallest vertex.
    """
    A, k, counts = table.alphabet_size, table.k, table.counts.tolist()
    comps: list[list[int]] = []
    seen: set[int] = set()
    for start in np.flatnonzero(table.out_degrees()).tolist():
        if start not in seen:
            comp = sorted(_support_bfs(counts, start, A, k))
            seen.update(comp)
            comps.append(comp)
    return comps


def _eulerian_circuit_arcs(table: CountTable, start: int) -> list[int]:
    """Arc codes of an Eulerian circuit through ``start``'s component.

    Deterministic: at every vertex the smallest available appended symbol is
    taken first; arcs are recorded on retreat (classic stack form of
    Hierholzer's method) and reversed.
    """
    A, V = table.alphabet_size, table.vertex_count
    rem = table.counts.reshape(V, A).copy()
    ptr = np.zeros(V, dtype=np.int64)
    stack: list[tuple[int, int]] = [(start, -1)]
    out: list[int] = []
    while stack:
        u, arrived_by = stack[-1]
        b = int(ptr[u])
        while b < A and rem[u, b] == 0:
            b += 1
        ptr[u] = b
        if b == A:
            stack.pop()
            if arrived_by >= 0:
                out.append(arrived_by)
        else:
            rem[u, b] -= 1
            arc = u * A + b
            stack.append((arc % V, arc))
    out.reverse()
    return out


def realize_sample(table: CountTable) -> np.ndarray:
    """A sample whose cyclic k-block counts reproduce ``table``.

    For a connected table the round trip is exact.  A table with m > 1
    components yields the concatenation of per-component Eulerian samples
    (components in ascending order of their smallest vertex), whose type
    differs from table/n by at most k*A**(k-1)/n in total variation — the
    junctions corrupt at most (k-1) cyclic windows each.
    """
    if table.n == 0:
        raise ValueError("cannot realize an empty count table")
    A = table.alphabet_size
    symbols: list[int] = []
    for comp in components(table):
        for arc in _eulerian_circuit_arcs(table, comp[0]):
            symbols.append(arc % A)
    return np.asarray(symbols, dtype=np.int64)


def enumerate_strings_chunk(lo: int, hi: int, n: int, alphabet_size: int) -> np.ndarray:
    """Digit matrix (hi-lo, n) of the strings with codes lo..hi-1."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((idx.size, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % alphabet_size
        idx //= alphabet_size
    return out


def _chunked_count_matrices(
    n: int, k: int, alphabet_size: int, cells: int = _CHUNK_CELLS
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (strings, cyclic k-block counts) for all A**n strings, in
    chunks of about ``cells`` matrix cells."""
    total = alphabet_size**n
    rows = max(1, cells // max(alphabet_size**k, n))
    for lo in range(0, total, rows):
        x = enumerate_strings_chunk(lo, min(lo + rows, total), n, alphabet_size)
        yield x, block_counts(x, k, alphabet_size)


def _too_many_strings(alphabet_size: int, n: int, cap: int) -> bool:
    """True when A**n exceeds ``cap``.  The exponent is compared first, so
    a large n is refused without building A**n (A >= 2)."""
    return n > math.log2(cap) or alphabet_size**n > cap


def enumerate_types(n: int, k: int, alphabet_size: int) -> list[BlockDistribution]:
    """All distinct cyclic k-block types of strings of length n.

    Exhausts the A**n strings (guarded), so only viable at desk scale; the
    count is at most (n+1)**(A**k).  Each chunk of strings is cut to its
    distinct count rows, which are merged every 64 chunks.  Types are
    returned in lexicographic order of their count vectors.
    """
    _require_int("alphabet size", alphabet_size, 2)
    _require_int("block length k", k, 1)
    _require_int("n", n, k)
    if _too_many_strings(alphabet_size, n, 1 << 24):
        raise ValueError("type enumeration limited to A**n <= 2**24 strings")
    types, fresh = np.empty((0, alphabet_size**k), dtype=np.int64), []
    for _, m in _chunked_count_matrices(n, k, alphabet_size, _CENSUS_CHUNK_CELLS):
        fresh.append(_distinct_rows(m)[0])
        if len(fresh) == 64:
            types, fresh = _distinct_rows(np.vstack([types, *fresh]))[0], []
    types = _distinct_rows(np.vstack([types, *fresh]))[0]
    return [BlockDistribution(alphabet_size, k, row / n) for row in types]


def type_count_bound(n: int, k: int, alphabet_size: int) -> float:
    """Polynomial bound (n+1)**(A**k) on the number of k-block types.

    Computed in log space; returns inf when the value exceeds float range.
    Raises ValueError unless n >= 0, k >= 1 and A >= 2 are integers.
    """
    _require_int("n", n, 0)
    _require_int("block length k", k, 1)
    _require_int("alphabet size", alphabet_size, 2)
    log_bound = alphabet_size**k * math.log(n + 1)
    return math.exp(log_bound) if log_bound < 709 else math.inf


@dataclass(frozen=True)
class TypeSizeBounds:
    """Sandwich bounds on the number of strings in a type class.

    ``euler_*`` are the factorial-ratio bounds from counting Eulerian
    circuits; ``entropy_*`` are the cruder exponential bounds
    (en)**(-2 A**k) * e**(n h_k)  <=  size  <=  n * e**(n h_k),
    the latter valid for n >= 2 (for n < 2 they are reported as (0, inf)).
    A bound past float range saturates, so both stay true bounds: an upper
    bound at ``math.inf`` and a lower bound at ``sys.float_info.max``.
    """

    euler_lower: float
    euler_upper: float
    entropy_lower: float
    entropy_upper: float


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss's fraction-free
    elimination (every division is exact, so all entries stay integers).

    ``matrix`` is overwritten.  The determinant of the empty matrix is 1.
    """
    size, sign, previous = len(matrix), 1, 1
    for i in range(size):
        pivot = next((r for r in range(i, size) if matrix[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            matrix[i], matrix[pivot] = matrix[pivot], matrix[i]
            sign = -sign
        top = matrix[i]
        for row in matrix[i + 1 :]:
            for c in range(i + 1, size):
                row[c] = (row[c] * top[i] - row[i] * top[c]) // previous
        previous = top[i]
    return sign * previous


def _spanning_arborescences(table: CountTable) -> int:
    """t(G): the spanning arborescences of the table's support multigraph
    into its smallest support vertex.

    Tutte's matrix-tree theorem: t(G) is the determinant of the Laplacian
    (out-degree minus adjacency, non-loop arcs weighted by their counts,
    over the support vertices) with that vertex's row and column removed.
    It is 0 exactly when the support is disconnected.
    """
    A, V = table.alphabet_size, table.vertex_count
    support = np.flatnonzero(table.out_degrees()).tolist()
    index = {u: i for i, u in enumerate(support)}
    laplacian = [[0] * len(support) for _ in support]
    for w in np.flatnonzero(table.counts).tolist():
        tail, head = index[w // A], index[w % V]
        if tail != head:
            count = int(table.counts[w])
            laplacian[tail][tail] += count
            laplacian[tail][head] -= count
    return _bareiss_determinant([row[1:] for row in laplacian[1:]])


def _saturate(bound, limit: float) -> float:
    """``bound()`` as a float, or ``limit`` when it overflows float range."""
    try:
        return float(bound())
    except OverflowError:
        return limit


def type_class_size(table: CountTable, mode: str = "exact"):
    """Number of strings whose cyclic type is ``table`` (exact or bounded).

    Exact mode counts, with no string enumerated, by the BEST theorem (van
    Aardenne-Ehrenfest and de Bruijn, 1951): with R_u the outgoing count of
    vertex u and N_w the count of word w,

        |T| = n * t(G) * prod (R_u - 1)! / prod N_w!,

    where t(G), the number of spanning arborescences into one support
    vertex, is an exact integer determinant of a Laplacian minor (Tutte's
    matrix-tree theorem).  A disconnected table has t(G) = 0 and no string;
    for k = 1 there is one vertex, t(G) = 1, and |T| is the multinomial
    n! / prod N_w!.  Bounds mode evaluates, per vertex u with R_u > 0,

        prod (R_u - 1)! / prod N_w!   and   n * prod R_u! / prod N_w!

    (exact rational arithmetic), plus the entropy-form pair; the exact size
    of a connected table lies inside both intervals.
    """
    if mode not in ("exact", "bounds"):
        raise ValueError(f"mode must be 'exact' or 'bounds', got {mode!r}")
    if table.n == 0:
        raise ValueError("cannot size an empty count table")
    n = table.n
    denom = math.prod(math.factorial(int(c)) for c in table.counts if c > 0)
    degrees = [int(r) for r in table.out_degrees() if r > 0]
    circuits = math.prod(math.factorial(r - 1) for r in degrees)
    if mode == "exact":
        return n * _spanning_arborescences(table) * circuits // denom

    lower = Fraction(circuits, denom)
    upper = Fraction(n * math.prod(math.factorial(r) for r in degrees), denom)
    h = conditional_block_entropy(table.to_distribution())
    n_words = table.alphabet_size**table.k
    if n >= 2:
        ent_lo = _saturate(
            lambda: math.exp(n * h - 2 * n_words * math.log(math.e * n)),
            sys.float_info.max,
        )
        # The factor n (not n-1) is forced by zero-entropy aperiodic
        # necklaces, whose class is all n rotations; it also follows from
        # the factorial upper bound since prod R_u!/prod N_w! <= e^{n h}.
        ent_hi = _saturate(lambda: n * math.exp(n * h), math.inf)
    else:
        ent_lo, ent_hi = 0.0, math.inf
    return TypeSizeBounds(
        _saturate(lambda: lower, sys.float_info.max),
        _saturate(lambda: upper, math.inf),
        ent_lo,
        ent_hi,
    )


# ---------------------------------------------------------------------------
# Rounding a stationary law to a realizable type
# ---------------------------------------------------------------------------


def _find_fractional_cycle(
    frac: np.ndarray, alphabet_size: int, k: int
) -> list[tuple[int, int]]:
    """An undirected cycle among the arcs flagged in ``frac``, as (arc, direction).

    Direction +1 means the arc is traversed from its tail to its head.
    Incidence is read off the codes, with no adjacency built: arc w runs
    from w // A to w % V, so vertex u's out-arcs are u*A .. u*A+A-1 and its
    in-arcs are u, u+V, u+2V, ...  A fractional self-loop, lowest code
    first, is a cycle of length one.  Otherwise the walk starts at the
    smallest endpoint of a fractional arc and at each vertex leaves by the
    smallest fractional code among its out-arcs (direction +1) and in-arcs
    (direction -1), other than the arc it arrived by, until it first
    returns to a vertex it has visited.  The caller has rounded every arc
    alone at an endpoint, so the walk always has a way out.
    """
    A, V = alphabet_size, alphabet_size ** (k - 1)
    arcs = np.flatnonzero(frac)
    tails, heads = arcs // A, arcs % V
    loops = arcs[tails == heads]
    if loops.size:
        return [(int(loops[0]), +1)]
    is_frac = frac.tolist()
    at = int(min(tails.min(), heads.min()))
    stops: list[int] = []  # path[i] leaves stops[i]
    path: list[tuple[int, int]] = []  # (arc, direction)
    arc = -1  # the arc the walk arrived by
    while at not in stops:
        stops.append(at)
        incident = sorted((*range(at * A, at * A + A), *range(at, A * V, V)))
        arc = next(w for w in incident if is_frac[w] and w != arc)
        d = +1 if arc // A == at else -1
        path.append((arc, d))
        at = arc % V if d > 0 else arc // A
    return path[stops.index(at) :]


def _support_bfs(
    z: list[float], source: int, alphabet_size: int, k: int, target: Optional[int] = None
) -> dict[int, tuple[int, int]]:
    """Breadth-first search from ``source`` over the support arcs of ``z``.

    ``z`` lists the arc weights (a list: indexing one is much faster than
    indexing an array); support arcs are those above 1e-13, and at every
    vertex the smallest appended symbol is tried first.  Returns, for each
    vertex reached, the (vertex, arc) that first reached it.  An arc back
    into ``source`` is recorded but ``source`` is not searched again; the
    search stops as soon as ``target`` is reached.
    """
    A, V = alphabet_size, alphabet_size ** (k - 1)
    parent: dict[int, tuple[int, int]] = {}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for arc in range(u * A, u * A + A):
                v = arc % V
                if z[arc] <= 1e-13 or v in parent:
                    continue
                parent[v] = (u, arc)
                if v == target:
                    return parent
                if v != source:
                    nxt.append(v)
        frontier = nxt
    return parent


def _shortest_path_arcs(
    z: list[float], source: int, target: int, alphabet_size: int, k: int
) -> list[int]:
    """Arc codes of a shortest directed support path source -> target.

    When source == target the path is a shortest cycle through source.
    """
    parent = _support_bfs(z, source, alphabet_size, k, target)
    if target not in parent:
        raise ValueError("support is not strongly connected along the needed path")
    path = []
    at = target
    while True:
        at, arc = parent[at]
        path.append(arc)
        if at == source:
            path.reverse()
            return path


def _shortest_support_cycle(
    z: np.ndarray, alphabet_size: int, k: int
) -> list[int]:
    """Arc codes of a shortest directed cycle in the support of ``z``.

    The first shortest of the cycles through each support vertex, smallest
    vertex first, keeps the choice deterministic; a support self-loop is
    the cycle of length one through its vertex.
    """
    weights = z.tolist()
    tails = sorted({w // alphabet_size for w in np.flatnonzero(z > 0).tolist()})
    return min(
        (_shortest_path_arcs(weights, u, u, alphabet_size, k) for u in tails), key=len
    )


def round_to_type(nu: BlockDistribution, n: int) -> BlockDistribution:
    """Nearest-in-spirit realizable type with denominator n.

    Stage 1 rounds the real circulation n*nu to integers by pushing mass
    around cycles of fractional arcs, never letting an arc cross an integer,
    so every count lands on floor or ceil of its target (balance is
    preserved by construction; push directions steer the total toward n).
    Each round snaps near-integers, then rounds every non-loop fractional
    arc that is the only one at one of its endpoints (balance there forces
    it to an integer) if there are any, and otherwise pushes around the
    cycle that :func:`_find_fractional_cycle` walks, by the largest step
    that keeps every arc of it between its floor and ceil.  Every round
    makes at least one more arc integral.  Stage 2 repairs any leftover
    total-mass mismatch (surplus units come off along shortest support
    cycles, then missing units go on the all-zeros self-loop).  Stage 3
    restores realizability for disconnected supports by round-tripping
    through an Eulerian concatenation.

    The result is realizable and within (k+2)*A**k/n of ``nu`` in total
    variation.
    """
    if not nu.stationary:
        raise ValueError("round_to_type requires a stationary distribution")
    if n < nu.k:
        raise ValueError("need n >= k to realize a k-block type")
    A, k = nu.alphabet_size, nu.k
    target = nu.weights * n

    if k == 1:
        # single vertex: balance is vacuous, use largest-remainder rounding
        z = np.floor(target).astype(np.int64)
        rema = target - z
        short = n - int(z.sum())
        for w in np.argsort(-rema)[:short]:
            z[w] += 1
    else:
        z = target.copy()
        V = A ** (k - 1)
        arcs = np.arange(z.size)
        tail, head = arcs // A, arcs % V
        loop = tail == head
        snap_tol = 1e-9 * max(1.0, float(n))
        for _ in range(z.size + 1):
            nearest = np.round(z)
            near = np.abs(z - nearest) <= snap_tol
            z[near] = nearest[near]
            frac = np.abs(z - np.round(z)) > snap_tol
            # a non-loop fractional arc alone at an endpoint is forced to an
            # integer by balance there; round it rather than walk onto it
            free = frac & ~loop
            slots = np.bincount(np.concatenate((tail[free], head[free])), minlength=V)
            lone = free & ((slots[tail] == 1) | (slots[head] == 1))
            if lone.any():
                z[lone] = np.round(z[lone])
                continue
            if not frac.any():
                break
            cycle = _find_fractional_cycle(frac, A, k)
            mass_coeff = sum(d for _, d in cycle)
            sign = 1.0 if mass_coeff * (n - z.sum()) >= 0 else -1.0
            step = min(
                (math.ceil(z[w]) - z[w]) if sign * d > 0 else (z[w] - math.floor(z[w]))
                for w, d in cycle
            )
            for w, d in cycle:
                z[w] += sign * d * step
        z = np.round(z).astype(np.int64)

        # total-mass repair (stage 1 can only land within a few units of n):
        # surplus comes off along support cycles, and the shortfall, from
        # the start or from the last removal, goes on the all-zeros self-loop
        while z.sum() > n:
            z[_shortest_support_cycle(z, A, k)] -= 1
        z[0] += n - int(z.sum())

    table = CountTable(A, k, n, z)
    if len(components(table)) > 1:
        return empirical_block_measure(realize_sample(table), k, A)
    return table.to_distribution()


# ---------------------------------------------------------------------------
# Convex decomposition into simple-cycle measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleMeasure:
    """Uniform measure on the arcs of one vertex-simple directed cycle.

    Each of the ell arcs carries weight 1/ell; since every vertex on the
    cycle has a unique successor, all conditionals are 0 or 1 and the
    conditional block entropy vanishes identically.
    """

    alphabet_size: int
    k: int
    arcs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.arcs:
            raise ValueError("empty cycle")
        A, V = self.alphabet_size, self.alphabet_size ** (self.k - 1)
        sources = [w // A for w in self.arcs]
        if len(set(sources)) != len(sources):
            raise ValueError("cycle revisits a vertex")
        for w, w_next in zip(self.arcs, self.arcs[1:] + self.arcs[:1]):
            if w % V != w_next // A:
                raise ValueError("arcs do not chain into a closed cycle")

    @property
    def distribution(self) -> BlockDistribution:
        w = np.zeros(self.alphabet_size**self.k)
        w[list(self.arcs)] = 1.0 / len(self.arcs)
        return BlockDistribution(self.alphabet_size, self.k, w)


def cycle_decompose(nu: BlockDistribution) -> list[tuple[float, CycleMeasure]]:
    """Write a stationary law as a convex combination of cycle measures.

    Repeatedly takes a smallest-weight arc of the support (arcs above
    1e-13), closes it into a vertex-simple cycle through the support
    (breadth-first, smallest symbols first), and subtracts that smallest
    weight from the whole cycle.  An arc that no support path closes is
    dropped into the residual instead: it enters a vertex set that only
    sub-threshold arcs leave, so by balance it carries at most A**k * 1e-13
    plus the input's stationarity defect summed over that set.  Each round
    zeroes at least one support arc, so there are at most A**k rounds, and
    they stop once the residual mass is at most 1e-11 or no support arc is
    left.  The recombination error (L1) is that residual plus the dropped
    weights.
    """
    if not nu.stationary:
        raise ValueError("cycle decomposition requires a stationary distribution")
    A, k = nu.alphabet_size, nu.k
    V = A ** (k - 1)
    w = nu.weights.copy()
    parts: list[tuple[float, CycleMeasure]] = []
    while float(w.sum()) > 1e-11 and np.any(w > 1e-13):
        a = int(np.argmin(np.where(w > 1e-13, w, np.inf)))
        m = float(w[a])
        head, tail = a % V, a // A
        w[a] = 0.0
        try:
            path = [] if head == tail else _shortest_path_arcs(w.tolist(), head, tail, A, k)
        except ValueError:
            continue  # no support path closes a: its weight stays in the residual
        # every path arc weighs at least m, so no weight goes negative
        w[path] -= m
        cycle = [a] + path
        parts.append((m * len(cycle), CycleMeasure(A, k, tuple(cycle))))
    return parts
