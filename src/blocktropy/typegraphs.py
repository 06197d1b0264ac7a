"""Method-of-types machinery on de Bruijn multigraphs.

A k-block count table with total n is a balanced integer circulation on the
de Bruijn graph whose vertices are (k-1)-words and whose arcs are k-words
(arc w goes from prefix(w) to suffix(w)).  Balance (in-degree = out-degree
at every vertex) is exactly stationarity of the normalized table, and a
*connected* balanced table is the cyclic type of an actual sample, realized
by reading an Eulerian circuit (Hierholzer, 1873).

This module provides: exhaustive type enumeration (small n), exact type
class sizes in closed form by the BEST theorem (van Aardenne-Ehrenfest and
de Bruijn, 1951) with Tutte's matrix-tree theorem, the factorial / entropy
sandwich bounds, deterministic Eulerian realization (one sweep that reads
every component of a table in turn), rounding of an arbitrary stationary
law to the type of the sample its rounded table realizes, and the
decomposition of a stationary law into a convex combination of
simple-cycle measures.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator

import numpy as np

from .blocks import (
    BlockDistribution,
    _block_laws,
    _block_vector,
    _distinct_rows,
    _is_int,
    _marginals,
    _require_int,
    _too_many_strings,
    block_counts,
    empirical_block_measure,
)
from .entropy import _law_functionals

__all__ = [
    "CountTable",
    "CycleMeasure",
    "TypeSizeBounds",
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


def realize_sample(table: CountTable) -> np.ndarray:
    """A sample whose cyclic k-block counts reproduce ``table``.

    One Hierholzer sweep (Hierholzer, 1873) reads the table: the vertices
    are scanned in ascending order, and each one that still has arcs left
    starts an Eulerian circuit of its component.  Balance makes that
    circuit use up every arc of the component, so each component is read
    once, from its smallest vertex, and the circuits are concatenated in
    that order.  A circuit takes the smallest available appended symbol
    first at every vertex, records arcs on retreat (the stack form of the
    method) and is reversed.  For a connected table the round trip is
    exact.  A table with m > 1 components yields a sample whose type
    differs from table/n by at most k*A**(k-1)/n in total variation: the
    junctions corrupt at most (k-1) cyclic windows each.
    """
    if table.n == 0:
        raise ValueError("cannot realize an empty count table")
    A, V = table.alphabet_size, table.vertex_count
    rem = table.counts.tolist()
    nxt = list(range(0, A * V, A))  # the next arc to try at each vertex
    symbols: list[int] = []
    for start in range(V):
        stack = [(start, -1)]  # (vertex, symbol it was reached by)
        circuit: list[int] = []
        while stack:
            u, symbol = stack[-1]
            arc, end = nxt[u], u * A + A
            while arc < end and rem[arc] == 0:
                arc += 1
            nxt[u] = arc
            if arc == end:
                stack.pop()
                if symbol >= 0:
                    circuit.append(symbol)
            else:
                rem[arc] -= 1
                stack.append((arc % V, arc % A))
        symbols += reversed(circuit)
    return np.asarray(symbols, dtype=np.int64)


def enumerate_strings_chunk(lo: int, hi: int, n: int, alphabet_size: int) -> np.ndarray:
    """Digit matrix (hi-lo, n) of the strings with codes lo..hi-1.

    Raises ValueError unless A >= 2, n >= 1, lo and hi are integers and
    0 <= lo <= hi <= A**n (tested without building A**n for a huge n).
    """
    _require_int("alphabet size", alphabet_size, 2)
    _require_int("string length n", n, 1)
    _require_int("lo", lo, 0)
    _require_int("hi", hi, lo)
    # in Python ints, since a numpy A**n would wrap around
    if hi > 1 and not _too_many_strings(int(alphabet_size), int(n), int(hi) - 1):
        raise ValueError(f"hi must be at most A**n = {alphabet_size}**{n}, got {hi}")
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


def enumerate_types(n: int, k: int, alphabet_size: int) -> list[BlockDistribution]:
    """All distinct cyclic k-block types of strings of length n.

    Exhausts the A**n strings (guarded), so only viable at desk scale; the
    count is at most (n+1)**(A**k).  Each chunk of strings is cut to its
    distinct count rows, which are merged every 64 chunks.  Types are
    returned in lexicographic order of their count vectors, their laws
    checked together in one pass over the rows of types / n.
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
    return _block_laws(alphabet_size, k, types / n)


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
    A, k = table.alphabet_size, table.k
    h = float(_law_functionals(table.counts[None] / n, A, k)[1][0])  # h_k of counts / n
    if n >= 2:
        ent_lo = _saturate(
            lambda: math.exp(n * h - 2 * A**k * math.log(math.e * n)),
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


def _support_out_arcs(z: list, alphabet_size: int) -> list[list[int]]:
    """Each vertex's support out-arcs (weight above 1e-13) in code order,
    read off ``z``, a list of arc weights (or integer counts)."""
    A = alphabet_size
    return [
        [arc for arc in range(u * A, u * A + A) if z[arc] > 1e-13]
        for u in range(len(z) // A)
    ]


def _support_parents(
    out: list[list[int]], source: int, target: int = -1
) -> dict[int, tuple[int, int]]:
    """A breadth-first search from ``source`` over the support arcs listed
    in ``out`` (each vertex's support out-arcs in code order, as
    :func:`_support_out_arcs` builds them): for each vertex reached, the
    (vertex, arc) that first reached it.

    The smallest appended symbol is tried first at every vertex.  An arc
    back into ``source`` is recorded but ``source`` is not searched again.
    The search stops as soon as ``target`` is reached, and otherwise covers
    every vertex reachable from ``source``.  It reads only the arc lists of
    the vertices it searches, so it costs O(A) per vertex searched, and no
    weight is tested against the support threshold: callers that change
    weights keep the lists up to date instead.
    """
    V = len(out)
    parent: dict[int, tuple[int, int]] = {}
    frontier = [source]
    while frontier and target not in parent:
        nxt = []
        for u in frontier:
            for arc in out[u]:
                v = arc % V
                if v not in parent:
                    parent[v] = (u, arc)
                    if v != source:
                        nxt.append(v)
            if target in parent:
                break
        frontier = nxt
    return parent


def _shortest_path_arcs(out: list[list[int]], source: int, target: int) -> list[int]:
    """Arc codes of a shortest directed support path source -> target,
    read off :func:`_support_parents`; when source == target the path is
    a shortest cycle through source.
    """
    parent = _support_parents(out, source, target)
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


def _shortest_support_cycle(z: np.ndarray, alphabet_size: int) -> list[int]:
    """Arc codes of a shortest directed cycle in the support of ``z``.

    The first shortest of the cycles through each support vertex, smallest
    vertex first, keeps the choice deterministic; a support self-loop is
    the cycle of length one through its vertex.
    """
    out = _support_out_arcs(z.tolist(), alphabet_size)
    return min(
        (_shortest_path_arcs(out, u, u) for u, arcs in enumerate(out) if arcs), key=len
    )


def _round_circulation(
    target: np.ndarray, n: int, alphabet_size: int, k: int
) -> np.ndarray:
    """Stage 1 of :func:`round_to_type` (k >= 2): the integer table that
    the real circulation ``target`` = n*nu rounds to, as int64 counts.

    Each round snaps near-integers, then rounds every non-loop fractional
    arc that is the only one at one of its endpoints (balance there forces
    it to an integer) if there are any, and otherwise pushes around one
    cycle of fractional arcs, by the largest step that keeps every arc of
    it between its floor and ceil; the push direction steers the total
    toward n.  The cycle is the lowest fractional self-loop, or else the
    walk from the smallest endpoint of a fractional arc that leaves each
    vertex by its smallest fractional code (out-arcs u*A .. u*A+A-1 run
    forward, in-arcs u, u+V, ... backward) other than the arc it arrived
    by, cut where it first returns to a vertex it has visited.  Every
    round makes at least one more arc integral, and an integral arc never
    moves again.

    So the state is kept across rounds and updated only at the arcs a
    round wrote: per arc, its value (the float array, whose pairwise sum
    picks the push direction, and a list for single reads) and whether it
    is fractional; per vertex, its free (non-loop fractional) arcs in code
    order.  Only the arcs written last round are snapped, lone arcs are the
    free arcs of the vertices that have one, a walk step reads the first
    two free arcs of its vertex, and the walk starts at a lowest-vertex
    pointer, which only moves up since the free arcs only dwindle.  A push
    costs O(A) steps per arc it walks or writes and one array sum, not
    O(A**k) steps.
    """
    A, V = alphabet_size, alphabet_size ** (k - 1)
    z = target.copy()
    snap_tol = 1e-9 * max(1.0, float(n))
    nearest = np.round(z)
    near = np.abs(z - nearest) <= snap_tol
    z[near] = nearest[near]
    is_frac, values = (~near).tolist(), z.tolist()
    left = is_frac.count(True)
    arcs = np.arange(z.size)
    loops = np.flatnonzero(arcs // A == arcs % V).tolist()
    # each vertex's free (non-loop fractional) arcs, out and in, in code order
    incident = np.sort(np.hstack((arcs.reshape(V, A), arcs.reshape(A, V).T)), axis=1)
    free = ~near[incident] & (incident // A != incident % V)
    ends = np.cumsum(np.count_nonzero(free, axis=1)).tolist()
    flat = incident[free].tolist()
    free_at = [flat[a:b] for a, b in zip([0, *ends], ends)]
    lone_at = {u for u, arcs_u in enumerate(free_at) if len(arcs_u) == 1}
    low, changed = 0, []
    for _ in range(z.size + 1):
        for w in changed:  # an arc no round wrote cannot have come near an integer
            r = round(values[w])
            if abs(values[w] - r) <= snap_tol:
                values[w] = z[w] = float(r)
                is_frac[w] = False
                left -= 1
                if w // A != w % V:
                    for u in (w // A, w % V):
                        free_at[u].remove(w)
                        if len(free_at[u]) == 1:
                            lone_at.add(u)
                        else:
                            lone_at.discard(u)
        if lone_at:
            changed = {free_at[u][0] for u in lone_at}
            for w in changed:
                values[w] = z[w] = float(round(values[w]))
            continue
        if not left:
            break
        cycle = [(w, 1) for w in loops if is_frac[w]][:1]
        if not cycle:
            # no lone arc is left, so a vertex the walk reaches has another way out
            while not free_at[low]:
                low += 1
            # path[i] leaves the vertex with stops[vertex] == i
            at, arc, stops, path = low, -1, {}, []
            while at not in stops:
                stops[at] = len(path)
                out = free_at[at]
                arc = out[0] if out[0] != arc else out[1]
                d = 1 if arc // A == at else -1
                path.append((arc, d))
                at = arc % V if d > 0 else arc // A
            cycle = path[stops[at] :]
        mass_coeff = sum(d for _, d in cycle)
        sign = 1.0 if mass_coeff * (n - z.sum()) >= 0 else -1.0
        step = min(
            (math.ceil(values[w]) - values[w])
            if sign * d > 0
            else (values[w] - math.floor(values[w]))
            for w, d in cycle
        )
        for w, d in cycle:
            values[w] = z[w] = values[w] + sign * d * step
        changed = [w for w, _ in cycle]
    return np.round(z).astype(np.int64)


def round_to_type(nu: BlockDistribution, n: int) -> BlockDistribution:
    """Nearest-in-spirit realizable type with denominator n.

    Stage 1 (:func:`_round_circulation`) rounds the real circulation n*nu
    to integers by pushing mass around cycles of fractional arcs, never
    letting an arc cross an integer, so every count lands on floor or ceil
    of its target (balance is preserved by construction; push directions
    steer the total toward n).  Every round makes at least one more arc
    integral.  The stage keeps its state from round to round (each arc's
    value and whether it is fractional, each vertex's free arcs in code
    order, a lowest-vertex pointer) and updates it only at the arcs a round
    wrote, so a push costs O(A) steps per arc it walks or writes, not
    O(A**k).  Stage 2 repairs any leftover total-mass mismatch (surplus
    units come off along shortest support cycles, then missing units go on
    the all-zeros self-loop).  In stage 3 a rounded table whose support is
    connected is returned as it is (it is the type of the sample it
    realizes); a disconnected one gives the cyclic type of the sample
    :func:`realize_sample` reads off it, a nearby realizable type.  Only
    that last case costs O(n).

    The result is realizable and within (k+2)*A**k/n of ``nu`` in total
    variation.  Raises ValueError unless n is an integer with
    k <= n <= 2**53 (beyond 2**53 the float targets n*nu are no longer
    exact integers).
    """
    _require_int("n", n, nu.k)
    if n > 1 << 53:
        raise ValueError(f"n must be at most 2**53, got {n}")
    if not nu.stationary:
        raise ValueError("round_to_type requires a stationary distribution")
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
        z = _round_circulation(target, n, A, k)

        # total-mass repair (stage 1 can only land within a few units of n):
        # surplus comes off along support cycles, and the shortfall, from
        # the start or from the last removal, goes on the all-zeros self-loop
        while z.sum() > n:
            z[_shortest_support_cycle(z, A)] -= 1
        z[0] += n - int(z.sum())

    # a connected table is the type of the sample it realizes
    table = CountTable(A, k, n, z)
    out = _support_out_arcs(z.tolist(), A)
    tails = [u for u, arcs in enumerate(out) if arcs]
    if set(tails) <= _support_parents(out, tails[0]).keys():
        return table.to_distribution()
    return empirical_block_measure(realize_sample(table), k, A)


# ---------------------------------------------------------------------------
# Convex decomposition into simple-cycle measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleMeasure:
    """Uniform measure on the arcs of one vertex-simple directed cycle.

    Each of the ell arcs carries weight 1/ell; since every vertex on the
    cycle has a unique successor, all conditionals are 0 or 1 and the
    conditional block entropy vanishes identically.  The alphabet size must
    be an integer >= 2, k an integer >= 1 and the arcs integers that chain
    into a closed cycle (so each is a k-word code); construction keeps them
    as a tuple of Python ints.  The law is built on the first read of
    :attr:`distribution` and kept.
    """

    alphabet_size: int
    k: int
    arcs: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_int("alphabet size", self.alphabet_size, 2)
        _require_int("block length k", self.k, 1)
        try:
            arcs = tuple(self.arcs)
        except TypeError:
            raise ValueError(f"cycle arcs must be integers, got {self.arcs!r}") from None
        if not all(_is_int(w) for w in arcs):
            raise ValueError(f"cycle arcs must be integers, got {self.arcs!r}")
        arcs = tuple(int(w) for w in arcs)
        if not arcs:
            raise ValueError("empty cycle")
        A, V = self.alphabet_size, self.alphabet_size ** (self.k - 1)
        sources = [w // A for w in arcs]
        if len(set(sources)) != len(sources):
            raise ValueError("cycle revisits a vertex")
        # w_next // A lies in [0, V), so a chaining arc lies in [0, A**k)
        for w, w_next in zip(arcs, arcs[1:] + arcs[:1]):
            if w % V != w_next // A:
                raise ValueError("arcs do not chain into a closed cycle")
        object.__setattr__(self, "arcs", arcs)

    @cached_property
    def distribution(self) -> BlockDistribution:
        w = np.zeros(self.alphabet_size**self.k)
        w[list(self.arcs)] = 1.0 / len(self.arcs)
        return BlockDistribution(self.alphabet_size, self.k, w)


def cycle_decompose(nu: BlockDistribution) -> list[tuple[float, CycleMeasure]]:
    """Write a stationary law as a convex combination of cycle measures.

    Repeatedly takes a smallest-weight arc of the support (arcs above
    1e-13, the lowest code among equal weights), closes it into a
    vertex-simple cycle through the support (breadth-first, smallest
    symbols first), and subtracts that smallest weight from the whole
    cycle.  An arc that no support path closes is dropped into the
    residual instead: it enters a vertex set that only sub-threshold arcs
    leave, so by balance it carries at most A**k * 1e-13 plus the input's
    stationarity defect summed over that set.  Each round zeroes at least
    one support arc, so there are at most A**k rounds, and they stop once
    the residual mass is at most 1e-11 or no support arc is left.  The
    recombination error (L1) is that residual plus the dropped weights.

    The state is kept from round to round and written only at the arcs a
    round changes: the weights as a float array (whose pairwise sum is the
    stop test) and as a list for single reads; a heap of (weight, arc) over
    the support arcs, whose entries for arcs that have changed since are
    skipped when they come up; and each vertex's support out-arcs in code
    order, which the search reads and which drop an arc once it falls to
    1e-13 or below.  So a round costs a few heap steps, O(A) per vertex the
    search reaches and one array sum, with no Python pass over all A**k
    arcs.  The cycle laws are checked together in one pass once the rounds
    are done, and each measure's ``distribution`` is its law from that pass.
    """
    if not nu.stationary:
        raise ValueError("cycle decomposition requires a stationary distribution")
    A, k = nu.alphabet_size, nu.k
    V = A ** (k - 1)
    w = nu.weights.copy()
    values = w.tolist()
    out = _support_out_arcs(values, A)
    heap = [(x, arc) for arc, x in enumerate(values) if x > 1e-13]
    heapq.heapify(heap)
    cycles = []  # (mass, arcs)
    while float(w.sum()) > 1e-11:
        while heap and values[heap[0][1]] != heap[0][0]:
            heapq.heappop(heap)  # the arc has changed since this entry
        if not heap:
            break
        m, a = heapq.heappop(heap)
        head, tail = a % V, a // A
        w[a] = values[a] = 0.0
        out[tail].remove(a)
        try:
            path = [] if head == tail else _shortest_path_arcs(out, head, tail)
        except ValueError:
            continue  # no support path closes a: its weight stays in the residual
        # every path arc weighs at least m, so no weight goes negative
        for arc in path:
            x = w[arc] = values[arc] = values[arc] - m
            if x > 1e-13:
                heapq.heappush(heap, (x, arc))
            else:
                out[arc // A].remove(arc)
        cycle = (a, *path)
        cycles.append((m * len(cycle), cycle))
    laws = np.zeros((len(cycles), A**k))
    for row, (_, cycle) in zip(laws, cycles):
        row[list(cycle)] = 1.0 / len(cycle)
    parts = []
    for (mass, cycle), law in zip(cycles, _block_laws(A, k, laws)):
        # the arcs chain by construction, and the law fills the cached property
        measure = object.__new__(CycleMeasure)
        measure.__dict__.update(alphabet_size=A, k=k, arcs=cycle, distribution=law)
        parts.append((mass, measure))
    return parts
