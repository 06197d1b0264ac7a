"""Method-of-types layer: tables, realization, rounding, cycle decomposition."""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blocktropy as bt
from blocktropy.typegraphs import _bareiss_determinant
from conftest import enumerate_simple_cycles


def _cyclic_counts_purepython(x, k, A):
    """Independent counting oracle: dict-based cyclic window counts."""
    n = len(x)
    counts = [0] * A**k
    for i in range(n):
        code = 0
        for j in range(k):
            code = code * A + int(x[(i + j) % n])
        counts[code] += 1
    return tuple(counts)


def _exact_type_size_oracle(counts, n, k, A):
    """Brute-force string census, independent of the library's counting."""
    target = tuple(int(c) for c in counts)
    hits = 0
    for x in itertools.product(range(A), repeat=n):
        if _cyclic_counts_purepython(x, k, A) == target:
            hits += 1
    return hits


def test_count_table_validation():
    bt.CountTable(2, 2, 4, np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError):
        bt.CountTable(2, 2, 5, np.array([1, 1, 1, 1]))  # sum mismatch
    with pytest.raises(ValueError):
        bt.CountTable(2, 2, 4, np.array([2, 1, 0, 1]))  # unbalanced
    with pytest.raises(ValueError):
        bt.CountTable(2, 2, 4, np.array([2, -1, 1, 2]))  # negative


def test_enumerate_types_tiny_frozen():
    # |A|=2, n=2, k=1 -> (1,0), (1/2,1/2), (0,1)
    types = bt.enumerate_types(2, 1, 2)
    got = sorted(tuple(t.weights) for t in types)
    assert got == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    # |A|=2, n=2, k=2 -> delta_00, delta_11, (1/2 on 01, 1/2 on 10)
    types2 = bt.enumerate_types(2, 2, 2)
    got2 = sorted(tuple(t.weights) for t in types2)
    assert got2 == [
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 0.5, 0.5, 0.0),
        (1.0, 0.0, 0.0, 0.0),
    ]
    # n=1, k=1 -> |A| point masses
    assert len(bt.enumerate_types(1, 1, 3)) == 3


# the last case is refused on its exponent, without building 3**(10**9)
@pytest.mark.parametrize(
    "n, k, A",
    [(8, 2, 1), (8, 2, 0), (8, 2, -2), (8, 0, 2), (8, -1, 2), (2, 3, 2), (10**9, 2, 3)],
)
def test_enumerate_types_rejects_bad_shapes(n, k, A):
    with pytest.raises(ValueError):
        bt.enumerate_types(n, k, A)


def test_enumerate_types_matches_string_census():
    # the type list is exactly the set of cyclic count vectors of strings
    for n, k, A in ((6, 2, 2), (4, 3, 2), (4, 1, 3), (5, 2, 2)):
        census = {
            _cyclic_counts_purepython(x, k, A)
            for x in itertools.product(range(A), repeat=n)
        }
        types = bt.enumerate_types(n, k, A)
        got = {
            tuple(int(round(w * n)) for w in t.weights) for t in types
        }
        assert got == census
    assert len(bt.enumerate_types(6, 2, 2)) == 11


def test_type_count_bound_frozen():
    assert bt.type_count_bound(2, 1, 2) == pytest.approx(9.0)
    assert bt.type_count_bound(4, 2, 2) == pytest.approx(625.0)
    assert bt.type_count_bound(0, 1, 2) == pytest.approx(1.0)
    assert len(bt.enumerate_types(2, 1, 2)) <= bt.type_count_bound(2, 1, 2)


def test_type_cardinality_bound_sweep():
    for n in (4, 8, 12):
        for k in (1, 2, 3):
            if k > n:
                continue
            types = bt.enumerate_types(n, k, 2)
            assert len(types) <= bt.type_count_bound(n, k, 2)


def test_type_class_size_worked_examples():
    # N(01)=N(10)=2: exact 2 (0101, 1010), Euler bounds [1/4, 4]
    table = bt.CountTable(2, 2, 4, np.array([0, 2, 2, 0]))
    assert bt.type_class_size(table, mode="exact") == 2
    bounds = bt.type_class_size(table, mode="bounds")
    assert bounds.euler_lower == pytest.approx(0.25)
    assert bounds.euler_upper == pytest.approx(4.0)
    # constant string: exact 1
    const = bt.CountTable(2, 2, 5, np.array([5, 0, 0, 0]))
    assert bt.type_class_size(const, mode="exact") == 1
    # loops at 0 and at 1, with no arc between them: no string
    loops = bt.CountTable(2, 2, 6, np.array([3, 0, 0, 3]))
    assert bt.type_class_size(loops, mode="exact") == 0
    # n=4, k=1, counts (2,2): exact C(4,2)=6, Euler bounds [1.5, 24]
    binom = bt.CountTable(2, 1, 4, np.array([2, 2]))
    assert bt.type_class_size(binom, mode="exact") == 6
    b1 = bt.type_class_size(binom, mode="bounds")
    assert b1.euler_lower == pytest.approx(1.5)
    assert b1.euler_upper == pytest.approx(24.0)


def _fraction_determinant(matrix):
    """Determinant by Gaussian elimination over exact rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for i in range(len(rows)):
        pivot = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for row in rows[i + 1 :]:
            factor = row[i] / rows[i][i]
            for c in range(i, len(rows)):
                row[c] -= factor * rows[i][c]
    return det


def test_bareiss_determinant_swaps_past_zero_pivots():
    assert _bareiss_determinant([[0, 1], [1, 0]]) == -1
    rng = np.random.default_rng(13)
    for _ in range(300):
        size = int(rng.integers(1, 7))
        matrix = rng.integers(-3, 4, size=(size, size))
        matrix[rng.random((size, size)) < 1 / 3] = 0
        matrix[0, 0] = 0  # the first pivot needs a row swap
        expected = _fraction_determinant(matrix.tolist())
        assert _bareiss_determinant(matrix.tolist()) == expected, matrix


def test_type_class_size_exact_past_census_reach():
    # 3**12 strings: past the reach of the old string census
    even = bt.CountTable(3, 1, 12, np.array([4, 4, 4]))
    assert bt.type_class_size(even, mode="exact") == 34650
    assert 34650 == math.factorial(12) // math.factorial(4) ** 3
    half = bt.CountTable(2, 1, 16, np.array([8, 8]))
    assert bt.type_class_size(half, mode="exact") == math.comb(16, 8)
    # a 295-digit class at n = 1000, k = 3
    x = np.random.default_rng(0).integers(0, 2, size=1000)
    table = bt.CountTable(2, 3, 1000, bt.block_counts(x, 3, 2))
    exact = bt.type_class_size(table, mode="exact")
    assert isinstance(exact, int) and len(str(exact)) == 295
    bounds = bt.type_class_size(table, mode="bounds")
    assert bounds.euler_lower <= exact <= bounds.euler_upper
    with pytest.raises(ValueError):
        bt.type_class_size(bt.CountTable(2, 2, 0, np.zeros(4)), mode="exact")


def test_type_class_size_bounds_saturate_past_float_range():
    # at n = 4000 all four bounds leave float range and saturate
    x = np.random.default_rng(4).integers(0, 2, size=4000)
    table = bt.CountTable(2, 3, 4000, bt.block_counts(x, 3, 2))
    exact = bt.type_class_size(table, mode="exact")
    bounds = bt.type_class_size(table, mode="bounds")
    assert bounds.euler_lower == bounds.entropy_lower == sys.float_info.max
    assert bounds.euler_upper == bounds.entropy_upper == math.inf
    assert bounds.euler_lower <= exact <= bounds.euler_upper
    assert bounds.entropy_lower <= exact <= bounds.entropy_upper


def test_type_class_size_matches_brute_force_oracle():
    rng = np.random.default_rng(6)
    for _ in range(12):
        A, k = 2, int(rng.integers(1, 4))
        n = int(rng.integers(max(k, 3), 9))
        x = rng.integers(0, A, size=n)
        counts = np.asarray(_cyclic_counts_purepython(x, k, A))
        table = bt.CountTable(A, k, n, counts)
        assert bt.type_class_size(table, mode="exact") == _exact_type_size_oracle(
            counts, n, k, A
        )


@st.composite
def _balanced_tables(draw, max_strings=None):
    """Sums of the cyclic count tables of one to three strings, each random
    or constant: balanced, and disconnected when the strings' supports
    share no vertex.  With ``max_strings`` the total length n keeps A**n
    within it."""
    A = draw(st.integers(2, 4))
    k = draw(st.integers(1, 4))
    n_max = int(math.log(max_strings, A) + 1e-9) if max_strings else 40
    counts = np.zeros(A**k, dtype=np.int64)
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        if n_max - n < k:
            break
        constant = st.just(draw(st.integers(0, A - 1)))
        symbols = draw(st.sampled_from([st.integers(0, A - 1), constant]))
        x = draw(st.lists(symbols, min_size=k, max_size=n_max - n))
        counts += _cyclic_counts_purepython(x, k, A)
        n += len(x)
    return bt.CountTable(A, k, n, counts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_balanced_tables(max_strings=2**12))
def test_type_class_size_equals_census_property(table):
    A, k, n = table.alphabet_size, table.k, table.n
    assert bt.type_class_size(table, mode="exact") == _exact_type_size_oracle(
        table.counts, n, k, A
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_balanced_tables())
def test_type_class_size_connectivity_and_sandwich_property(table):
    exact = bt.type_class_size(table, mode="exact")
    if len(_union_components(table.counts, table.alphabet_size, table.k)) > 1:
        assert exact == 0
        return
    assert exact >= 1
    b = bt.type_class_size(table, mode="bounds")
    assert b.euler_lower * (1 - 1e-9) <= exact <= b.euler_upper * (1 + 1e-9)
    assert b.entropy_lower * (1 - 1e-9) <= exact <= b.entropy_upper * (1 + 1e-9)


def test_realize_sample_worked_examples():
    # N(01)=N(10)=2 -> one of 0101 / 1010, with exact type recovery
    table = bt.CountTable(2, 2, 4, np.array([0, 2, 2, 0]))
    x = bt.realize_sample(table)
    assert tuple(x) in {(0, 1, 0, 1), (1, 0, 1, 0)}
    nu = bt.empirical_block_measure(x, 2, 2)
    np.testing.assert_allclose(nu.weights * 4, table.counts, atol=1e-12)
    # constant table -> constant string
    const = bt.CountTable(2, 2, 5, np.array([5, 0, 0, 0]))
    np.testing.assert_array_equal(bt.realize_sample(const), np.zeros(5))
    # two disjoint self-loops -> concatenation 0011, tv = 1 = k|A|^(k-1)/n
    loops = bt.CountTable(2, 2, 4, np.array([2, 0, 0, 2]))
    y = bt.realize_sample(loops)
    np.testing.assert_array_equal(y, [0, 0, 1, 1])
    pi = bt.empirical_block_measure(y, 2, 2)
    tv = bt.tv_distance(pi, loops.to_distribution())
    assert tv == pytest.approx(1.0)
    assert tv <= 2 * 2 / 4 + 1e-12


def test_realize_sample_round_trip_sweep():
    # every empirical table realizes back to its own type (connected case)
    rng = np.random.default_rng(7)
    for n in (4, 8, 12):
        for k in (1, 2, 3):
            if k > n:
                continue
            for _ in range(40):
                x = rng.integers(0, 2, size=n)
                counts = np.asarray(_cyclic_counts_purepython(x, k, 2))
                table = bt.CountTable(2, k, n, counts)
                y = bt.realize_sample(table)
                assert _cyclic_counts_purepython(y, k, 2) == tuple(counts)


def test_realize_sample_deterministic():
    table = bt.CountTable(2, 3, 8, np.array([2, 1, 1, 1, 1, 1, 1, 0]))
    first = bt.realize_sample(table)
    second = bt.realize_sample(table)
    np.testing.assert_array_equal(first, second)


def test_realize_sample_rejects_empty():
    empty = bt.CountTable(2, 2, 0, np.array([0, 0, 0, 0]))
    with pytest.raises(ValueError):
        bt.realize_sample(empty)


def _union_components(counts, A, k):
    """Undirected union-find over the support arcs, as sorted vertex lists."""
    V = A ** (k - 1)
    root = list(range(V))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    touched = set()
    for w in np.flatnonzero(counts):
        u, v = int(w) // A, int(w) % V
        touched |= {u, v}
        root[find(u)] = find(v)
    groups = {}
    for u in sorted(touched):
        groups.setdefault(find(u), []).append(u)
    return sorted(groups.values())


def test_components_ordering():
    loops = bt.CountTable(2, 2, 4, np.array([2, 0, 0, 2]))
    comps = bt.components(loops)
    assert comps == [[0], [1]]
    # sums of cycle tables on disjoint vertex sets: several components each
    rng = np.random.default_rng(10)
    multi = 0
    for A, k in ((2, 3), (2, 4), (3, 2), (3, 3)):
        cycles = enumerate_simple_cycles(A, k)
        for _ in range(40):
            counts = np.zeros(A**k, dtype=np.int64)
            used: set[int] = set()
            for i in rng.permutation(len(cycles))[:6]:
                verts = {w // A for w in cycles[i]}
                if verts & used:
                    continue
                used |= verts
                counts[list(cycles[i])] += int(rng.integers(1, 4))
            table = bt.CountTable(A, k, int(counts.sum()), counts)
            comps = bt.components(table)
            assert comps == _union_components(counts, A, k)
            multi += len(comps) > 1
    assert multi >= 40


def test_round_to_type_worked_examples(chain_spectral):
    # already a type: returned unchanged
    nu = bt.BlockDistribution(2, 2, np.array([0, 0.5, 0.5, 0]), stationary=True)
    out = bt.round_to_type(nu, 4)
    assert bt.tv_distance(out, nu) <= 1e-12
    # (1/3, 2/3) at n=4 -> (1/4, 3/4), tv 1/6
    nu1 = bt.BlockDistribution(2, 1, np.array([1 / 3, 2 / 3]), stationary=True)
    out1 = bt.round_to_type(nu1, 4)
    np.testing.assert_allclose(out1.weights, [0.25, 0.75], atol=1e-12)
    assert bt.tv_distance(out1, nu1) == pytest.approx(1 / 6, abs=1e-12)
    # irrational 2-block law at n=1000: tv <= (k+2)A^k/n = 0.016
    rho = bt.equilibrium_blocks(chain_spectral, 2)
    out2 = bt.round_to_type(rho, 1000)
    assert bt.tv_distance(out2, rho) <= 4 * 4 / 1000


def test_round_to_type_validates():
    skew = bt.BlockDistribution(2, 2, np.array([0.7, 0.1, 0.1, 0.1]))
    with pytest.raises(ValueError):
        bt.round_to_type(skew, 10)  # not stationary
    nu = bt.BlockDistribution(2, 2, np.array([0.25, 0.25, 0.25, 0.25]), stationary=True)
    with pytest.raises(ValueError):
        bt.round_to_type(nu, 1)  # n < k


def test_round_to_type_realizability_sweep(make_stationary):
    rng = np.random.default_rng(8)
    for _ in range(60):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(max(k, 20), 120))
        nu = make_stationary(rng, A, k)
        mu = bt.round_to_type(nu, n)
        assert bt.tv_distance(mu, nu) <= (k + 2) * A**k / n + 1e-12
        counts = np.rint(mu.weights * n).astype(np.int64)
        np.testing.assert_allclose(mu.weights * n, counts, atol=1e-6)
        table = bt.CountTable(A, k, n, counts)  # balanced by construction
        y = bt.realize_sample(table)
        np.testing.assert_allclose(
            bt.empirical_block_measure(y, k, A).weights, mu.weights, atol=1e-12
        )


@pytest.mark.parametrize(
    "A, k, seed", [(2, 4, 21), (2, 5, 17), (2, 5, 21), (3, 5, 6), (3, 5, 21), (3, 5, 39)]
)
def test_round_to_type_lone_fractional_arc(A, k, seed):
    # snapping near-integer arcs of these equilibrium laws left one
    # fractional arc alone at a vertex, and the cycle walk raised
    # StopIteration instead of rounding it
    rng = np.random.default_rng(seed)
    phi = bt.MarkovPotential(A, k, rng.uniform(0.5, 2) * rng.standard_normal(A**k))
    nu = bt.equilibrium_blocks(bt.pressure(phi, 1.0), k)
    n = 16 * A**k
    mu = bt.round_to_type(nu, n)
    assert bt.tv_distance(mu, nu) <= (k + 2) * A**k / n + 1e-12
    counts = np.rint(mu.weights * n).astype(np.int64)
    np.testing.assert_allclose(mu.weights * n, counts, atol=1e-6)
    y = bt.realize_sample(bt.CountTable(A, k, n, counts))
    np.testing.assert_array_equal(bt.block_counts(y, k, A), counts)


#: sha256 of the concatenated ``round_to_type`` weights over the inputs of
#: ``test_round_to_type_pinned_bits``, recorded while stage 1 still built
#: endpoint dicts and incidence lists; rewrites of the rounding must keep
#: choosing the same types.
ROUNDED_WEIGHTS_SHA256 = "c30df939f6a9495727ae767e2c96559a656cd8a0203e2b7ae791744c11c32605"


def test_round_to_type_pinned_bits(make_stationary):
    digest = hashlib.sha256()
    for seed in (1, 2, 3):  # the types_census benchmark recipe
        rng = np.random.default_rng(seed)
        for A in (2, 3):
            for k in (3, 4, 5):
                for _ in range(4):
                    values = rng.uniform(0.5, 2.0) * rng.standard_normal(A**k)
                    phi = bt.MarkovPotential(A, k, values)
                    nu = bt.equilibrium_blocks(bt.pressure(phi, 1.0), k)
                    digest.update(bt.round_to_type(nu, 16 * A**k).weights.tobytes())
    rng = np.random.default_rng(72)  # the first 50 laws of criterion 02
    for _ in range(50):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.choice([50, 500]))
        digest.update(bt.round_to_type(make_stationary(rng, A, k), n).weights.tobytes())
    assert digest.hexdigest() == ROUNDED_WEIGHTS_SHA256


def test_cycle_decompose_worked_example():
    nu = bt.BlockDistribution(2, 2, np.full(4, 0.25), stationary=True)
    parts = bt.cycle_decompose(nu)
    got = sorted((round(w, 12), c.arcs) for w, c in parts)
    assert got == [(0.25, (0,)), (0.25, (3,)), (0.5, (1, 2))]


def test_cycle_decompose_fixed_points():
    two_cycle = bt.BlockDistribution(
        2, 2, np.array([0, 0.5, 0.5, 0]), stationary=True
    )
    parts = bt.cycle_decompose(two_cycle)
    assert len(parts) == 1
    weight, cyc = parts[0]
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert cyc.arcs == (1, 2)
    # CycleMeasure round trip: decomposing a cycle measure returns itself
    again = bt.cycle_decompose(cyc.distribution)
    assert len(again) == 1 and again[0][1].arcs == (1, 2)


def test_cycle_decompose_properties(make_stationary):
    rng = np.random.default_rng(9)
    for _ in range(60):
        A = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        nu = make_stationary(rng, A, k)
        parts = bt.cycle_decompose(nu)
        assert len(parts) <= A**k
        assert sum(w for w, _ in parts) == pytest.approx(1.0, abs=1e-10)
        recombined = np.zeros(A**k)
        for w, cyc in parts:
            recombined += w * cyc.distribution.weights
            # zero conditional entropy, exactly
            assert bt.conditional_block_entropy(cyc.distribution) == 0.0
        np.testing.assert_allclose(recombined, nu.weights, atol=1e-10)


@pytest.mark.parametrize("k, seed", [(4, 51), (4, 101), (5, 13), (5, 46), (5, 63)])
def test_cycle_decompose_sub_threshold_weights(k, seed):
    # these equilibrium laws have arcs below the 1e-13 support threshold,
    # so some support arc has no return path through the arcs above it
    rng = np.random.default_rng(seed)
    phi = bt.MarkovPotential(3, k, rng.uniform(0.5, 2) * rng.standard_normal(3**k))
    nu = bt.equilibrium_blocks(bt.pressure(phi, 1.0), k)
    parts = bt.cycle_decompose(nu)
    assert len(parts) <= 3**k
    recombined = np.zeros(3**k)
    for weight, cyc in parts:
        assert bt.conditional_block_entropy(cyc.distribution) == 0.0
        recombined += weight * cyc.distribution.weights
    assert np.max(np.abs(recombined - nu.weights)) <= 1e-10


def test_cycle_measure_validation():
    with pytest.raises(ValueError):
        bt.CycleMeasure(2, 2, (1,))  # 01 does not close on itself
    cyc = bt.CycleMeasure(2, 2, (1, 2))
    assert cyc.distribution.stationary


def test_euler_bounds_sandwich_from_fractions():
    # bounds are exact rationals; verify one by hand via Fractions
    table = bt.CountTable(2, 2, 6, np.array([2, 2, 2, 0]))
    exact = bt.type_class_size(table, mode="exact")
    bounds = bt.type_class_size(table, mode="bounds")
    out_deg = [4, 2]  # vertex 0: 2+2, vertex 1: 2+0
    lower = Fraction(
        math.factorial(out_deg[0] - 1) * math.factorial(out_deg[1] - 1),
        math.factorial(2) ** 3,
    )
    upper = 6 * Fraction(
        math.factorial(out_deg[0]) * math.factorial(out_deg[1]),
        math.factorial(2) ** 3,
    )
    assert bounds.euler_lower == pytest.approx(float(lower))
    assert bounds.euler_upper == pytest.approx(float(upper))
    assert float(lower) <= exact <= float(upper)
    # entropy-form bounds hold as well
    assert bounds.entropy_lower <= exact <= bounds.entropy_upper


def test_enumerate_simple_cycles_counts():
    # full 2-letter de Bruijn graph on 2 vertices: 0, 1, 01->10 = 3 cycles
    assert len(enumerate_simple_cycles(2, 2)) == 3
    # k=1 collapses to one vertex with A self-loops
    assert len(enumerate_simple_cycles(3, 1)) == 3
    cycles = enumerate_simple_cycles(2, 3)
    # every returned arc sequence closes on itself through the word graph
    for cyc in cycles:
        V = 4
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert a % V == b // 2
