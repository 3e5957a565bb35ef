import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, isprime, nextprime, prevprime
from sympy.matrices.normalforms import smith_normal_form

from rotsys import (
    GenParams,
    RotationSystem,
    dual_complex,
    euler_identity_report,
    generate_random_complex,
    h1_integral,
    homology_summary,
    integral_summary,
    is_locally_connected,
    is_p_nullhomologous,
    is_planar_rotation_system,
    trace_link_complex,
)
from rotsys.errors import (
    NotConnectedError,
    NotLocallyConnectedError,
    NotPrimeError,
    TooLargeError,
    UnsatisfiableError,
)
from rotsys.homology import (
    boundary_rows,
    fp_rank,
    is_prime,
    snf_diagonal,
    sparse_snf_divisors,
)
from rotsys.rotation import canonical_rotation_system, sigma_candidates

import make_fixtures
from conftest import corpus_params
from general_pieces import GENERAL_PIECES, LOOP_PIECES, MIXED_TORSION, complex_from_lists, glued
from identity_checks import check_chain_condition


def numpy_rank_mod_p(rows, p):
    """Independent rank oracle: elimination on numpy arrays with a
    different pivoting strategy (largest entry in column)."""
    a = np.array(rows, dtype=np.int64) % p
    if a.size == 0:
        return 0
    m, n = a.shape
    rank = 0
    for col in range(n):
        rows_left = np.nonzero(a[rank:, col])[0]
        if len(rows_left) == 0:
            continue
        piv = rank + rows_left[np.argmax(a[rank:, col][rows_left])]
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        for i in range(m):
            if i != rank and a[i, col]:
                a[i] = (a[i] - a[i, col] * a[rank]) % p
        rank += 1
        if rank == m:
            break
    return rank


def sympy_divisors(rows):
    m = Matrix(rows)
    s = smith_normal_form(m)
    return [abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i] != 0]


def _dense(rows, n_cols):
    return [[row.get(j, 0) for j in range(n_cols)] for row in rows]


def test_single_triangle_mod2(complexes):
    c = complexes["triangle"]
    _, d2, *_ = boundary_rows(c)
    assert [{j: x % 2 for j, x in row.items()} for row in d2] == [{0: 1, 1: 1, 2: 1}]
    assert homology_summary(c, 2).rank_d2 == 1


def test_chain_condition_fixtures(complexes):
    for c in complexes.values():
        check_chain_condition(c)


def test_tetrahedron_ranks(complexes):
    s = homology_summary(complexes["tetrahedron"], 5)
    assert s.rank_d1 == 3 and s.rank_d2 == 3
    assert s.z_c == 3 and s.h1_trivial


def test_rp2_rank_depends_on_prime(complexes):
    c = complexes["rp2-6"]
    assert homology_summary(c, 2).rank_d2 == 9
    assert homology_summary(c, 2).z_c == 10
    assert homology_summary(c, 3).rank_d2 == 10
    assert not is_p_nullhomologous(c, 2)
    assert is_p_nullhomologous(c, 3)


def test_torus_not_nullhomologous(complexes):
    c = complexes["torus-7"]
    for p in (2, 3, 5):
        assert not is_p_nullhomologous(c, p)
    s = homology_summary(c, 2)
    assert s.z_c == 15 and s.rank_d2 == 13


def test_rank_matches_numpy_oracle(complexes):
    """The F_p ranks read off the integral Smith form against an
    elimination mod p, on the whole homology corpus."""
    for c in _homology_corpus(complexes):
        d1, d2, vertices, edges, _ = boundary_rows(c)
        for p in (2, 3, 5, 7):
            s = homology_summary(c, p)
            assert s.rank_d1 == numpy_rank_mod_p(_dense(d1, len(vertices)), p)
            assert s.rank_d2 == numpy_rank_mod_p(_dense(d2, len(edges)), p)


def test_h1_integral_classical_values(complexes):
    assert h1_integral(complexes["tetrahedron"]) == (0, [])
    assert h1_integral(complexes["rp2-6"]) == (0, [2])
    assert h1_integral(complexes["torus-7"]) == (2, [])
    assert h1_integral(complexes["triangle"]) == (0, [])
    assert h1_integral(complexes["bowtie"]) == (0, [])


def test_snf_against_sympy_on_boundaries(complexes):
    for c in complexes.values():
        d1, d2, vertices, edges, _ = boundary_rows(c)
        for mat in (_dense(d1, len(vertices)), _dense(d2, len(edges))):
            ours = [d for d in snf_diagonal(mat) if d != 0]
            assert ours == sympy_divisors(mat)


# a block without unit pivots on which a Euclidean elimination without a
# bound on its entries ran for seconds, its entries growing to millions
# of bits
STALL_BLOCK = [
    [14, 13, -16, 8, 48],
    [-12, -27, -13, -38, -15],
    [-13, -42, -47, -61, 9],
    [-4, -10, 23, 4, -32],
    [-40, -141, -172, -225, 75],
    [-21, -73, -81, -110, 30],
]

# CPU seconds an elimination of one drawn matrix may take
SNF_CPU_BOUND = 1.0


def _bounded(eliminate, rows):
    start = time.process_time()
    out = eliminate(rows)
    assert time.process_time() - start < SNF_CPU_BOUND
    return out


@st.composite
def dense_matrices(draw):
    """1 to 8 rows of one width from 1 to 8, entries up to +-9."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
@example(STALL_BLOCK)
def test_snf_matches_sympy_random(rows):
    assert [d for d in _bounded(snf_diagonal, rows) if d != 0] == sympy_divisors(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([2, 3, 5, 7]),
)
def test_fp_rank_consistent_with_snf_mod_p(rows, p):
    # rank over F_p = number of SNF divisors not divisible by p
    expected = sum(1 for d in snf_diagonal(rows) if d != 0 and d % p != 0)
    got = fp_rank(p, [[x % p for x in row] for row in rows])
    assert got == expected


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 16 x 16: each row all zero, of +-1
    entries, sparse +-1 entries or entries up to +-9; empty and
    all-zero shapes included."""
    m = draw(st.integers(0, 16))
    n = draw(st.integers(0, 16))
    if n == 0:
        return [[] for _ in range(m)]
    entries = [st.just(0), st.integers(-1, 1), st.sampled_from([0, 0, 0, 1, -1]), st.integers(-9, 9)]
    return [draw(st.lists(draw(st.sampled_from(entries)), min_size=n, max_size=n)) for _ in range(m)]


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example(STALL_BLOCK)
def test_sparse_elimination_matches_dense_oracles(rows):
    ours = _bounded(sparse_snf_divisors, _sparse(rows))
    assert ours == [d for d in _bounded(snf_diagonal, rows) if d != 0]
    assert ours == (sympy_divisors(rows) if rows and rows[0] else [])
    for p in (2, 3, 5, 7):
        assert sum(1 for d in ours if d % p) == fp_rank(p, [[x % p for x in r] for r in rows])


@pytest.mark.parametrize("twisted, expected", [(False, (2, [])), (True, (1, [2]))])
def test_h1_of_20x20_grid_surfaces(twisted, expected):
    c = make_fixtures._grid_surface(20, twisted)
    assert c.counts() == (400, 1200, 800)
    assert h1_integral(c) == expected
    assert not is_p_nullhomologous(c, 2)
    assert not is_p_nullhomologous(c, 3)


@pytest.mark.slow
@pytest.mark.parametrize("twisted, expected", [(False, (2, [])), (True, (1, [2]))])
def test_h1_of_60x60_grid_surfaces_is_near_linear(twisted, expected):
    """3x the ~0.09 s of CPU that ``h1_integral`` takes on either surface
    (Python 3.11, 2 CPUs); keying every +-1 entry of each row a pivot
    touches anew took ~0.55 s."""
    c = make_fixtures._grid_surface(60, twisted)
    start = time.process_time()
    assert h1_integral(c) == expected
    assert time.process_time() - start < 0.3


def _bouquet(k, last_sign):
    """``k`` loops at one vertex, a face over each two neighbouring
    loops, the last one closing the ring with ``last_sign``."""
    loops = [f"l{i}" for i in range(k)]
    faces = [(f"f{i}", [(loops[i], 1), (loops[i + 1], 1)]) for i in range(k - 1)]
    if k > 1:
        faces.append(("f", [(loops[-1], 1), (loops[0], last_sign)]))
    return complex_from_lists("general", "z", [(l, "z", "z") for l in loops], faces)


def _homology_corpus(complexes):
    """The fixtures, the randgen corpus, glued general and loop pieces (a
    loop is a zero row of d1), one-vertex bouquets, and grid tori and
    Klein bottles."""
    corpus = list(complexes.values())
    for i in range(300):
        try:
            corpus.append(generate_random_complex(corpus_params(i)))
        except UnsatisfiableError:
            pass
    rng = random.Random(14)
    for _ in range(60):
        corpus.append(glued(rng, rng.choices(GENERAL_PIECES + LOOP_PIECES, k=rng.randint(1, 4)), 0.2))
    corpus += [_bouquet(k, sign) for k in range(1, 6) for sign in (1, -1)]
    corpus.append(MIXED_TORSION)
    corpus += [make_fixtures._grid_surface(n, t) for n in range(3, 8) for t in (False, True)]
    return corpus


def test_one_elimination_of_d2_answers_every_prime(complexes):
    """H_1 over F_p is read off the integral answer (H_0 is free), and d1,
    a graph's incidence matrix, has rank |V| - k over F_p and over Z."""
    seen_torsion = set()
    for c in _homology_corpus(complexes):
        betti1, torsion = h1_integral(c)
        seen_torsion.add(tuple(torsion))
        d1, *_ = boundary_rows(c)
        d1_divisors = sparse_snf_divisors(d1)
        assert integral_summary(c).rank_d1 == len(d1_divisors)
        for p in (2, 3, 5, 7):
            assert is_p_nullhomologous(c, p) == (betti1 == 0 and all(t % p for t in torsion))
            assert homology_summary(c, p).rank_d1 == sum(1 for d in d1_divisors if d % p)
    assert {(), (2,), (2, 6)} <= seen_torsion


def test_not_prime_rejected(complexes):
    c = complexes["triangle"]
    with pytest.raises(NotPrimeError):
        homology_summary(c, 4)
    with pytest.raises(NotPrimeError):
        is_p_nullhomologous(c, 1)


def test_is_prime_agrees_with_sympy():
    """Miller-Rabin on the first 13 prime bases against sympy: every
    integer up to 20,000, 2,000 seeded 64-bit integers, and strong
    pseudoprimes to the bases 2..7 and 2..23."""
    rng = random.Random(16)
    for n in [*range(-3, 20_001), *(rng.getrandbits(64) for _ in range(2000))]:
        assert is_prime(n) == isprime(n), n
    for n in (3_215_031_751, 3_825_123_056_546_413_051):
        assert not is_prime(n) and not isprime(n)
    assert is_prime(nextprime(10**18))


def test_is_prime_refuses_beyond_the_miller_rabin_bound():
    assert is_prime(prevprime(3_317_044_064_679_887_385_961_981))
    with pytest.raises(TooLargeError):
        is_prime(3_317_044_064_679_887_385_961_981)
    with pytest.raises(TooLargeError):
        homology_summary(make_fixtures.triangle(), nextprime(10**30))


def test_integral_summary(complexes):
    s = integral_summary(complexes["rp2-6"])
    assert s.p == "Z"
    assert s.betti1 == 0 and s.torsion == (2,)
    assert not s.h1_trivial


def test_euler_report_spherelike_fixtures(complexes):
    for name, p in (("tetrahedron", 2), ("book3", 2), ("rp2-6", 3)):
        c = complexes[name]
        r = euler_identity_report(c, canonical_rotation_system(c), p)
        assert r.lhs == 0, name
        assert r.cycle_space_identity_holds and r.eq1_holds
        assert r.eq2_slack == 0
        assert r.planar and r.p_nullhomologous_c
        assert r.geq_applicable and r.geq_holds and r.geq_equality
        assert r.geq_equality_matches_dual_null and r.p_nullhomologous_d
        assert r.dual_links_all_spheres and r.double_counting_holds


def test_euler_report_torus(complexes):
    c = complexes["torus-7"]
    r = euler_identity_report(c, canonical_rotation_system(c), 2)
    assert r.lhs == -2
    assert r.z_d - r.z_c == -2 and r.cycle_space_identity_holds
    assert r.planar and not r.p_nullhomologous_c
    assert not r.geq_applicable
    assert not r.dual_links_all_spheres
    assert r.eq1_holds and r.eq2_slack == 4
    assert r.double_counting_holds  # lhs < 0 matches non-sphere dual links


def test_euler_report_link_counts_match_the_traced_links(complexes):
    """One tracing pass per link gives the report's ``a``, ``a_prime``
    and ``planar``: they equal the cell counts of the traced link
    complexes and the planarity test, on the fixtures under their
    canonical systems and on randgen complexes under random ones."""
    rng = random.Random(3)
    cases = [(c, canonical_rotation_system(c)) for c in complexes.values()]
    for seed in range(150):
        params = GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=2 + seed % 9)
        try:
            c = generate_random_complex(params)
        except UnsatisfiableError:
            continue
        incidences = c.edge_incidences()
        sigma = RotationSystem({e: rng.choice(list(sigma_candidates(incidences[e]))) for e in c.edges})
        cases.append((c, sigma))
    seen = {True: 0, False: 0}
    for c, sigma in cases:
        if not (c.is_connected() and is_locally_connected(c)[0]):
            continue
        r = euler_identity_report(c, sigma, 2)
        dual = dual_complex(c, sigma)
        d = dual.complex
        assert r.planar == is_planar_rotation_system(c, sigma)[0]
        assert r.a == sum(trace_link_complex(c, sigma, v).num_cells() for v in c.vertices)
        assert r.a_prime == sum(
            trace_link_complex(d, dual.sigma_c, v).num_cells() for v in d.vertices
        )
        seen[r.planar] += 1
    assert min(seen.values()) >= 20, seen


def test_euler_report_preconditions(complexes):
    sigma = canonical_rotation_system(complexes["bowtie"])
    with pytest.raises(NotLocallyConnectedError):
        euler_identity_report(complexes["bowtie"], sigma, 2)
    two = make_fixtures._triangle_complex(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(NotConnectedError):
        euler_identity_report(two, canonical_rotation_system(two), 2)
