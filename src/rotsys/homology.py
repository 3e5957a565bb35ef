"""Exact first homology over the integers, and over F_p read off it.

Boundary matrices are built as sparse rows (column index -> entry)
straight from edge ends and face trails.  One integral elimination
answers every question: it pivots only on +-1 entries, taking at each
step the entry of least Markowitz cost (row nonzeros - 1) * (column
nonzeros - 1), ties broken by row and then column, so the order is
deterministic and fill stays low.  Each pivot splits off a diagonal 1
of the Smith normal form; only the block left without a +-1 entry goes
to the dense `snf_diagonal`, with exact big-integer arithmetic.
(Dumas, Saunders and Villard, "On efficient sparse integer matrix
Smith normal form computations", J. Symb. Comput. 2001.)

Only d2 is eliminated: d1 is the incidence matrix of a graph, totally
unimodular, so its rank is |V| - k over F_p and over Z alike (k the
number of skeleton components), and the cycle space has dimension
|E| - |V| + k.  H_0 is free, so H_1(C; F_p) = H_1(C; Z) (x) F_p: the
rank of d2 mod p is its integral rank less the torsion coefficients p
divides.  The dense `fp_rank` is only a reference for the tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .complexes import PreComplex
from .errors import NotConnectedError, NotLocallyConnectedError, NotPrimeError, TooLargeError
from .rotation import RotationSystem
from .surfaces import dual_complex
from .tracing import is_locally_connected, link_graphs

SparseRows = list[dict[int, int]]


def least_prime_factor(n: int) -> int:
    """The least prime dividing ``n`` (n >= 2), by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


# Miller-Rabin with the first 13 primes as bases is exact below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; TooLargeError from `_MR_BOUND` up."""
    if p >= _MR_BOUND:
        raise TooLargeError(f"{p} is too large: primality is decided only below {_MR_BOUND}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def fp_rank(p: int, rows: list[list[int]]) -> int:
    """Rank by dense elimination; pivots scan columns left to right
    (labels ascending) and take the first row with a nonzero entry.
    A test reference: homology reads F_p ranks off the Smith form."""
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        pivot = None
        for i in range(rank, m):
            if rows[i][col] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % p, p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col] % p != 0:
                factor = rows[i][col] % p
                rows[i] = [
                    (a - factor * b) % p for a, b in zip(rows[i], rows[rank])
                ]
        rank += 1
        if rank == m:
            break
    return rank


def sparse_snf_divisors(rows: SparseRows) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix
    given as sparse rows, in divisor-chain order: a 1 per unit pivot,
    then `snf_diagonal` of the block left without a +-1 entry.

    Each pivot clears its column by row operations; the column
    operations that would then clear its row touch no other row, so
    they are left implicit and the pivot row is dropped.  The caller's
    rows are not modified.
    """
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    # (Markowitz cost, row, column) of every +-1 entry, plus stale
    # keys: a key counts only while it equals the entry's current cost
    heap = [
        ((len(row) - 1) * (len(cols[j]) - 1), i, j)
        for i, row in enumerate(rows)
        for j, x in row.items()
        if x in (1, -1)
    ]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        cost, r, c = heapq.heappop(heap)
        pivot = rows[r]
        x = pivot.get(c)
        if x not in (1, -1) or cost != (len(pivot) - 1) * (len(cols[c]) - 1):
            continue
        pivots += 1
        rows[r] = {}
        for j in pivot:
            cols[j].discard(r)
        targets, cols[c] = cols[c], set()
        del pivot[c]
        for i in targets:
            row = rows[i]
            f = row.pop(c) * x  # x is its own inverse
            for j, y in pivot.items():
                z = row.get(j, 0) - f * y
                if z:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = z
                else:
                    del row[j]
                    cols[j].discard(i)
        # costs changed in the rows that took fill and in the columns
        # of the pivot row, whose counts moved
        for i in targets:
            row = rows[i]
            for j, y in row.items():
                if y in (1, -1):
                    heapq.heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))
        for j in pivot:
            col = cols[j]
            for i in col - targets:
                row = rows[i]
                if row[j] in (1, -1):
                    heapq.heappush(heap, ((len(row) - 1) * (len(col) - 1), i, j))
    left = [row for row in rows if row]
    if not left:
        return [1] * pivots
    columns = sorted({j for row in left for j in row})
    return [1] * pivots + snf_diagonal([[row.get(j, 0) for j in columns] for row in left])


def boundary_rows(c: PreComplex) -> tuple[SparseRows, SparseRows, list[str], list[str], list[str]]:
    """Integer (d1, d2) as sparse rows, with the vertex, edge and face
    labels (sorted) that index their columns and rows.

    Row of d1 for edge e is head(e) - tail(e); row of d2 for face f is
    the net signed traversal count of each edge.  Zero entries are
    omitted.
    """
    vertices = sorted(c.vertices)
    edges = sorted(c.edges)
    faces = sorted(c.faces)
    v_index = {v: i for i, v in enumerate(vertices)}
    e_index = {e: i for i, e in enumerate(edges)}
    d1 = []
    for e in edges:
        tail, head = c.edges[e]
        d1.append({} if tail == head else {v_index[head]: 1, v_index[tail]: -1})
    d2 = []
    for f in faces:
        row: dict[int, int] = {}
        for ref in c.faces[f].trail:
            j = e_index[ref.edge]
            row[j] = row.get(j, 0) + ref.sign
        d2.append({j: x for j, x in row.items() if x})
    return d1, d2, vertices, edges, faces


@dataclass(frozen=True)
class HomologySummary:
    """F_p (or integral, p = "Z") first-homology data of a complex."""

    p: int | str
    rank_d1: int
    rank_d2: int
    z_c: int
    k_c: int
    h1_trivial: bool
    betti1: int | None = None
    torsion: tuple[int, ...] | None = None

    def to_doc(self) -> dict:
        doc = {
            "p": self.p,
            "rank_d1": self.rank_d1,
            "rank_d2": self.rank_d2,
            "Z_C": self.z_c,
            "k_C": self.k_c,
            "h1_trivial": self.h1_trivial,
        }
        if self.betti1 is not None:
            doc["betti1"] = self.betti1
            doc["torsion"] = list(self.torsion or ())
        return doc


def homology_summary(c: PreComplex, p: int) -> HomologySummary:
    """F_p first-homology data, read off the integral Smith form of d2:
    a diagonal form has rank mod p the number of its entries that p
    does not divide, so rank_d2 drops by the torsion coefficients p
    divides."""
    require_prime(p)
    s = integral_summary(c)
    r2 = s.rank_d2 - sum(1 for t in s.torsion if t % p == 0)
    return replace(s, p=p, rank_d2=r2, h1_trivial=(r2 == s.z_c), betti1=None, torsion=None)


def is_p_nullhomologous(c: PreComplex, p: int) -> bool:
    """H_1(c, F_p) trivial: the face boundaries span the cycle space."""
    return homology_summary(c, p).h1_trivial


def snf_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of a dense integer
    matrix, as positive integers in divisor-chain order.  Exact
    big-integer arithmetic throughout; cubic in the matrix size, so
    homology sends it only the block `sparse_snf_divisors` leaves
    without a unit pivot."""
    a = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (
                    piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break
        # pivot must divide every remaining entry; fold a violator in
        violator = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    violator = (i, j)
                    break
            if violator:
                break
        if violator:
            i0, j0 = violator
            for i in range(t, m):
                a[i][t] += a[i][j0]
            continue
        diag.append(abs(a[t][t]))
        t += 1
    for k in range(len(diag) - 1):
        assert diag[k + 1] % diag[k] == 0, "divisor chain broken"
    return diag


def integral_summary(c: PreComplex) -> HomologySummary:
    """The cycle lattice is a direct summand of the edge lattice, so the
    torsion of H_1 equals the nontrivial elementary divisors of d2
    itself; betti1 is the cycle-space dimension minus rank(d2)."""
    k = len(c.components())
    z_c = len(c.edges) - len(c.vertices) + k
    divisors = sparse_snf_divisors(boundary_rows(c)[1])
    betti1 = z_c - len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    return HomologySummary(
        p="Z",
        rank_d1=len(c.vertices) - k,
        rank_d2=len(divisors),
        z_c=z_c,
        k_c=k,
        h1_trivial=(betti1 == 0 and not torsion),
        betti1=betti1,
        torsion=torsion,
    )


def h1_integral(c: PreComplex) -> tuple[int, list[int]]:
    """(betti1, torsion coefficients) of H_1(c, Z)."""
    s = integral_summary(c)
    return s.betti1, list(s.torsion)


# -- the Euler-type identities as an executable report -----------------------


@dataclass(frozen=True)
class EulerReport:
    """Every quantity of the double-counting identities, computed from
    first principles for one (complex, rotation system, prime)."""

    p: int
    lhs: int              # |V(C)| - |E| + |F| - |V(D)|
    z_c: int
    z_d: int
    a: int                # total cells over link complexes of C
    a_prime: int          # total cells over link complexes of D
    sum_deg_f: int
    sum_deg_e: int
    planar: bool
    eq1_holds: bool       # 2|V(C)| = 2|E| - sum deg(f) + a
    eq2_slack: int        # 2|V(D)| - (2|F| - sum deg(e) + a')
    cycle_space_identity_holds: bool  # lhs = Z_D - Z_C
    p_nullhomologous_c: bool
    p_nullhomologous_d: bool
    geq_applicable: bool
    geq_holds: bool
    geq_equality: bool
    geq_equality_matches_dual_null: bool
    dual_links_all_spheres: bool
    double_counting_holds: bool

    def to_doc(self) -> dict:
        return {
            "p": self.p,
            "lhs": self.lhs,
            "Z_C": self.z_c,
            "Z_D": self.z_d,
            "a": self.a,
            "a_prime": self.a_prime,
            "sum_deg_f": self.sum_deg_f,
            "sum_deg_e": self.sum_deg_e,
            "planar": self.planar,
            "eq1_holds": self.eq1_holds,
            "eq2_slack": self.eq2_slack,
            "cycle_space_identity_holds": self.cycle_space_identity_holds,
            "p_nullhomologous_C": self.p_nullhomologous_c,
            "p_nullhomologous_D": self.p_nullhomologous_d,
            "geq_applicable": self.geq_applicable,
            "geq_holds": self.geq_holds,
            "geq_equality": self.geq_equality,
            "geq_equality_matches_dual_null": self.geq_equality_matches_dual_null,
            "dual_links_all_spheres": self.dual_links_all_spheres,
            "double_counting_holds": self.double_counting_holds,
        }


def _total_link_cells(c: PreComplex, sigma: RotationSystem) -> tuple[int, bool]:
    """(total cells over all link complexes, every one a sphere union),
    tracing each link kept in ``c.table`` once."""
    total, spheres = 0, True
    for lg in link_graphs(c).values():
        cells = len(lg.cells(sigma))
        total += cells
        spheres = spheres and cells == lg.sphere_cells
    return total, spheres


def euler_identity_report(
    c: PreComplex, sigma: RotationSystem, p: int
) -> EulerReport:
    """Compute and check the double-counting identities for (c, sigma).

    Requires a connected, locally connected complex.  All fields are
    exact integers; the boolean flags state which identities held.
    """
    require_prime(p)
    if not c.is_connected():
        raise NotConnectedError("the identities require a connected complex")
    loc, witness = is_locally_connected(c)
    if not loc:
        raise NotLocallyConnectedError(f"disconnected link at {witness!r}")

    dual = dual_complex(c, sigma)
    d = dual.complex
    nv, ne, nf = c.counts()
    nvd = len(d.vertices)
    lhs = nv - ne + nf - nvd
    hc, hd = homology_summary(c, p), homology_summary(d, p)
    z_c, z_d = hc.z_c, hd.z_c
    sum_deg_f = sum(len(b.trail) for b in c.faces.values())
    sum_deg_e = sum(len(b.trail) for b in d.faces.values())
    assert sum_deg_f == sum_deg_e, "incidence count must be self-transpose"

    a, planar = _total_link_cells(c, sigma)
    a_prime, dual_links_all_spheres = _total_link_cells(d, dual.sigma_c)
    eq1_holds = 2 * nv == 2 * ne - sum_deg_f + a
    eq2_slack = 2 * nvd - (2 * nf - sum_deg_e + a_prime)
    null_c, null_d = hc.h1_trivial, hd.h1_trivial
    geq_applicable = planar and null_c
    return EulerReport(
        p=p,
        lhs=lhs,
        z_c=z_c,
        z_d=z_d,
        a=a,
        a_prime=a_prime,
        sum_deg_f=sum_deg_f,
        sum_deg_e=sum_deg_e,
        planar=planar,
        eq1_holds=eq1_holds,
        eq2_slack=eq2_slack,
        cycle_space_identity_holds=(lhs == z_d - z_c),
        p_nullhomologous_c=null_c,
        p_nullhomologous_d=null_d,
        geq_applicable=geq_applicable,
        geq_holds=(lhs >= 0) if geq_applicable else True,
        geq_equality=(lhs == 0),
        geq_equality_matches_dual_null=((lhs == 0) == null_d) if geq_applicable else True,
        dual_links_all_spheres=dual_links_all_spheres,
        double_counting_holds=(lhs <= 0 and (lhs == 0) == dual_links_all_spheres)
        if planar
        else True,
    )
