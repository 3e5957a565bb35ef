"""Shared checkers for the randomized identity suites.

Each function asserts one family of structural identities on a single
instance; the randomized tests and the acceptance suite both drive
them over the seeded corpus.
"""

from __future__ import annotations

from rotsys import (
    cut_vertices,
    is_locally_connected,
    is_p_nullhomologous,
)
from rotsys.homology import boundary_rows
from rotsys.rotation import enumerate_rotation_systems
from rotsys.surfaces import (
    dual_complex,
    iota_check,
    local_surfaces,
    polygon_refs,
    surface_duality_check,
)
from rotsys.tracing import link_tracers


def check_chain_condition(c) -> None:
    """d2 . d1 = 0 over Z, so mod every prime too."""
    d1, d2, *_ = boundary_rows(c)
    for f, row in enumerate(d2):
        acc: dict[int, int] = {}
        for e, x in row.items():
            for v, y in d1[e].items():
                acc[v] = acc.get(v, 0) + x * y
        assert not any(acc.values()), f"chain condition failed over Z at face row {f}"


def check_is_loc_con_implication(c, primes=(2, 3)) -> bool:
    """p-nullhomologous without a cut vertex implies locally connected.
    Returns whether the hypothesis applied."""
    if not any(is_p_nullhomologous(c, p) for p in primes):
        return False
    if cut_vertices(c):
        return False
    assert is_locally_connected(c)[0], "is_loc_con implication violated"
    return True


def check_orientability(c, surfaces) -> None:
    """Each glued edge is traversed forwards on its positive side and
    backwards on its negative side."""
    for s in surfaces:
        for g in s.gluings:
            pos_ref = polygon_refs(c, g.pos_member)[g.pos_side]
            neg_ref = polygon_refs(c, g.neg_member)[g.neg_side]
            assert pos_ref.edge == g.edge and pos_ref.sign == 1
            assert neg_ref.edge == g.edge and neg_ref.sign == -1


def check_gluing_multiset(c, surfaces) -> None:
    mentions: dict[str, int] = {}
    for s in surfaces:
        for g in s.gluings:
            mentions[g.edge] = mentions.get(g.edge, 0) + 1
    for e, incs in c.edge_incidences().items():
        d = len(incs)
        if d == 0:
            continue
        assert mentions.get(e, 0) == (1 if d == 1 else d), e


def check_identities_per_sigma(c, cap: int, null_prime: int | None = None) -> int:
    """For every rotation system (up to ``cap``): the cycle-space
    identity, dual connectivity, the vertex/cell bijection, the
    surface-duality isomorphism, and the orientability of gluings; for
    planar systems also the double-counting inequality (lhs <= 0 with
    equality iff every local surface, hence every dual link, is a
    sphere) and, when the complex is p-nullhomologous, that all local
    surfaces are spheres and the dual is p-nullhomologous too.
    Requires a connected, locally connected complex.  Returns the
    number of systems checked."""
    nv, ne, nf = c.counts()
    z_c = ne - nv + 1
    # the tracers kept in c.table, which is_locally_connected(c) built
    tracers = link_tracers(c)
    checked = 0
    for sigma in enumerate_rotation_systems(c, cap=cap):
        surfaces = local_surfaces(c, sigma)
        check_orientability(c, surfaces)
        check_gluing_multiset(c, surfaces)
        dual = dual_complex(c, sigma, surfaces)
        d = dual.complex
        assert len(d.components()) == 1, "dual of connected lc complex disconnected"
        lhs = nv - ne + nf - len(d.vertices)
        z_d = len(d.edges) - len(d.vertices) + 1
        assert lhs == z_d - z_c, f"cycle-space identity failed: {lhs} vs {z_d - z_c}"
        iota_check(c, sigma, surfaces, tracers)
        surface_duality_check(c, sigma, dual)
        if all(tracers[v].sphere_union(sigma) for v in c.vertices):
            # dual links are surface duals of the local surfaces, so the
            # sphere-equality case is visible on the surfaces directly
            assert lhs <= 0, "double-counting inequality violated"
            assert (lhs == 0) == all(s.chi == 2 for s in surfaces)
            if null_prime is not None:
                assert all(s.genus == 0 for s in surfaces), (
                    "nullhomologous planar system with a non-sphere surface"
                )
                assert lhs == 0
                assert is_p_nullhomologous(d, null_prime), (
                    "equality without a nullhomologous dual"
                )
        checked += 1
    return checked
