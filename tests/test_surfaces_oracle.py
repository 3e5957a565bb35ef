"""The table-driven surfaces layer against the dict-based reference.

``surfaces_reference.py`` keeps the implementations that rebuilt
incidences, polygon refs and positive orientations for every rotation
system.  On every rotation system of randgen complexes and of glued
general complexes (loops, faces with one incidence at an edge, faces
that pass a vertex twice, bare loops that stay faceless), the library
must give equal local surfaces, the same dual documents and dual sigma,
and the same iota reports and duality maps, or fail the same way.  On
rotation systems with corrupted cyclic orders, local surfaces must come
out equal or fail with the same message, naming the same surface and
check, or the same edge and the face that does not meet it.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace

import surfaces_reference as ref
from general_pieces import GENERAL_PIECES, glued

from rotsys import GenParams, generate_random_complex, surfaces
from rotsys.documents import complex_to_doc, sigma_to_doc
from rotsys.errors import (
    InvalidRotationSystemError,
    NotClosedSurfaceError,
    RotsysError,
    UnsatisfiableError,
)
from rotsys.rotation import (
    RotationSystem,
    canonical_rotation_system,
    enumerate_rotation_systems,
    total_search_space,
)

MAX_SYSTEMS = 200  # rotation systems per complex, all of them checked


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except RotsysError as exc:
        return type(exc), str(exc)


def randgen_corpus(n):
    out = []
    seed = 0
    while len(out) < n:
        params = GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=1 + seed % 9)
        seed += 1
        try:
            c = generate_random_complex(params)
        except UnsatisfiableError:
            continue
        if total_search_space(c) <= MAX_SYSTEMS:
            out.append(c)
    return out


def glued_corpus(n):
    rng = random.Random(41)
    out = []
    while len(out) < n:
        pieces = rng.choices(GENERAL_PIECES, k=rng.randint(1, 4))
        if rng.random() < 0.5:  # a simplicial piece, often with a choice
            params = GenParams(seed=rng.randrange(10**6), n_vertices=5, target_faces=5)
            pieces.append(generate_random_complex(params))
        rng.shuffle(pieces)
        c = glued(rng, pieces, 0.1)
        if total_search_space(c) <= MAX_SYSTEMS:
            out.append(c)
    return out


def check_every_system(c, mismatches):
    """Compare library and reference on every rotation system of ``c``,
    and iota, the dual and the duality check on the surfaces of the
    system before, counting their outcome types in ``mismatches``;
    returns the number of systems."""
    n = 0
    previous = None  # the surfaces of the previous system, a mismatch
    for sigma in enumerate_rotation_systems(c):
        mine = outcome(surfaces.local_surfaces, c, sigma)
        theirs = outcome(ref.local_surfaces, c, sigma)
        assert mine == theirs
        if isinstance(theirs, list):
            for s in theirs:
                for m in s.members:
                    assert surfaces.polygon_refs(c, m) == ref.polygon_refs(c, m)
        dual = outcome(surfaces.dual_complex, c, sigma)
        ref_dual = outcome(ref.dual_complex, c, sigma)
        assert dual == ref_dual
        if isinstance(ref_dual, ref.DualComplex):
            # dict equality ignores order; the documents do not
            assert complex_to_doc(dual.complex) == complex_to_doc(ref_dual.complex)
            assert list(complex_to_doc(dual.complex)["edges"]) == list(
                complex_to_doc(ref_dual.complex)["edges"]
            )
            assert repr(sigma_to_doc(dual.sigma_c)) == repr(sigma_to_doc(ref_dual.sigma_c))
            assert list(dual.class_of.items()) == list(ref_dual.class_of.items())
        assert outcome(surfaces.iota_check, c, sigma) == outcome(ref.iota_check, c, sigma)
        if previous is not None:
            mismatched = outcome(surfaces.iota_check, c, sigma, previous)
            assert mismatched == outcome(ref.iota_check, c, sigma, previous)
            mismatches[type(mismatched)] += 1
            mismatched = outcome(surfaces.dual_complex, c, sigma, previous)
            ref_mismatched = outcome(ref.dual_complex, c, sigma, previous)
            assert mismatched == ref_mismatched
            mismatches["dual", type(mismatched)] += 1
            if isinstance(ref_mismatched, ref.DualComplex):
                checked = outcome(surfaces.surface_duality_check, c, sigma, mismatched)
                assert checked == outcome(ref.surface_duality_check, c, sigma, ref_mismatched)
                mismatches["duality check", type(checked)] += 1
        previous = theirs if isinstance(theirs, list) else None
        assert outcome(surfaces.surface_duality_check, c, sigma) == outcome(
            ref.surface_duality_check, c, sigma
        )
        n += 1
    return n


def test_surfaces_match_the_reference_on_randgen_complexes():
    corpus = randgen_corpus(120)
    mismatches = Counter()
    systems = sum(check_every_system(c, mismatches) for c in corpus)
    assert systems >= 500
    # iota on another system's surfaces fails, with the same message; the
    # dual of them has a face trail that does not close, or fails the
    # duality check
    assert mismatches[tuple] >= 100, mismatches
    assert mismatches["dual", tuple] >= 30, mismatches
    assert mismatches["duality check", tuple] >= 100, mismatches


def test_surfaces_match_the_reference_on_glued_general_complexes():
    corpus = glued_corpus(120)
    seen = {"loop": 0, "faceless": 0, "one incidence": 0, "revisit": 0, "choice": 0}
    for c in corpus:
        incidences = c.edge_incidences()
        seen["loop"] += any(t == h for t, h in c.edges.values())
        seen["faceless"] += any(not incs for incs in incidences.values())
        seen["one incidence"] += any(len(incs) == 1 for incs in incidences.values())
        seen["revisit"] += any(
            len(c.face_vertices(f)) < len(b) for f, b in c.faces.items()
        )
        seen["choice"] += check_every_system(c, Counter()) > 1
    assert min(seen.values()) >= 10, seen


def test_iota_fails_like_the_reference_on_changed_surface_vertices():
    """With one surface vertex dropped, or two next to each other, link
    cells are left unmatched, and with one doubled a surface vertex finds
    no cell: ``iota_check`` fails with the reference's message, naming
    the same corner word, or the same class of link cells (the first, in
    the order of each class's first cell, that keeps an unmatched cell,
    spelled as its canonical word)."""
    seen = Counter()
    for c in randgen_corpus(30) + glued_corpus(30):
        for sigma in itertools.islice(enumerate_rotation_systems(c), 3):
            found = surfaces.local_surfaces(c, sigma)
            for si, s in enumerate(found):
                for k in range(len(s.vertices)):
                    dropped = s.vertices[:k] + s.vertices[k + 1 :]
                    two_dropped = s.vertices[:k] + s.vertices[k + 2 :]
                    doubled = s.vertices[: k + 1] + s.vertices[k:]
                    for vertices in (dropped, two_dropped, doubled):
                        changed = [*found[:si], replace(s, vertices=vertices), *found[si + 1 :]]
                        mine = outcome(surfaces.iota_check, c, sigma, changed)
                        assert mine == outcome(ref.iota_check, c, sigma, changed)
                        seen["unmatched" if "unmatched" in mine[1] else "no cell"] += 1
    assert min(seen["unmatched"], seen["no cell"]) >= 500, seen


# the failures of local-surface assembly, in the order each surface is checked
CHECKS = ("glued twice", "unglued polygon side", "corner walk left", "Euler characteristic")
KINDS = ("repeat", "drop", "foreign", "move")


def corrupted(c, sigma, e, kind, rng):
    """``sigma`` with the cyclic order at ``e`` corrupted: one face
    repeated or dropped, or a face of another edge put first, staying at
    its own edge or moved from it.  A face put first that also meets
    ``e`` is a repeat."""
    order = sigma[e]
    i = rng.randrange(len(order))
    if kind == "repeat":
        return {**sigma, e: order[: i + 1] + order[i:]}
    if kind == "drop":
        return {**sigma, e: order[:i] + order[i + 1 :]}
    incidences = c.table.incidences
    other = rng.choice([f for f in sorted(incidences) if f != e and incidences[f]])
    inc = rng.choice(incidences[other])
    out = {**sigma, e: (inc, *order)}
    if kind == "move" and sigma[other]:
        out[other] = tuple(x for x in sigma[other] if x != inc)
    return out


def corrupted_systems(c, rng):
    """The canonical system of ``c`` with one cyclic order corrupted in
    each way, and three times as many systems with two corruptions."""
    sigma = canonical_rotation_system(c).sigma
    single = [(e, kind) for e in sorted(sigma) if sigma[e] for kind in KINDS]
    picks = [[s] for s in single]
    if len(single) >= 2:
        picks += [rng.sample(single, 2) for _ in range(3 * len(single))]
    for pick in picks:
        out = sigma
        for e, kind in pick:
            out = corrupted(c, out, e, kind, rng)
        yield RotationSystem(out)


def test_invalid_systems_fail_like_the_reference(complexes):
    """Local surfaces of corrupted rotation systems fail with the
    reference's message, naming the same edge and face that does not
    meet it, or the same surface and the same check.  Every gluing joins
    two sides over one edge, so no corner walk leaves its vertex, and a
    gluing that passes the other checks glues oriented polygons into
    closed orientable surfaces, so no system fails the Euler check."""
    rng = random.Random(5)
    corpus = list(complexes.values()) + randgen_corpus(40) + glued_corpus(40)
    seen = Counter()
    for c in corpus:
        for sigma in corrupted_systems(c, rng):
            mine = outcome(surfaces.local_surfaces, c, sigma)
            assert mine == outcome(ref.local_surfaces, c, sigma)
            if isinstance(mine, list):
                seen["closed"] += 1
            elif mine[0] is InvalidRotationSystemError:
                assert "which does not meet it" in mine[1]
                seen["foreign face"] += 1
            else:
                assert mine[0] is NotClosedSurfaceError
                seen[next(check for check in CHECKS if check in mine[1])] += 1
                seen["after s0"] += not mine[1].endswith(" s0")
    assert sum(seen[k] for k in ("closed", "foreign face", *CHECKS)) >= 4000, seen
    assert min(seen[k] for k in ("closed", "after s0", "foreign face", *CHECKS[:2])) >= 20, seen
