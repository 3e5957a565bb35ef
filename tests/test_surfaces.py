import itertools
import time

from hypothesis import example, given, strategies as st

from rotsys import (
    DirectedComplex,
    GenParams,
    OrientedFace,
    dual_complex,
    generate_random_complex,
    iota_check,
    local_surfaces,
    surface_duality_check,
    trace_link_complex,
    validate,
)
from rotsys.errors import UnsatisfiableError
from rotsys.rotation import (
    canonical_cycle,
    canonical_rotation_system,
    enumerate_rotation_systems,
)
from rotsys.surfaces import _canon_word, _same_cycle
from rotsys.tracing import CellComplex, link_tracer


def check_orientability(c, surfaces):
    """Every glued edge is traversed forwards by the positive-side
    member and backwards by the negative-side member."""
    from rotsys.surfaces import polygon_refs

    for s in surfaces:
        for g in s.gluings:
            pos_ref = polygon_refs(c, g.pos_member)[g.pos_side]
            neg_ref = polygon_refs(c, g.neg_member)[g.neg_side]
            assert pos_ref.edge == g.edge and pos_ref.sign == 1
            assert neg_ref.edge == g.edge and neg_ref.sign == -1


def check_gluing_multiset(c, surfaces):
    """d gluings mention an edge of degree d >= 2; one for d = 1."""
    mentions = {}
    for s in surfaces:
        for g in s.gluings:
            mentions[g.edge] = mentions.get(g.edge, 0) + 1
    for e, incs in c.edge_incidences().items():
        d = len(incs)
        expected = 1 if d == 1 else d
        assert mentions.get(e, 0) == expected, e


def test_triangle_disc(complexes):
    c = complexes["triangle"]
    (s,) = local_surfaces(c, canonical_rotation_system(c))
    assert len(s.members) == 2
    assert s.chi == 2 and s.genus == 0
    assert len(s.vertices) == 3


def test_tetrahedron_two_sphere_classes(complexes):
    c = complexes["tetrahedron"]
    surfaces = local_surfaces(c, canonical_rotation_system(c))
    assert len(surfaces) == 2
    for s in surfaces:
        assert len(s.members) == 4
        assert s.genus == 0
    # the two classes are the two orientations: no face orientation in both
    seen = set()
    for s in surfaces:
        seen |= set(s.members)
    assert len(seen) == 8


def test_rp2_orientation_double_cover(complexes):
    c = complexes["rp2-6"]
    (s,) = local_surfaces(c, canonical_rotation_system(c))
    assert len(s.members) == 20
    assert len(s.gluings) == 30
    assert len(s.vertices) == 12
    assert s.chi == 2 and s.genus == 0


def test_torus7_two_genus_one_classes(complexes):
    c = complexes["torus-7"]
    surfaces = local_surfaces(c, canonical_rotation_system(c))
    assert len(surfaces) == 2
    for s in surfaces:
        assert len(s.members) == 14
        assert s.chi == 0 and s.genus == 1


def test_invariants_on_fixtures(complexes):
    for name in ("triangle", "tetrahedron", "book3", "rp2-6", "torus-7", "bowtie"):
        c = complexes[name]
        sigma = canonical_rotation_system(c)
        surfaces = local_surfaces(c, sigma)
        check_orientability(c, surfaces)
        check_gluing_multiset(c, surfaces)
        for s in surfaces:
            # connected by construction; the traced complex agrees
            assert len(s.cell_complex().chi_by_component()) == 1


def test_local_surface_as_complex_is_closed(complexes):
    c = complexes["tetrahedron"]
    sigma = canonical_rotation_system(c)
    for s in local_surfaces(c, sigma):
        sc = s.as_complex()
        assert validate(sc) == []
        # closed: every edge of the surface lies in exactly two faces
        for e, incs in sc.edge_incidences().items():
            assert len(incs) == 2, e


def test_local_surface_as_complex_is_linear():
    """Each gluing side finds its member through one dict, not a scan of
    the members: the 40 x 40 grid torus, 3,200 members per surface."""
    import make_fixtures

    c = make_fixtures._grid_surface(40, False)
    surfaces = local_surfaces(c, canonical_rotation_system(c))
    start = time.process_time()
    for s in surfaces:
        s.as_complex()
    assert time.process_time() - start < 0.5


def test_dual_counts(complexes):
    expected = {
        "tetrahedron": (2, 4, 6),
        "rp2-6": (1, 10, 15),
        "torus-7": (2, 14, 21),
        "book3": (1, 3, 7),
    }
    for name, counts in expected.items():
        c = complexes[name]
        d = dual_complex(c, canonical_rotation_system(c)).complex
        assert d.counts() == counts, name
        assert validate(d) == []


def test_duals_of_fixtures_and_randgen_complexes_validate(complexes):
    """``dual_complex`` skips ``validate``: its duals meet the standing
    assumptions by construction, and the validating constructor takes
    them as they are."""
    corpus = list(complexes.values())
    for seed in range(80):
        params = GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=1 + seed % 9)
        try:
            corpus.append(generate_random_complex(params))
        except UnsatisfiableError:
            pass
    checked = 0
    for c in corpus:
        for sigma in itertools.islice(enumerate_rotation_systems(c), 20):
            d = dual_complex(c, sigma).complex
            assert validate(d) == []
            assert DirectedComplex(d.kind, d.vertices, d.edges, d.faces) == d
            checked += 1
    assert checked >= 250


def test_duals_of_a_complex_share_one_rotation_system(complexes):
    """Every dual of a complex, one per rotation system, holds the same
    ``sigma_c`` object: built once per complex, its cyclic order at dual
    edge f the trail of f (empty for a one-edge trail)."""
    corpus = list(complexes.values())
    for seed in range(40):
        params = GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=1 + seed % 9)
        try:
            corpus.append(generate_random_complex(params))
        except UnsatisfiableError:
            pass
    shared = 0
    for c in corpus:
        trails = {
            f: tuple(ref.edge for ref in b.trail) if len(b.trail) >= 2 else ()
            for f, b in c.faces.items()
        }
        duals = [dual_complex(c, s) for s in itertools.islice(enumerate_rotation_systems(c), 8)]
        assert duals[0].sigma_c.sigma == trails
        assert all(d.sigma_c is duals[0].sigma_c for d in duals)
        shared += len(duals) > 1
    assert shared >= 12


def test_dual_incidence_transpose(complexes):
    for name in ("tetrahedron", "book3", "rp2-6", "torus-7"):
        c = complexes[name]
        d = dual_complex(c, canonical_rotation_system(c)).complex
        primal = sorted(
            (ref.edge, f) for f, b in c.faces.items() for ref in b.trail
        )
        # a dual face is a primal edge; its trail runs over primal faces
        dual_inc = [
            (ref.edge, e) for e, b in d.faces.items() for ref in b.trail
        ]
        assert sorted((e, f) for f, e in dual_inc) == primal, name


def test_dual_edge_direction_rule(complexes):
    c = complexes["tetrahedron"]
    dual = dual_complex(c, canonical_rotation_system(c))
    for f in c.faces:
        tail, head = dual.complex.edges[f]
        assert dual.class_of[OrientedFace(f, 1)] == head
        assert dual.class_of[OrientedFace(f, -1)] == tail


def test_dual_sigma_is_valid_rotation_system(complexes):
    from rotsys.rotation import check_rotation_system

    for name in ("tetrahedron", "book3", "rp2-6", "torus-7"):
        c = complexes[name]
        dual = dual_complex(c, canonical_rotation_system(c))
        check_rotation_system(dual.complex, dual.sigma_c)


def test_iota_counts(complexes):
    expected = {"tetrahedron": 8, "book3": 5, "rp2-6": 12}
    for name, n in expected.items():
        c = complexes[name]
        report = iota_check(c, canonical_rotation_system(c))
        assert report.surface_vertices == n
        assert report.link_cells == n
        assert report.matched == n


def test_surface_duality_on_fixtures(complexes):
    for name in ("triangle", "tetrahedron", "book3", "rp2-6", "torus-7"):
        c = complexes[name]
        sigma = canonical_rotation_system(c)
        out = surface_duality_check(c, sigma)
        assert set(out.values()) <= {"direct", "mirror"}, name


def test_duality_check_traces_each_local_surface_once(complexes, monkeypatch):
    """The duality check builds one ``CellComplex`` per local surface, its
    trace; the surface dual's successors come straight off its cells."""
    calls = []
    from_rotators = CellComplex.from_rotators

    def counted(rotators):
        calls.append(len(rotators))
        return from_rotators(rotators)

    monkeypatch.setattr(CellComplex, "from_rotators", staticmethod(counted))
    for name in ("book3", "rp2-6", "torus-7"):
        c = complexes[name]
        sigma = canonical_rotation_system(c)
        dual = dual_complex(c, sigma)
        calls.clear()
        out = surface_duality_check(c, sigma, dual)
        assert len(out) == len(dual.surfaces), name
        assert len(calls) == len(dual.surfaces), name


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12).map(tuple))
@example((0, 1, 0, 2))
@example((0, 1, 0, 1))
@example((1, 0, 2, 0, 2, 1, 0))
def test_canon_word_is_least_rotation_of_either_reading(word):
    """The key equals the least of both readings' least rotations, also
    when the least letter occurs more than once, as in a link cell
    holding both darts of one link edge."""
    assert _canon_word(word) == min(canonical_cycle(word), canonical_cycle(word[::-1]))


LETTERS = st.integers(0, 3)


@st.composite
def word_pairs(draw):
    """A word over at most four letters, so that its least letter often
    repeats, and a second word: any word, or a rotation of the first,
    perhaps read backwards, perhaps with one letter changed."""
    a = draw(st.lists(LETTERS, min_size=1, max_size=10))
    if draw(st.booleans()):
        return a, draw(st.lists(LETTERS, min_size=1, max_size=10))
    r = draw(st.integers(0, len(a) - 1))
    b = a[r:] + a[:r]
    if draw(st.booleans()):
        b.reverse()
    if draw(st.booleans()):
        b[draw(st.integers(0, len(b) - 1))] = draw(LETTERS)
    return a, b


@given(word_pairs())
@example(([0, 1, 0, 2], [0, 2, 0, 1]))
@example(([0, 1, 0, 2], [1, 0, 2, 0]))
@example(([0, 1, 0, 1], [1, 0, 1, 0]))
@example(([1, 0, 2, 0, 2, 1, 0], [0, 1, 2, 0, 2, 0, 1]))
@example(([0, 0, 1], [0, 1, 1]))
@example(([0, 1, 2], [0, 1, 2, 0]))
@example(([3], [3]))
def test_same_cycle_decides_as_canonical_words(pair):
    """``iota_check``'s matcher says two words read one cycle exactly when
    their canonical words are equal."""
    a, b = pair
    assert _same_cycle(a, b) == (_canon_word(tuple(a)) == _canon_word(tuple(b)))


def test_same_cycle_decides_as_canonical_words_on_every_short_word():
    """The same, for every pair of words of up to four letters from
    three."""
    words = [
        list(w) for n in range(1, 5) for w in itertools.product(range(3), repeat=n)
    ]
    for a in words:
        key = _canon_word(tuple(a))
        for b in words:
            assert _same_cycle(a, b) == (key == _canon_word(tuple(b))), (a, b)


def test_iota_check_with_caller_built_tracers(complexes):
    """``iota_check`` given link graphs asked for one by one with
    ``link_tracer``, as a benchmark session holds them, reports what it
    reports when it reads the complex's table itself."""
    corpus = list(complexes.values())
    seed = 0
    while len(corpus) < len(complexes) + 40:
        params = GenParams(seed=seed, n_vertices=4 + seed % 4, target_faces=2 + seed % 9)
        seed += 1
        try:
            corpus.append(generate_random_complex(params))
        except UnsatisfiableError:
            pass
    checked = 0
    for c in corpus:
        tracers = {v: link_tracer(c, v) for v in c.vertices}
        for sigma in itertools.islice(enumerate_rotation_systems(c), 10):
            surfaces = local_surfaces(c, sigma)
            report = iota_check(c, sigma, surfaces, tracers)
            assert report == iota_check(c, sigma, surfaces)
            assert report.matched == report.surface_vertices == report.link_cells
            checked += 1
    assert checked >= 140


def test_identities_across_all_book3_systems(complexes):
    c = complexes["book3"]
    for sigma in enumerate_rotation_systems(c):
        iota_check(c, sigma)
        surface_duality_check(c, sigma)


def test_dual_link_complexes_of_torus_are_tori(complexes):
    c = complexes["torus-7"]
    dual = dual_complex(c, canonical_rotation_system(c))
    from rotsys import is_sphere_union

    for s in dual.surfaces:
        cc = trace_link_complex(dual.complex, dual.sigma_c, s.id)
        assert cc.chi() == 0
        assert (cc.num_vertices(), cc.num_edges(), cc.num_cells()) == (14, 21, 7)
        assert not is_sphere_union(cc)
