"""The top-level embeddability decision.

A complex embeds in the 3-sphere iff all complexes attached at a cut
vertex do, so the verdict splits at cut vertices (and at connected
components) and combines leaf-block verdicts.  The splits run on vertex
sets read off the blocks of one lowpoint pass, and a complex is built
only for each leaf block: every edge and face goes to the first leaf,
in pre-order, that holds its support, so a loop goes with the faces
through it, and only a piece on a cut vertex alone (a bare loop, or
faces on it alone and their loops) lands in the first leaf holding that
vertex; cut vertices are those of the complex as a space, so no face
crosses two leaves.
Per block: no planar rotation system denies even an orientable
3-manifold; one found plus a certified trivial fundamental group gives
the 3-sphere; trivial F_p homology at some requested prime combined
with nontrivial integral homology denies the 3-sphere; otherwise the
block stays undecided.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DirectedComplex, PreComplex, VertexId, find
from .documents import sigma_to_doc
from .errors import NotPrimeError
from .homology import h1_integral, least_prime_factor, require_prime
from .links import blocks, subcomplexes
from .presentation import Pi1Verdict, check_budget, pi1_trivial_heuristic
from .rotation import RotationSystem
from .search import PrsSearchResult, search_planar_rotation_system
from .tracing import is_planar_rotation_system

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class BlockVerdict:
    path: str
    orientable_3manifold: str
    sphere3: str
    reasons: tuple[str, ...]
    sigma_doc: dict | None
    homology_doc: dict | None
    pi1_doc: dict | None

    def to_doc(self) -> dict:
        doc = {
            "path": self.path,
            "orientable_3manifold": self.orientable_3manifold,
            "sphere3": self.sphere3,
            "reasons": list(self.reasons),
        }
        if self.sigma_doc is not None:
            doc["sigma"] = self.sigma_doc["sigma"]
        if self.homology_doc is not None:
            doc["homology"] = self.homology_doc
        if self.pi1_doc is not None:
            doc["pi1"] = self.pi1_doc
        return doc


@dataclass(frozen=True)
class EmbedVerdict:
    orientable_3manifold: str
    sphere3: str
    reasons: tuple[str, ...]
    blocks: tuple[BlockVerdict, ...]

    def to_doc(self) -> dict:
        return {
            "orientable_3manifold": self.orientable_3manifold,
            "sphere3": self.sphere3,
            "reasons": list(self.reasons),
            "blocks": [b.to_doc() for b in self.blocks],
        }


def _leaf_blocks(c: PreComplex) -> list[tuple[str, PreComplex]]:
    """Split into connected components, then repeatedly at the least
    cut vertex of each piece, keeping a human-readable path label: the
    pieces attached at ``v`` come in turn, in pre-order, piece ``k``
    labeled ``@v.k`` after its parent's path.

    The blocks of one lowpoint pass are joined back at the cut vertices
    from the greatest down: the piece joined at ``v`` is the piece split
    at ``v``, since every other cut vertex in it is greater, and the
    pieces it joins are its parts.  A complex is built only for each
    leaf block, by ``subcomplexes``, or ``c`` itself is the one block.
    """
    found = blocks(c)
    holders: dict[VertexId, list[int]] = {}
    for i, block in enumerate(found):
        for u in block:
            holders.setdefault(u, []).append(i)
    # union-find roots keep their piece's split tree (a block, or a cut
    # vertex and its parts' trees) and its two least vertices
    parent = list(range(len(found)))
    tree: list = list(found)
    least = [sorted(block)[:2] for block in found]
    for v in sorted((u for u, ids in holders.items() if len(ids) > 1), reverse=True):
        roots = [find(parent, i) for i in holders[v]]
        roots.sort(key=lambda r: least[r][least[r][0] == v])  # least other than v
        for r in roots[1:]:
            parent[r] = roots[0]
        tree[roots[0]] = (v, [tree[r] for r in roots])
        least[roots[0]] = sorted({u for r in roots for u in least[r]})[:2]
    components = sorted({find(parent, i) for i in range(len(found))}, key=least.__getitem__)
    stack = [(least[r][0] if len(components) > 1 else "", tree[r]) for r in components[::-1]]
    leaves: list[tuple[str, set[VertexId]]] = []
    while stack:
        path, node = stack.pop()
        if isinstance(node, set):
            leaves.append((path or "whole", node))
        else:
            v, parts = node
            stack.extend(reversed([(f"{path}@{v}.{k}", part) for k, part in enumerate(parts)]))
    if len(leaves) == 1:
        return [(leaves[0][0], c)]
    pieces = subcomplexes(c, [piece for _, piece in leaves])
    return [(path, piece) for (path, _), piece in zip(leaves, pieces)]


def _mixed_prime_reason(null_prime: int, torsion: list[int]) -> str:
    witness = min(least_prime_factor(t) for t in torsion)
    return f"MixedPrimeHomology({null_prime},{witness})"


def _block_verdict(
    path: str,
    block: PreComplex,
    primes: list[int],
    tietze_budget: int,
    cap: int | None,
) -> BlockVerdict:
    prs: PrsSearchResult = search_planar_rotation_system(block, "first", cap)
    if prs.status == "exhausted":
        return BlockVerdict(
            path,
            NO,
            NO,
            ("NoPlanarRotationSystem",),
            None,
            None,
            None,
        )
    sigma: RotationSystem = prs.sigma
    planar, witness = is_planar_rotation_system(block, sigma)
    if not planar:
        raise AssertionError(f"search returned a non-planar system (at {witness!r})")
    reasons = ["PlanarRotationSystemFound"]
    sigma_doc = sigma_to_doc(sigma)

    pi1: Pi1Verdict = pi1_trivial_heuristic(block, tietze_budget)
    if pi1.status == "trivial":
        reasons.append("PlanarPlusSimplyConnected")
        return BlockVerdict(
            path, YES, YES, tuple(reasons), sigma_doc, None, pi1.to_doc()
        )

    betti1, torsion = h1_integral(block)
    homology_doc = {"betti1": betti1, "torsion": list(torsion)}
    if betti1 > 0 or torsion:
        # H_1(F_p) = H_1(Z) (x) F_p: trivial iff betti1 = 0 and p
        # divides no torsion coefficient
        null_prime = next(
            (p for p in primes if betti1 == 0 and all(t % p for t in torsion)), None
        )
        if null_prime is not None:
            reasons.append(_mixed_prime_reason(null_prime, torsion))
            return BlockVerdict(
                path, YES, NO, tuple(reasons), sigma_doc, homology_doc, pi1.to_doc()
            )
    reasons.append("Undecided")
    return BlockVerdict(
        path, YES, UNKNOWN, tuple(reasons), sigma_doc, homology_doc, pi1.to_doc()
    )


def verdict(
    c: PreComplex,
    primes: list[int],
    tietze_budget: int = 100_000,
    cap: int | None = None,
) -> EmbedVerdict:
    """Decide embeddability of ``c`` in an orientable 3-manifold and,
    where the theory allows, in the 3-sphere.  Any other ``c`` than a
    ``DirectedComplex`` is validated as one first.  The primes and the
    Tietze budget are checked before any block is, so a bad one fails
    on every complex."""
    if not primes:
        raise NotPrimeError("at least one prime is required")
    for p in primes:
        require_prime(p)
    check_budget(tietze_budget)
    if not isinstance(c, DirectedComplex):
        DirectedComplex.from_pre(c)

    blocks = [
        _block_verdict(path, block, primes, tietze_budget, cap)
        for path, block in _leaf_blocks(c)
    ]
    orientable = YES if all(b.orientable_3manifold == YES for b in blocks) else NO
    if any(b.sphere3 == NO for b in blocks):
        sphere3 = NO
    elif any(b.sphere3 == UNKNOWN for b in blocks):
        sphere3 = UNKNOWN
    else:
        sphere3 = YES
    reasons: list[str] = []
    for b in blocks:
        for r in b.reasons:
            if r not in reasons:
                reasons.append(r)
    return EmbedVerdict(orientable, sphere3, tuple(reasons), tuple(blocks))
