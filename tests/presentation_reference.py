"""The Tietze simplifier as it scanned before it was indexed: the oracle
of ``tests/test_presentation.py``.

Every elimination recounts every alive generator in every relator and
substitutes into every relator; the length-reducing pass tries every
rotation of every relator against every other relator with a naive
cyclic subword search.  ``rotsys.presentation.pi1_trivial_heuristic``
must take the same step at every point and so return an equal
``Pi1Verdict``.  The optional ``paths`` counter adds up the
length-reducing rewrites, the eliminations that overran the budget and
how many of those a rewrite then followed, so tests can see each path
taken.

Run as a script to (re)write ``tests/golden/pi1_grid_surfaces.json``:
this function's verdicts on the n x n grid tori and Klein bottles,
n = 4 to 20, at every budget of ``BUDGETS``.  Replaying it takes the
library milliseconds and this function minutes.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from make_fixtures import _grid_surface

from rotsys.complexes import PreComplex
from rotsys.errors import NotConnectedError
from rotsys.presentation import (
    Pi1Verdict,
    Word,
    check_budget,
    cyclic_reduce,
    face_words,
    free_reduce,
    invert,
    spanning_tree_edges,
)

BUDGETS = (0, 1, 17, 1_000, 100_000)
GRID_SIZES = range(4, 21)
RECORDED = Path(__file__).resolve().parent / "golden" / "pi1_grid_surfaces.json"


def grid_surfaces(sizes=GRID_SIZES) -> dict:
    """The n x n grid torus and Klein bottle per n, by name."""
    return {
        f"{kind}-{n}": _grid_surface(n, kind == "klein")
        for n in sizes
        for kind in ("torus", "klein")
    }


def _substitute(word: Word, g: int, value: Word) -> Word:
    out: list[int] = []
    for x in word:
        if x == g:
            out.extend(value)
        elif x == -g:
            out.extend(invert(value))
        else:
            out.append(x)
    return free_reduce(tuple(out))


def _find_subword(haystack: Word, needle: Word) -> int | None:
    n, k = len(haystack), len(needle)
    if k == 0 or k > n:
        return None
    doubled = haystack + haystack
    for i in range(n):
        if doubled[i : i + k] == needle:
            return i
    return None


def _replace_cyclic(word: Word, start: int, length: int, repl: Word) -> Word:
    n = len(word)
    if start + length <= n:
        return cyclic_reduce(word[:start] + repl + word[start + length :])
    wrap = start + length - n
    return cyclic_reduce(repl + word[wrap:start])


def pi1_trivial_heuristic(
    c: PreComplex, budget: int = 100_000, paths: Counter | None = None
) -> Pi1Verdict:
    if paths is None:
        paths = Counter()
    check_budget(budget)
    if not c.is_connected():
        raise NotConnectedError("pi1 heuristic requires a connected complex")
    tree = spanning_tree_edges(c)
    generators = [e for e in sorted(c.edges) if e not in tree]
    generator_index = {e: i + 1 for i, e in enumerate(generators)}
    relators = [cyclic_reduce(w) for w in face_words(c, generator_index)]
    n_gens_before = len(generators)
    n_rels_before = len(relators)

    alive = set(generator_index.values())
    steps = 0

    def spend(n: int = 1) -> bool:
        nonlocal steps
        steps += n
        return steps <= budget

    overran = False
    changed = True
    while changed and steps <= budget:
        changed = False
        relators = [r for r in relators if r]

        for idx, r in enumerate(relators):
            target = None
            for g in sorted(alive):
                occurrences = sum(1 for x in r if abs(x) == g)
                if occurrences == 1:
                    target = g
                    break
            if target is None:
                continue
            pos = next(i for i, x in enumerate(r) if abs(x) == target)
            rotated = r[pos:] + r[:pos]
            if rotated[0] < 0:
                rotated = invert(rotated)
                pos = next(i for i, x in enumerate(rotated) if abs(x) == target)
                rotated = rotated[pos:] + rotated[:pos]
            value = invert(rotated[1:])
            del relators[idx]
            relators = [cyclic_reduce(_substitute(w, target, value)) for w in relators]
            alive.discard(target)
            if not spend(1 + len(relators)):
                overran = True
                paths["overrun"] += 1
                break
            changed = True
            break
        if changed:
            continue

        for i, r in enumerate(relators):
            if len(r) < 2:
                continue
            applied = False
            for variant in (r, invert(r)):
                for rot in range(len(variant)):
                    u = variant[rot:] + variant[:rot]
                    cut = len(u) // 2 + 1
                    w, t = u[:cut], u[cut:]
                    for j, s in enumerate(relators):
                        if j == i or len(s) < len(w):
                            continue
                        hit = _find_subword(s, w)
                        if hit is None:
                            continue
                        relators[j] = _replace_cyclic(s, hit, len(w), invert(t))
                        spend()
                        applied = True
                        break
                    if applied:
                        break
                if applied:
                    break
            if applied:
                changed = True
                paths["rewrite"] += 1
                if overran:
                    paths["overrun, then a rewrite"] += 1
                break

    relators = [r for r in relators if r]
    status = "trivial" if not alive else "unknown"
    return Pi1Verdict(
        status=status,
        generators_before=n_gens_before,
        generators_after=len(alive),
        relators_before=n_rels_before,
        relators_after=len(relators),
        steps_used=min(steps, budget),
        budget=budget,
    )


if __name__ == "__main__":
    recorded = {
        name: {str(b): pi1_trivial_heuristic(c, b).to_doc() for b in BUDGETS}
        for name, c in grid_surfaces().items()
    }
    RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {len(recorded)} surfaces to {RECORDED}")
