"""A sound but partial triviality test for the fundamental group.

The presentation collapses a spanning tree of the 1-skeleton:
generators are the non-tree edges, relators the face boundary words.
Simplification applies Tietze moves only (free and cyclic reduction,
elimination of a generator that occurs exactly once in some relator,
length-reducing substitution of long relator subwords), so a "trivial"
answer is always correct; anything else comes back "unknown".
Triviality of presentations is undecidable, hence the step budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .complexes import PreComplex
from .errors import NotConnectedError, RotsysError

Word = tuple[int, ...]  # nonzero generator indices, sign = direction


@dataclass(frozen=True)
class Pi1Verdict:
    status: str  # "trivial" | "unknown"
    generators_before: int
    generators_after: int
    relators_before: int
    relators_after: int
    steps_used: int
    budget: int

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "generators_before": self.generators_before,
            "generators_after": self.generators_after,
            "relators_before": self.relators_before,
            "relators_after": self.relators_after,
            "steps_used": self.steps_used,
            "budget": self.budget,
        }


def spanning_tree_edges(c: PreComplex) -> set[str]:
    """BFS spanning tree from the least vertex, ties by edge id."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in c.vertices}
    for e in sorted(c.edges):
        tail, head = c.edges[e]
        if tail != head:
            adj[tail].append((head, e))
            adj[head].append((tail, e))
    tree: set[str] = set()
    seen = {min(c.vertices)}
    queue = deque(sorted(seen))
    while queue:
        u = queue.popleft()
        for w, e in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.add(e)
                queue.append(w)
    return tree


def face_words(c: PreComplex, generator_index: dict[str, int]) -> list[Word]:
    words = []
    for f in sorted(c.faces):
        word = []
        for ref in c.faces[f].trail:
            g = generator_index.get(ref.edge)
            if g is not None:
                word.append(g * ref.sign)
        words.append(tuple(word))
    return words


def free_reduce(word: Word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word: Word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


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


def _find_subword(haystack: Word, needle: Word, cyclic: bool) -> int | None:
    """Start index of ``needle`` in ``haystack`` (scanning the doubled
    word when cyclic); None when absent."""
    n, k = len(haystack), len(needle)
    if k == 0 or k > n:
        return None
    doubled = haystack + haystack if cyclic else haystack
    limit = n if cyclic else n - k + 1
    for i in range(limit):
        if doubled[i : i + k] == needle:
            return i
    return None


def _replace_cyclic(word: Word, start: int, length: int, repl: Word) -> Word:
    """Replace ``length`` letters starting at ``start`` in the cyclic
    word by ``repl``."""
    n = len(word)
    if start + length <= n:
        return cyclic_reduce(word[:start] + repl + word[start + length :])
    wrap = start + length - n
    return cyclic_reduce(repl + word[wrap:start])


def check_budget(budget: int) -> None:
    """Raise unless ``budget`` is a valid Tietze step budget."""
    if budget < 0:
        raise RotsysError(f"tietze budget must be >= 0, got {budget}")


def pi1_trivial_heuristic(c: PreComplex, budget: int = 100_000) -> Pi1Verdict:
    """Try to certify that the fundamental group of ``c`` is trivial.

    Returns "trivial" only when simplification eliminates every
    generator; never reports a false trivial.
    """
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

    changed = True
    while changed and steps <= budget:
        changed = False
        relators = [r for r in relators if r]

        # eliminate a generator occurring exactly once in some relator
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
            value = invert(rotated[1:])  # g = (rest)^-1
            del relators[idx]
            relators = [cyclic_reduce(_substitute(w, target, value)) for w in relators]
            alive.discard(target)
            if not spend(1 + len(relators)):
                break
            changed = True
            break
        if changed:
            continue

        # length-reducing substitution: a subword longer than half of
        # another relator can be rewritten through it
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
                        hit = _find_subword(s, w, cyclic=True)
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
