"""A sound but partial triviality test for the fundamental group.

The presentation collapses a spanning tree of the 1-skeleton:
generators are the non-tree edges, relators the face boundary words.
Simplification applies Tietze moves only, so a "trivial" answer is
always correct; anything else comes back "unknown".  Relators stay
freely and cyclically reduced.  Each round takes one step:

- eliminate a generator: in the first relator where some generator
  occurs exactly once, the least such one, solved for and substituted
  into every relator holding it; this costs one step plus one per other
  relator;
- else, one length-reducing substitution (one step): for the first
  relator r, its first variant (r, then r inverted) and rotation
  u = w t with w longer than half of u, the first other relator holding
  w cyclically gets w replaced by t inverted.

Rounds stop when neither applies or the steps exceed the budget; an
elimination that overruns the budget is still followed by the search
for one length-reducing substitution.  Triviality of presentations is
undecidable, hence the budget.  The steps are found through indices:
letter counts per relator, the relators holding each generator and a
heap of the relators with a letter that occurs once.  An elimination
costs about the size of the relators it rewrites, and the
length-reducing search tries only the relators holding the first
letter of w.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush

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
        for ref in c.faces[f]:
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


def _find_subword(haystack: Word, needle: Word) -> int | None:
    """Start index of the first cyclic occurrence of the nonempty
    ``needle`` in ``haystack`` (scanning the doubled word); None when
    absent."""
    doubled = haystack + haystack
    i = -1
    while True:
        try:
            i = doubled.index(needle[0], i + 1, len(haystack))
        except ValueError:
            return None
        if doubled[i : i + len(needle)] == needle:
            return i


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


def _shorten(relators: list[Word], holders: dict[int, set[int]]) -> tuple[int, Word] | None:
    """The first length-reducing substitution of the module docstring,
    as (index, rewritten relator), or None.  Only the relators that hold
    the first letter of w (``holders``) are searched, in index order."""
    ascending: dict[int, list[int]] = {}
    for i, r in enumerate(relators):
        if len(r) < 2:
            continue
        for variant in (r, invert(r)):
            for rot in range(len(variant)):
                u = variant[rot:] + variant[:rot]
                cut = len(u) // 2 + 1
                w, t = u[:cut], u[cut:]
                g = abs(w[0])
                if g not in ascending:
                    ascending[g] = sorted(holders[g])
                for j in ascending[g]:
                    s = relators[j]
                    if j == i or len(s) < cut:
                        continue
                    hit = _find_subword(s, w)
                    if hit is not None:
                        return j, _replace_cyclic(s, hit, cut, invert(t))
    return None


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
    words = [cyclic_reduce(w) for w in face_words(c, generator_index)]
    alive = set(generator_index.values())

    # Relators keep their slots; a deleted or emptied one reads ().
    # Per slot, the occurrences of each generator; per generator, the
    # slots holding it; and a heap of the slots that held a generator
    # exactly once when last written (stale entries are skipped).
    relators: list[Word] = [()] * len(words)
    counts: list[Counter] = [Counter() for _ in words]
    holders: dict[int, set[int]] = {g: set() for g in alive}
    singles: list[int] = []
    live = 0  # nonempty relators

    def write(i: int, word: Word) -> None:
        nonlocal live
        live += bool(word) - bool(relators[i])
        for g in counts[i]:
            holders[g].discard(i)
        relators[i] = word
        counts[i] = Counter(abs(x) for x in word)
        for g in counts[i]:
            holders[g].add(i)
        if 1 in counts[i].values():
            heappush(singles, i)

    for i, w in enumerate(words):
        write(i, w)
    steps = 0

    def spend(n: int = 1) -> bool:
        nonlocal steps
        steps += n
        return steps <= budget

    changed = True
    while changed and steps <= budget:
        changed = False

        # eliminate the least generator occurring exactly once in the
        # first relator that has one
        while singles and 1 not in counts[singles[0]].values():
            heappop(singles)
        if singles:
            idx = heappop(singles)
            r = relators[idx]
            target = min(g for g, n in counts[idx].items() if n == 1)
            pos = r.index(target) if target in r else r.index(-target)
            rest = r[pos + 1 :] + r[:pos]
            value = invert(rest) if r[pos] > 0 else rest  # g rest = 1 or g^-1 rest = 1
            cost = live  # one step, plus one per other relator
            write(idx, ())
            for j in list(holders[target]):
                write(j, cyclic_reduce(_substitute(relators[j], target, value)))
            del holders[target]
            alive.discard(target)
            if spend(cost):
                changed = True
                continue
            # over budget: the search for one substitution still runs

        # length-reducing substitution: a subword longer than half of
        # another relator can be rewritten through it
        rewrite = _shorten(relators, holders)
        if rewrite is not None:
            write(*rewrite)
            spend()
            changed = True

    status = "trivial" if not alive else "unknown"
    return Pi1Verdict(
        status=status,
        generators_before=len(generators),
        generators_after=len(alive),
        relators_before=len(words),
        relators_after=live,
        steps_used=min(steps, budget),
        budget=budget,
    )
