"""Crossing words for Klein-bottle obstructions.

A family of winding numbers over {1, 2} gets one letter per winding-1
class and a primed pair per winding-2 class.  The family is admissible
when the letters can be arranged into a word, each used exactly once,
such that (i) swapping every pair n <-> n' yields the word itself or
its reverse, and (ii) every two pairs interleave around the circle.

Words are compared cyclically by default; the linear reading is kept
behind a flag.  Requirement (ii) is what makes the four-letter case
unique: of the swap-symmetric arrangements of two pairs only the
crossing one qualifies, and no five-letter word over one single and
two pairs survives both requirements.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import TooLargeError
from .rotation import canonical_cycle

# the most letters a search may order, 11 read cyclically or 10 linearly: 10!
# orders, 10-16 s of CPU time on a Xeon core (Python 3.11) if no word exists
MAX_LETTERS = 11

_SINGLE_LETTERS = ("X", "Y", "Z", "U", "V", "W", "R", "S", "T")


def _letters(windings: Sequence[int]) -> tuple[list[str], dict[str, str], list[tuple[str, str]]]:
    ones = sum(1 for w in windings if w == 1)
    twos = sum(1 for w in windings if w == 2)
    if ones + twos != len(windings) or not windings:
        raise ValueError("windings must be a nonempty multiset over {1, 2}")
    if ones > len(_SINGLE_LETTERS):
        raise ValueError(f"at most {len(_SINGLE_LETTERS)} winding-1 entries supported")
    letters = list(_SINGLE_LETTERS[:ones])
    swap: dict[str, str] = {x: x for x in letters}
    pairs: list[tuple[str, str]] = []
    for i in range(1, twos + 1):
        a, b = str(i), f"{i}'"
        letters += [a, b]
        swap[a], swap[b] = b, a
        pairs.append((a, b))
    return letters, swap, pairs


def _swap_symmetric(word: tuple[str, ...], swap: dict[str, str], cyclic: bool) -> bool:
    swapped = tuple(swap[x] for x in word)
    rev = tuple(reversed(word))
    if cyclic:
        key = canonical_cycle(swapped)
        return key == canonical_cycle(word) or key == canonical_cycle(rev)
    return swapped == word or swapped == rev


def _pairs_interleave(word: tuple[str, ...], pairs: list[tuple[str, str]]) -> bool:
    pos = {x: i for i, x in enumerate(word)}
    for (a, a2), (b, b2) in itertools.combinations(pairs, 2):
        lo, hi = sorted((pos[a], pos[a2]))
        inside = sum(1 for x in (b, b2) if lo < pos[x] < hi)
        if inside != 1:
            return False
    return True


def klein_word_admissible(
    windings: Sequence[int], cyclic: bool = True
) -> str | None:
    """Search all words over the letters of ``windings`` and return one
    satisfying both requirements, or None when no such word exists."""
    letters, swap, pairs = _letters(windings)
    limit = MAX_LETTERS if cyclic else MAX_LETTERS - 1
    if len(letters) > limit:
        raise TooLargeError(f"{len(letters)} letters, more than the limit of {limit}")
    if cyclic:
        first, rest = letters[0], letters[1:]
        candidates = ((first, *perm) for perm in itertools.permutations(rest))
    else:
        candidates = itertools.permutations(letters)
    for word in candidates:
        if _pairs_interleave(word, pairs) and _swap_symmetric(word, swap, cyclic):
            return "".join(word)
    return None
