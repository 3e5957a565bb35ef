import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from make_fixtures import BUILDERS, FIXTURE_DIR  # noqa: E402

from rotsys import GenParams  # noqa: E402

# the randomized suites read their base seed from the environment so a
# CI failure is reproducible by exporting the same SEED
SEED_BASE = int(os.environ.get("SEED", "1000"))


@pytest.fixture(scope="session")
def fixture_files():
    """The committed fixture directory, read as it is: the suite does not
    rewrite it, so `test_fixtures_are_their_builders_output` sees drift."""
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def complexes():
    return {name: build() for name, build in BUILDERS.items()}


def corpus_params(i: int) -> GenParams:
    """Parameters of the i-th corpus instance: bulk instances with small
    face counts, a dense band on five vertices, a moderate band on six,
    and every fiftieth a stress instance whose rotation-system space
    exceeds the enumeration cap."""
    if i % 50 == 41:
        return GenParams(seed=SEED_BASE + i, n_vertices=6, face_probability=0.62)
    r = i % 10
    if r < 7:
        n = 3 + (i % 6)
        max_faces = {3: 1, 4: 4, 5: 8, 6: 12, 7: 14, 8: 16}[n]
        target = 1 + (i * 7 + 3) % max_faces
        return GenParams(seed=SEED_BASE + i, n_vertices=n, target_faces=target)
    if r < 9:
        q = (0.6, 0.75, 0.9)[i % 3]
        return GenParams(seed=SEED_BASE + i, n_vertices=5, face_probability=q)
    return GenParams(seed=SEED_BASE + i, n_vertices=6, face_probability=0.4)


CORPUS_SIZE = 520
SIGMA_CAP = 10_000
