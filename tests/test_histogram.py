"""The run-counted level-tuple histogram against a visit of every character."""
from __future__ import annotations

import random
from collections import Counter
from math import prod

import pytest

from toricsheaf import SheafCohomology, hirzebruch, projective_space, split_bundle

from conftest import random_sheaf

# V_1(1, 2) and V_1(1, 3) give the last coordinate slopes 2 and 3
VARIETIES = {
    "P1": (projective_space(1), (-4, 0, 5)),
    "P2": (projective_space(2), (-3, 0, 4)),
    "P3": (projective_space(3), (-2, 0, 2)),
    "H0": (hirzebruch(0), ((-2, 1), (0, 0), (3, 2))),
    "H3": (hirzebruch(3), ((1, -2), (0, 0), (4, 2))),
    "V1_12": (split_bundle(1, (1, 2)), ((-1, 1), (0, 0), (2, 1))),
    "V1_13": (split_bundle(1, (1, 3)), ((1, -1), (0, 0), (2, 2))),
    "V2_1": (split_bundle(2, (1,)), ((-1, 0), (0, 0), (1, 1))),
}


def per_character_histogram(engine: SheafCohomology, c) -> Counter:
    box, shifts = engine._twist_setup(c)
    return Counter(engine.levels(m, shifts) for m in box.points())


@pytest.mark.parametrize("name", sorted(VARIETIES))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_histogram_matches_per_character_count(name, rank):
    variety, twists = VARIETIES[name]
    rng = random.Random(f"{name}-{rank}")
    for c in twists:
        c = c if isinstance(c, tuple) else (c,)
        engine = SheafCohomology(random_sheaf(rng, variety, rank, -3, 0))
        hist = engine.histogram(c)
        assert hist == per_character_histogram(engine, c)
        box, _ = engine._twist_setup(c)
        assert sum(hist.values()) == prod(hi - lo + 1 for lo, hi in zip(box.lower, box.upper))
