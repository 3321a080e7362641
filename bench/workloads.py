"""The four workloads: their inputs, the timed job and the checks on its results.

Nothing here imports toricsheaf at module level.  The orchestrator builds
plans and checks results without loading the program; the worker imports
the package in a fresh interpreter and passes it in as ``ts``.

A plan is a JSON object: the workload name, the config files to load and
the twists to evaluate.  The job turns it into a list of results, one per
table cell, ``h^0`` value or polynomial; the checks compare each result
with an independent path of the program, computed outside the timed
region, and with the stored references.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

NAMES = ("h1_table", "cech_threefold", "h0_far_twist", "hilbert_poly")

# Jumps per ray of the seeded rank-2 sheaf on V_1(1, 2), all in [-3, 0].
# Filtration levels depend only on the jumps, so fixing them fixes the
# character boxes and the level tuples -- the amount of work -- for every
# seed; the seed draws the filtration lines.
SEEDED_JUMPS = ((-2, -1), (-3, -1), (-3, -2), (-3, -2), (-2, -1))
REFERENCE_SEED = 0

RANK3_CONFIG = "configs/rank3_h3.json"
H1_GOLDEN = "configs/golden/rank3_h3_h1_table.csv"
POLY_GOLDEN = "configs/golden/rank3_h3_hilbert_poly.txt"
REQUIRED_FILES = ("src/toricsheaf/__init__.py", RANK3_CONFIG, H1_GOLDEN, POLY_GOLDEN)

# O(2 D_rho0 + D_eta0) on V_2(1, 2): a rank-1 fourfold with a closed form
LINE_BUNDLE_CONFIG = {
    "variety": {"family": "split_bundle", "s": 2, "a": [1, 2]},
    "sheaf": {"rank": 1, "filtrations": [{"jumps": [-a]} for a in (2, 0, 0, 1, 0, 0)]},
}


def seeded_sheaf_config(seed: int) -> dict:
    """Rank-2 sheaf on V_1(1, 2): each ray's middle space is a random line."""
    rng = random.Random(seed)
    filtrations = []
    for jumps in SEEDED_JUMPS:
        line = [0, 0]
        while line == [0, 0]:
            line = [rng.randint(-4, 4), rng.randint(-4, 4)]
        filtrations.append({"jumps": list(jumps), "spaces": [[line]]})
    return {
        "variety": {"family": "split_bundle", "s": 1, "a": [1, 2]},
        "sheaf": {"rank": 2, "filtrations": filtrations},
    }


def _grid(p_list, q_list):
    """Twists in CLI table order: rows q descending, columns p ascending."""
    return [[p, q] for q in q_list for p in p_list]


def make_plan(name: str, seed: int, small: bool, root: Path, workdir: Path) -> dict:
    """Write the workload's generated configs and return its plan."""
    def write(stem: str, data: dict) -> str:
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        return str(path)

    plan = {"workload": name, "seed": seed, "small": small, "root": str(root)}
    if name == "h1_table":
        # the criterion-1 table: 81 small twists sharing one engine
        p_list = [2, 3] if small else list(range(2, 11))
        q_list = [4, 3] if small else list(range(4, -5, -1))
        plan.update(configs=[str(root / RANK3_CONFIG)], p_list=p_list, q_list=q_list,
                    twists=_grid(p_list, q_list))
    elif name == "cech_threefold":
        p_list = [0] if small else [0, 1, 2]
        q_list = [0] if small else [1, 0, -1]
        plan.update(configs=[write(f"seeded-{seed}", seeded_sheaf_config(seed))],
                    twists=_grid(p_list, q_list))
    elif name == "h0_far_twist":
        plan.update(configs=[write(f"seeded-{seed}", seeded_sheaf_config(seed))],
                    twists=[[4, 4]] if small else [[16, 16]])
    elif name == "hilbert_poly":
        configs = [str(root / RANK3_CONFIG)]
        if not small:
            configs.append(write("line-bundle-v2", LINE_BUNDLE_CONFIG))
        plan.update(configs=configs)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return plan


def result_count(plan: dict) -> int:
    return len(plan["configs"]) if plan["workload"] == "hilbert_poly" else len(plan["twists"])


# -- in the worker -----------------------------------------------------------

def setup(ts, plan: dict):
    """Load and validate the configs; build the engine the job evaluates."""
    sheaves = []
    for path in plan["configs"]:
        cfg = ts.load_config(path)
        problems = ts.validate(cfg.sheaf)
        if problems:
            raise ValueError(f"{path}: invalid sheaf: {problems}")
        sheaves.append(cfg.sheaf)
    if plan["workload"] == "hilbert_poly":
        return sheaves
    return ts.SheafCohomology(sheaves[0])


def _poly_text(ts, poly) -> str:
    return "P(p, q) = " + ts.format_polynomial(poly, ("p", "q"))


def job(ts, plan: dict, state, emit) -> None:
    """The timed work; ``emit`` receives each result as soon as it exists."""
    name = plan["workload"]
    if name == "hilbert_poly":
        for sheaf in state:
            emit(_poly_text(ts, ts.hilbert_polynomial(sheaf)))
        return
    for c in plan["twists"]:
        if name == "h1_table":
            emit(state.cech_twisted(c)[1])
        elif name == "cech_threefold":
            emit(list(state.cech_twisted(c)))
        else:
            emit(state.h0_twisted(c))


def independent(ts, plan: dict) -> list:
    """Each result again, by a path of the program the job does not take."""
    name = plan["workload"]
    sheaves = [ts.load_config(path).sheaf for path in plan["configs"]]
    if name == "hilbert_poly":
        return [
            _poly_text(ts, ts.rank1_hilbert_polynomial(s)) if s.rank == 1 else None
            for s in sheaves
        ]
    if name == "h0_far_twist":
        return [ts.hilbert_function(sheaves[0], c) for c in plan["twists"]]
    engine = ts.SheafCohomology(sheaves[0])
    if name == "h1_table":
        return [engine.h1_identity_twisted(c) for c in plan["twists"]]
    return [
        [engine.h0_twisted(c), engine.hn_twisted(c), engine.chi_twisted(c)]
        for c in plan["twists"]
    ]


# -- in the orchestrator -----------------------------------------------------

def render_table(plan: dict, values: list) -> str:
    """The CSV the CLI's cohomology-table prints for these cells."""
    p_list, q_list = plan["p_list"], plan["q_list"]
    lines = ["q\\p," + ",".join(str(p) for p in p_list)]
    for row, q in enumerate(q_list):
        cells = values[row * len(p_list):(row + 1) * len(p_list)]
        lines.append(f"{q}," + ",".join(str(v) for v in cells))
    return "\n".join(lines) + "\n"


def load_reference(path: Path, plan: dict) -> list | None:
    """Stored results for this workload and seed, if any."""
    if plan["small"] or not path.exists():
        return None
    table = json.loads(path.read_text()).get(plan["workload"], {})
    return table.get(str(plan["seed"]), table.get("any"))


def check(plan: dict, results: list, other: list, reference: list | None) -> list[bool]:
    """Per result: does it agree with the independent path and the references?"""
    name = plan["workload"]
    root = Path(plan["root"])
    ok = []
    for i, (r, o) in enumerate(zip(results, other)):
        if name == "cech_threefold":
            h0, hn, chi = o
            alternating = sum((-1) ** k * h for k, h in enumerate(r))
            good = r[0] == h0 and r[-1] == hn and alternating == chi
        elif name == "hilbert_poly" and o is None:
            # no closed form for rank > 1: the golden file is the check
            good = (root / POLY_GOLDEN).read_text() == r + "\n"
        else:
            good = r == o
        if reference is not None:
            good = good and r == reference[i]
        ok.append(good)
    if name == "h1_table" and not plan["small"] and len(results) == len(plan["twists"]):
        if render_table(plan, results) != (root / H1_GOLDEN).read_text():
            ok = [False] * len(ok)
    return ok
