"""The inline Python scripts of the CI workflow still match the library.

Each ``python3 - <<'PY'`` block of ``.github/workflows/tests.yml`` runs only
in CI, and some read private names of the library or the engine.  This
test compiles every block, checks that every name a block imports from
``toricsheaf`` or from the test oracles exists, and that every attribute a
block reads on an engine exists on a ``SheafCohomology``.
"""
import ast
import importlib
import textwrap
from pathlib import Path

from toricsheaf import SheafCohomology, projective_space, structure_sheaf

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
ORACLES = ("cech_oracle", "linalg_oracle", "vertex_oracle")


def inline_scripts() -> list[str]:
    """The body of every heredoc ``python3 - <<'PY'`` ... ``PY``, dedented."""
    scripts, body = [], None
    for line in WORKFLOW.read_text().splitlines():
        if body is None:
            if line.strip().endswith("python3 - <<'PY'"):
                body = []
        elif line.strip() == "PY":
            scripts.append(textwrap.dedent("\n".join(body)))
            body = None
        else:
            body.append(line)
    assert body is None, "a heredoc of the workflow is not closed"
    return scripts


def test_inline_scripts_import_and_read_only_names_that_exist():
    scripts = inline_scripts()
    assert scripts
    engine = SheafCohomology(structure_sheaf(projective_space(2)))
    imported, engine_reads = 0, set()
    for script in scripts:
        compile(script, str(WORKFLOW), "exec")
        tree = ast.parse(script)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.module == "toricsheaf" or node.module.startswith("toricsheaf.")
                or node.module in ORACLES
            ):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                    imported += 1
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "engine"):
                engine_reads.add(node.attr)
    assert imported
    # the private engine names the scripts read; a rename must reach them
    assert {"_twist_setup", "_walk", "_support_bounds"} <= engine_reads
    for attr in sorted(engine_reads):
        assert hasattr(engine, attr), f"SheafCohomology.{attr}"
