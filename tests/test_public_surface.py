"""The package's public surface is what the program uses.

Every module-level public function or class in src/skysched must be named
somewhere in src/skysched outside its own definition, or be listed in
DOCUMENTED_API with the reason it stays without a caller in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skysched"

DOCUMENTED_API = (
    ("channel", "v2u_path_loss", "one-link path loss the acceptance tests and skybench's link counts call"),
    ("channel", "v2v_path_loss", "one-link path loss the acceptance tests and skybench's link counts call"),
    ("channel", "age_fading", "one-link aging step the acceptance tests and skybench's link counts call"),
    ("lyapunov", "check_queue_step_bound", "the sample-path inequality the acceptance tests check"),
    ("lyapunov", "check_quadratic_drift_bound", "the quadratic drift inequality the acceptance tests check"),
    ("mobility", "write_trace", "writes the trace format that load_trace reads"),
    ("neural", "save_checkpoint", "net-level checkpoint file, documented in the README"),
    ("neural", "load_checkpoint", "net-level checkpoint file, documented in the README"),
    ("cli", "main", "the skysched console-script entry point"),
)


def public_definitions(trees):
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def users_by_name(trees):
    """Name -> the (module, top-level statement name) pairs that use it, as a
    plain name or an attribute; an import alone is not a use."""
    users = {}
    for module, tree in trees.items():
        for statement in tree.body:
            owner = (module, getattr(statement, "name", None))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add(owner)
    return users


def test_every_public_name_is_used_or_documented():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = public_definitions(trees)
    documented = {(module, name) for module, name, _ in DOCUMENTED_API}
    assert documented <= defined, f"DOCUMENTED_API names no definition: {sorted(documented - defined)}"
    users = users_by_name(trees)
    unused = sorted(d for d in defined - documented if not users.get(d[1], set()) - {d})
    assert unused == [], f"public names nothing in src/skysched uses: {unused}"
