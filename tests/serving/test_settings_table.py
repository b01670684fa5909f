"""``docs/architecture.md``'s serving-settings table matches the code.

The table names, per settable field of the serving tier, the test that
fails with the field pinned to its default.  A field added or deleted
without its row, or an owning test renamed or deleted without the row
following it, fails here.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig
from repro.net import RetryPolicy
from repro.obs import HealthPolicy
from repro.serving import GatewayConfig

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = (GatewayConfig, ClusterConfig, RetryPolicy, HealthPolicy)


def _rows():
    """``{"Class.field": owning test id}`` from the settings table."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    section = text.split("## Serving settings", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        field, owner = cells[0].strip("`"), cells[3].strip("`")
        assert field not in rows, f"{field} has two rows"
        rows[field] = owner
    return rows


ROWS = _rows()


def test_rows_are_the_config_fields():
    fields = {
        f"{config.__name__}.{field.name}"
        for config in CONFIGS
        for field in dataclasses.fields(config)
        if field.init
    }
    assert set(ROWS) == fields


def _defines(tree: ast.Module, names):
    """Whether ``names`` (``[Class, ]function``) is defined in ``tree``."""
    body = tree.body
    for name in names:
        found = [
            node
            for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("field", sorted(ROWS))
def test_owning_test_exists(field):
    path, *names = re.sub(r"\[.*\]$", "", ROWS[field]).split("::")
    assert names, f"{field}: no owning test named"
    assert (ROOT / path).is_file(), f"{field}: {path} does not exist"
    tree = ast.parse((ROOT / path).read_text())
    assert _defines(tree, names), f"{field}: {ROWS[field]} is not defined"
