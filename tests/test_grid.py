from __future__ import annotations

import numpy as np
import pytest

from hjj import SolutionField, make_grid


def _reference_csv(field: SolutionField) -> str:
    """One f-string per row, as t,x,u."""
    order = field._node_order()
    labels = field.node_labels()
    rows = ["t,x,u"]
    for n, t in enumerate(field.times):
        for lab, k in zip(labels, order):
            rows.append(f"{float(t):.17g},{lab},{float(field.values[n][k]):.17g}")
    return "\n".join(rows) + "\n"


def _reference_tsv(field: SolutionField, t_requested: float) -> str:
    n = field.grid.level_index(t_requested)
    rows = [f"# t_requested={float(t_requested):.17g}\tt_grid={float(field.times[n]):.17g}",
            "x\tu"]
    for lab, k in zip(field.node_labels(), field._node_order()):
        rows.append(f"{lab}\t{float(field.values[n][k]):.17g}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("radii,line", [((0.7, 0.5), True), ((0.3, 0.5, 0.2), False)],
                         ids=["line", "star"])
def test_csv_and_snapshot_are_byte_equal_to_per_row_formatting(radii, line):
    grid = make_grid(0.1, 0.3, radii, c2=1.0)
    rng = np.random.default_rng(83)
    values = rng.normal(scale=1e3, size=(grid.steps + 1, grid.n_nodes)) / 7.0
    values[0, :3] = [-0.0, 0.0, 1e-300]
    values[1, 1] = np.inf
    values[-1, -1] = -0.0
    field = SolutionField(grid, values, line=line)
    assert field.to_csv() == _reference_csv(field)
    assert ",-0\n" in field.to_csv()
    for t in (0.0, 0.13, 0.3):
        assert field.to_snapshot_tsv(t) == _reference_tsv(field, t)
