"""The full protocol parity matrix: all 48 cells of ``tests/parity.py``
(2 apps x 2 protocols x 2 fault settings x 2 topologies x 3 node
counts) reproduce their pinned result digests with invariant checks on,
and again with spans (critical path and sanitizer clean).
"""

import pytest

from tests.parity import FULL, PINS, check_spanned_cell, run_digest


@pytest.mark.parametrize("cell", FULL, ids=lambda c: "/".join(map(str, c)))
def test_parity_cell_matches_pin(cell):
    assert run_digest(*cell) == PINS[cell]


@pytest.mark.parametrize("cell", FULL, ids=lambda c: "/".join(map(str, c)))
def test_parity_cell_with_spans(cell):
    check_spanned_cell(cell)
