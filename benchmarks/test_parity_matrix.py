"""The full protocol parity matrix: all 96 cells of ``tests/parity.py``
(2 apps x 2 protocols x 2 fault settings x 2 topologies x 3 node
counts x telemetry off/on) reproduce their pinned result digests with
invariant checks on, and again with spans (critical path and sanitizer
clean).
"""

import pytest

from tests.parity import FULL, PINS, cell_id, check_spanned_cell, run_digest


@pytest.mark.parametrize("cell", FULL, ids=cell_id)
def test_parity_cell_matches_pin(cell):
    assert run_digest(*cell) == PINS[cell[:5]]


@pytest.mark.parametrize("cell", FULL, ids=cell_id)
def test_parity_cell_with_spans(cell):
    check_spanned_cell(cell)
