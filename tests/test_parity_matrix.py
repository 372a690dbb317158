"""Pairwise slice of the protocol parity matrix (``tests/parity.py``).

Fifteen cells cover every pair of axis values (app, protocol, faults,
topology, nodes, telemetry) at least once; each must reproduce its
pinned result digest with the invariant checker on, with and without
spans.  The full 96-cell product runs in
``benchmarks/test_parity_matrix.py``.
"""

import itertools

import pytest

from tests.parity import (AXES, FULL, PINS, cell_id, check_spanned_cell,
                          run_digest)

#: Four unsampled cells per node count: an orthogonal array over app,
#: protocol and faults, with the topology following the app at 1 and 3
#: nodes and the protocol at 8.  Three sampled cells pair telemetry with
#: every value of the other axes.
PAIRWISE = (
    ("KVStore", "Base", "off", "crossbar", 1, "off"),
    ("KVStore", "GeNIMA", "loss", "crossbar", 1, "off"),
    ("Water-spatial", "Base", "loss", "fat-tree", 1, "off"),
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 1, "off"),
    ("KVStore", "Base", "off", "crossbar", 3, "off"),
    ("KVStore", "GeNIMA", "loss", "crossbar", 3, "off"),
    ("Water-spatial", "Base", "loss", "fat-tree", 3, "off"),
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 3, "off"),
    ("KVStore", "Base", "off", "crossbar", 8, "off"),
    ("KVStore", "GeNIMA", "loss", "fat-tree", 8, "off"),
    ("Water-spatial", "Base", "loss", "crossbar", 8, "off"),
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 8, "off"),
    ("Water-spatial", "Base", "off", "fat-tree", 1, "on"),
    ("Water-spatial", "GeNIMA", "loss", "crossbar", 3, "on"),
    ("KVStore", "Base", "loss", "fat-tree", 8, "on"),
)


def _pairs(cells):
    return {(i, cell[i], j, cell[j]) for cell in cells
            for i, j in itertools.combinations(range(len(AXES)), 2)}


def test_pins_cover_the_full_product():
    assert set(PINS) == {cell[:5] for cell in FULL}
    assert len(FULL) == 96


def test_slice_is_a_pairwise_cover():
    assert set(PAIRWISE) <= set(FULL)
    assert _pairs(PAIRWISE) == _pairs(FULL)


@pytest.mark.parametrize("cell", PAIRWISE, ids=cell_id)
def test_pairwise_cell_matches_pin(cell):
    assert run_digest(*cell) == PINS[cell[:5]]


@pytest.mark.parametrize("cell", PAIRWISE, ids=cell_id)
def test_pairwise_cell_with_spans(cell):
    check_spanned_cell(cell)
