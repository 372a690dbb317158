"""Pairwise slice of the protocol parity matrix (``tests/parity.py``).

Twelve cells cover every pair of axis values (app, protocol, faults,
topology, nodes) at least once; each must reproduce its pinned result
digest with the invariant checker on, with and without spans.  The full
48-cell product runs in ``benchmarks/test_parity_matrix.py``.
"""

import itertools

import pytest

from tests.parity import AXES, FULL, PINS, check_spanned_cell, run_digest

#: Four cells per node count: an orthogonal array over app, protocol
#: and faults, with the topology following the app at 1 and 3 nodes and
#: the protocol at 8.
PAIRWISE = (
    ("KVStore", "Base", "off", "crossbar", 1),
    ("KVStore", "GeNIMA", "loss", "crossbar", 1),
    ("Water-spatial", "Base", "loss", "fat-tree", 1),
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 1),
    ("KVStore", "Base", "off", "crossbar", 3),
    ("KVStore", "GeNIMA", "loss", "crossbar", 3),
    ("Water-spatial", "Base", "loss", "fat-tree", 3),
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 3),
    ("KVStore", "Base", "off", "crossbar", 8),
    ("KVStore", "GeNIMA", "loss", "fat-tree", 8),
    ("Water-spatial", "Base", "loss", "crossbar", 8),
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 8),
)


def _pairs(cells):
    return {(i, cell[i], j, cell[j]) for cell in cells
            for i, j in itertools.combinations(range(len(AXES)), 2)}


def test_pins_cover_the_full_product():
    assert set(PINS) == set(FULL)
    assert len(FULL) == 48


def test_slice_is_a_pairwise_cover():
    assert set(PAIRWISE) <= set(FULL)
    assert _pairs(PAIRWISE) == _pairs(FULL)


@pytest.mark.parametrize("cell", PAIRWISE,
                         ids=lambda c: "/".join(map(str, c)))
def test_pairwise_cell_matches_pin(cell):
    assert run_digest(*cell) == PINS[cell]


@pytest.mark.parametrize("cell", PAIRWISE,
                         ids=lambda c: "/".join(map(str, c)))
def test_pairwise_cell_with_spans(cell):
    check_spanned_cell(cell)
