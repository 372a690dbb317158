"""The protocol parity matrix: KVStore and Water-spatial under Base and
GeNIMA, with and without packet loss, on a crossbar and a fat-tree, at
1, 3 and 8 nodes, with and without the telemetry sampler, each run
with the runtime invariant checker on.

Every cell's :func:`repro.runtime.parallel.encode_result` is pinned by
its sha256: a change meant to leave the simulation alone (a host-path
optimisation) must reproduce every digest.  Sampling is
schedule-neutral, so a sampled cell, its telemetry summary set aside,
reproduces the pin of its unsampled twin.  Rerun with spans into a
tracer, a cell must reproduce the same digest (spans do not change the
schedule), its critical path must telescope to the wall time and the
sanitizer must find nothing; a sampled cell records through a
:class:`~repro.analysis.critpath.CriticalPathFold`, as
:func:`repro.experiments.collect_critpath` does.
``tests/test_parity_matrix`` runs a pairwise cover of the product;
``benchmarks/test_parity_matrix`` runs all of it.
"""

import hashlib
import itertools
import json

from repro.analysis import Sanitizer, extract_critical_path
from repro.analysis.critpath import CriticalPathFold
from repro.apps import APP_REGISTRY
from repro.hw import FaultConfig, MachineConfig
from repro.obs import TimeSeriesSampler
from repro.runtime import run_svm
from repro.runtime.parallel import encode_result
from repro.sim import Tracer
from repro.svm import BASE, GENIMA

APPS = ("KVStore", "Water-spatial")
PROTOCOLS = {"Base": BASE, "GeNIMA": GENIMA}
FAULTS = {"off": None, "loss": FaultConfig(loss=0.02, seed=3)}
TOPOLOGIES = ("crossbar", "fat-tree")
NODES = (1, 3, 8)
TELEMETRY = ("off", "on")
AXES = (APPS, tuple(PROTOCOLS), tuple(FAULTS), TOPOLOGIES, NODES,
        TELEMETRY)

#: (app, protocol, faults, topology, nodes) -> sha256 of the
#: sort_keys JSON of the cell's encoded result; both telemetry values
#: share it.
PINS = {
    ("KVStore", "Base", "off", "crossbar", 1):
        "0fb5a8b94f4fa130b073c5d6cd72cc188b092661c09ae94c5059b71f18b5b97e",
    ("KVStore", "Base", "off", "crossbar", 3):
        "bd41eced3b661c8b223f4e0171fe4b5aec310b3994701fcbfcc4c7ebaadd0a74",
    ("KVStore", "Base", "off", "crossbar", 8):
        "3e0b36318445138a82aad8349e47d6abe850ae9d9d043583adcbb9bcfe944a42",
    ("KVStore", "Base", "off", "fat-tree", 1):
        "0fb5a8b94f4fa130b073c5d6cd72cc188b092661c09ae94c5059b71f18b5b97e",
    ("KVStore", "Base", "off", "fat-tree", 3):
        "15083e9068c420b0993a2804f826b7b049239c2f2de8d24a3c56a5495ad70940",
    ("KVStore", "Base", "off", "fat-tree", 8):
        "f363859a3a4ec0c261f270bad2ba8f8443cba102c162a16183b39a706e6fe227",
    ("KVStore", "Base", "loss", "crossbar", 1):
        "fdd6438a9cb7dd6366568bb6245edd1590604282ac98d73ac6aade598f9c71bd",
    ("KVStore", "Base", "loss", "crossbar", 3):
        "9ac86d2c4d2c90a2f76b6051c5eb96217cd54d433186cbfacbe27599043cab30",
    ("KVStore", "Base", "loss", "crossbar", 8):
        "a25ea278e55ca9a975c9c867dff9d84f53065e706da68e7cf8da09ec26b085d9",
    ("KVStore", "Base", "loss", "fat-tree", 1):
        "fdd6438a9cb7dd6366568bb6245edd1590604282ac98d73ac6aade598f9c71bd",
    ("KVStore", "Base", "loss", "fat-tree", 3):
        "a539e0cdce11b89fb561d3c1686b043d8c6fd6c4b5d6cfa2068b14b379619c2d",
    ("KVStore", "Base", "loss", "fat-tree", 8):
        "2006bece61b1305700efeb17f44eec9ade5995a891cf5eec0d4d2a68e20de785",
    ("KVStore", "GeNIMA", "off", "crossbar", 1):
        "7479238091a1f97493a701eb88d0c5ef6edeae9263c43488bf5d047b6e5ea8e7",
    ("KVStore", "GeNIMA", "off", "crossbar", 3):
        "bd47feb02b3c3ee131240df18e464ca95a744847050df68c2981ef5f3fe69e71",
    ("KVStore", "GeNIMA", "off", "crossbar", 8):
        "ac25dbcd9ef25f4c4ff3c3ffb0630e130ee56f0ecc8f7ae4464868c802b8e3ed",
    ("KVStore", "GeNIMA", "off", "fat-tree", 1):
        "7479238091a1f97493a701eb88d0c5ef6edeae9263c43488bf5d047b6e5ea8e7",
    ("KVStore", "GeNIMA", "off", "fat-tree", 3):
        "9d6b0bc1bd91e720636e447864843228bde0223fd7c252c39445fccd54e95b28",
    ("KVStore", "GeNIMA", "off", "fat-tree", 8):
        "f12339e4244c347cd8f3170d977291b3b33d44f507df41638028bc4812a6ebb5",
    ("KVStore", "GeNIMA", "loss", "crossbar", 1):
        "cd741f38c8bf789d0608287a72a7bf027695ef5d5ea447fd2413b002d5a9a5df",
    ("KVStore", "GeNIMA", "loss", "crossbar", 3):
        "6a26fe9be3af82e6c5ae1e56a789c4360146530987a63e119b22842727669542",
    ("KVStore", "GeNIMA", "loss", "crossbar", 8):
        "f951101b28b3ebd1f138b95c7539a0dda8147340e89b503fe9c678c008a57e8a",
    ("KVStore", "GeNIMA", "loss", "fat-tree", 1):
        "cd741f38c8bf789d0608287a72a7bf027695ef5d5ea447fd2413b002d5a9a5df",
    ("KVStore", "GeNIMA", "loss", "fat-tree", 3):
        "067512bc14e4b0ad85b429cffe6885ce31adef1d401ecdb523c5a5286d14501d",
    ("KVStore", "GeNIMA", "loss", "fat-tree", 8):
        "2ccaf78734c47b872a1f4490aacb60e3582fd9086126d3f18d98369d9be8201b",
    ("Water-spatial", "Base", "off", "crossbar", 1):
        "5a262e4bb0a33f5bff72216cdd2497d3822b170f14b7569632801fcff6fae56b",
    ("Water-spatial", "Base", "off", "crossbar", 3):
        "dffcd01acf70631a7cbf5c56942fdaec2284f40d0fee35a00c6c2f03e008621b",
    ("Water-spatial", "Base", "off", "crossbar", 8):
        "7bacf8eeebdd9aa95f86789c8894af0d9e279485829deee0b18e392a2b6e6f6e",
    ("Water-spatial", "Base", "off", "fat-tree", 1):
        "5a262e4bb0a33f5bff72216cdd2497d3822b170f14b7569632801fcff6fae56b",
    ("Water-spatial", "Base", "off", "fat-tree", 3):
        "7f2d2d8f02138cb9b54e784a8c2f15c3ac9d72c58ecf056d181cfd78fcf73d78",
    ("Water-spatial", "Base", "off", "fat-tree", 8):
        "30c25877ea3e5ac622f91ec9c5034605bd470315f19fbe00db33b384953ff890",
    ("Water-spatial", "Base", "loss", "crossbar", 1):
        "9944a5072276094ef1d8a916b95a97f0ce406d8641ce731f3907ac0a3cd7216a",
    ("Water-spatial", "Base", "loss", "crossbar", 3):
        "5be66a28fbd3260506f36d90709834c140004bf8cd3eb50eec8b9b691101e67c",
    ("Water-spatial", "Base", "loss", "crossbar", 8):
        "5cc19a23895c771bdf2abe919bc65b584bb33c8a212b0cbd4b0ad2192232a3a7",
    ("Water-spatial", "Base", "loss", "fat-tree", 1):
        "9944a5072276094ef1d8a916b95a97f0ce406d8641ce731f3907ac0a3cd7216a",
    ("Water-spatial", "Base", "loss", "fat-tree", 3):
        "942c3bade71536de1907a2abb18962c3e02bddaef89e26fb6e679db84653cb90",
    ("Water-spatial", "Base", "loss", "fat-tree", 8):
        "8d332178da89f6eb5681114f5398caf4622fec069534b28bdf930a46df09d1a4",
    ("Water-spatial", "GeNIMA", "off", "crossbar", 1):
        "510b377e9135a6ef1d43c5d275f0175c95a5dc6bf07eb02ce1488e9c6eeae181",
    ("Water-spatial", "GeNIMA", "off", "crossbar", 3):
        "3456151918bb0ac2370bb6e0edc67d56e332c925cd5d9f23ab59e5b997381dfb",
    ("Water-spatial", "GeNIMA", "off", "crossbar", 8):
        "eece140b084f14929a8a0d5f2565a3a6db6f669c5ef8da07587cc51b7cd4d599",
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 1):
        "510b377e9135a6ef1d43c5d275f0175c95a5dc6bf07eb02ce1488e9c6eeae181",
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 3):
        "c87456adcdb207958efbbddeac3a1b7cbb18f836f7d1f28b987bdee981759f2f",
    ("Water-spatial", "GeNIMA", "off", "fat-tree", 8):
        "208b483deb01ce8464ec9f2e833341079730141ae4b033e1596466344ec18705",
    ("Water-spatial", "GeNIMA", "loss", "crossbar", 1):
        "f8a4f71ce5af8e8c5560caeac76be9de9f51a927f439c87bf1f44f9b2d141a08",
    ("Water-spatial", "GeNIMA", "loss", "crossbar", 3):
        "f0c34803a446c080b1c2608173fb3851073c414eea6e1daade03f4da2a2f6fa0",
    ("Water-spatial", "GeNIMA", "loss", "crossbar", 8):
        "7d356c768fbd586a1a46d48bba631fa4c11cc76fb5aa7ae2302b74641a4a734a",
    ("Water-spatial", "GeNIMA", "loss", "fat-tree", 1):
        "f8a4f71ce5af8e8c5560caeac76be9de9f51a927f439c87bf1f44f9b2d141a08",
    ("Water-spatial", "GeNIMA", "loss", "fat-tree", 3):
        "1588361b19510479caee295533f96d1af25df3e90d8bc0e8b0f869fd26784344",
    ("Water-spatial", "GeNIMA", "loss", "fat-tree", 8):
        "305445d128a05152798d191b93cffc6993df42e01da6e0a0dd49c5129bc50aa8",
}

#: Full product, in AXES order.
FULL = tuple(itertools.product(*AXES))


def cell_id(cell) -> str:
    """Test id of a cell: its pinned axes, then ``sampled`` when the
    telemetry sampler is on."""
    return "/".join(map(str, cell[:5])) + (
        "/sampled" if cell[5] == "on" else "")


def run_digest(app: str, protocol: str, faults: str, topology: str,
               nodes: int, telemetry: str, tracer=None) -> str:
    """Run one cell with invariant checks on; sha256 of its result
    with the telemetry summary set aside.

    With a ``tracer`` the run also records spans into it.
    """
    config = MachineConfig(nodes=nodes, topology=topology,
                           faults=FAULTS[faults])
    sampler = TimeSeriesSampler(cadence_us=500) if telemetry == "on" \
        else None
    result = run_svm(APP_REGISTRY[app](), PROTOCOLS[protocol],
                     config=config, check=True, tracer=tracer,
                     spans=tracer is not None, telemetry=sampler)
    encoded = encode_result(result)
    if sampler is not None:
        assert encoded["telemetry"]["samples"] > 0
        encoded["telemetry"] = None
    digest = json.dumps(encoded, sort_keys=True)
    return hashlib.sha256(digest.encode()).hexdigest()


def check_spanned_cell(cell) -> None:
    """Rerun ``cell`` with spans: same pin, a critical path within
    ``TIME_TOLERANCE_US`` of the wall time, no sanitizer finding."""
    tracer = Tracer()
    if cell[5] == "on":
        fold = CriticalPathFold(tracer)
        assert run_digest(*cell, tracer=fold) == PINS[cell[:5]]
        path = extract_critical_path(fold)
    else:
        assert run_digest(*cell, tracer=tracer) == PINS[cell[:5]]
        path = extract_critical_path(tracer.events)
    assert path.ok(), (path.complete, path.residual_us)
    assert Sanitizer().run(tracer.events) == []
