"""Regenerate perfbench/pins.json, the per-operation digest table.

    python3 perfbench/pin.py

Runs one pass of ladder and observed, and one datacenter pass per
pinned seed, and records each operation's result digest (warm reads
the ladder's).  Regenerate only when a change is meant to alter
simulated results, and say so in that change.  Takes a few minutes.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: datacenter seeds with pinned digests; other seeds are checked pass
#: against pass instead.
PINNED_SEEDS = list(range(16))


def pass_digests(workloads, name, spec, seed, scratch):
    workload = workloads.build(name, spec, {}, seed, scratch, HERE.parent)
    outcomes = {op: thunk() for op, thunk in workload.begin_pass()}
    problems = workload.end_pass(outcomes)
    if problems:
        raise SystemExit(f"{name} seed={seed}: {problems}")
    return {op: workloads.digest(o.canonical())
            for op, o in outcomes.items()}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from repro.runtime import code_fingerprint
    spec = json.loads((HERE / "spec.json").read_text())
    seeds = sorted(set(PINNED_SEEDS) | {spec["seeds"]["default"],
                                        spec["seeds"]["held_out"]})
    pins = {"fingerprint": code_fingerprint()}
    scratch_root = HERE.parent / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
        scratch = Path(tmp)
        for name in ("ladder", "observed"):
            pins[name] = pass_digests(workloads, name, spec, 0, scratch)
            print(name, "pinned", flush=True)
        pins["datacenter"] = {}
        for seed in seeds:
            pins["datacenter"][str(seed)] = pass_digests(
                workloads, "datacenter", spec, seed, scratch)
            print("datacenter seed", seed, "pinned", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1,
                                               sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
