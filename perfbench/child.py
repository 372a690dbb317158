"""Work run.py does in fresh interpreters.

    python3 perfbench/child.py setup WORKLOAD SEED STORE_DIR
        Import everything the workload uses, compute code_fingerprint(),
        open a ResultStore at STORE_DIR and build the workload's first
        Machine; then print time.monotonic().  The parent subtracts the
        monotonic time at which it spawned this interpreter, so setup_s
        includes interpreter start-up.

    python3 perfbench/child.py fill STORE_DIR CELL...
        Compute the ladder cells CELL... into the store at STORE_DIR.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    command, args = argv[0], argv[1:]
    if command == "setup":
        name, seed, store_dir = args
        import json

        import workloads
        from repro.hw import Machine
        from repro.runtime import ResultStore, code_fingerprint
        code_fingerprint()
        len(ResultStore(store_dir))
        spec = json.loads((HERE / "spec.json").read_text())
        workload = workloads.build(name, spec, {}, int(seed),
                                   Path(store_dir), HERE.parent)
        config = workload.first_config()
        if config is not None:
            Machine(config)
        print(repr(time.monotonic()))
        return 0
    if command == "fill":
        import workloads
        workloads.fill_store(args[0], args[1:])
        return 0
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
