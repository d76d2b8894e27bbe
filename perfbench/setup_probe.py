"""Time the set-up a user pays before the first engine call, in a fresh process.

Usage: ``python3 perfbench/setup_probe.py SRC_DIR FILE.aig [FILE.aig ...]``

Measures from ``import repro`` until every file has been parsed with
``read_aiger`` into a ``Model``, and prints ``{"setup_s": ..., "parse_s": ...}``
as one JSON line (``parse_s`` is the parsing part alone).
"""

import json
import sys
import time


def main(argv) -> int:
    sys.path.insert(0, argv[1])
    started = time.perf_counter()
    import repro  # noqa: F401  (the import is part of what is timed)
    from repro.aig import Model, read_aiger

    imported = time.perf_counter()
    models = [Model(read_aiger(path)) for path in argv[2:]]
    finished = time.perf_counter()
    if not models:
        print("setup_probe: no input files", file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": finished - started,
                      "parse_s": finished - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
