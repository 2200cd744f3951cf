"""Times the program's set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON

Imports growabc from SRC_DIR, validates the RunConfig given as JSON
fields and builds its seed graph, then prints the seconds taken.
"""

import json
import sys
import time


def main(src, config_json):
    start = time.perf_counter()
    sys.path.insert(0, src)
    from growabc.config import RunConfig
    from growabc.table import build_seed_graph

    fields = json.loads(config_json)
    for key in ("prior_low", "prior_high"):
        if key in fields:
            fields[key] = tuple(fields[key])
    cfg = RunConfig(**fields).validate()
    build_seed_graph(cfg)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
