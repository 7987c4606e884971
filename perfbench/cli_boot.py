"""Run hypercert's command line under the benchmark's call tracer.

    python perfbench/cli_boot.py OUT.json [hypercert arguments ...]

Times `import hypercert.cli`, installs the tracer, runs the CLI entry point
and, however the CLI exits, writes the import time and the trace to OUT.json.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    t0 = perf_counter()
    import hypercert.cli
    import_s = perf_counter() - t0

    from tracer import Tracer

    out_path = sys.argv[1]
    tracer = Tracer()
    tracer.install()
    sys.argv = ["hypercert", *sys.argv[2:]]
    try:
        hypercert.cli.main()
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)


if __name__ == "__main__":
    main()
