"""Run one benchmark pass in a fresh interpreter, so library caches start cold.

    python3 -I perfbench/worker.py '<spec json>'

Prints "ready" as soon as chipoly is imported (the parent times set-up up
to that line), then one JSON line with the pass result (passes.run_pass).
Only sys, os and the chipoly CLI are imported before "ready".
"""

import os
import sys


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import chipoly.cli  # noqa: F401  (the set-up being timed)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    import passes

    passes.main(sys.argv[1])


if __name__ == "__main__":
    main()
