"""Record the SHA-256 of every command line's stdout into digests.json.

    python3 perfbench/record_digests.py

Run this at a commit whose output is known to be right; the gate then
requires every later commit to print byte-identical output.  Every
command that any workload can run, at both sizes and with every oracle
seed in VERIFY_SEEDS, is run once in this process.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import gate
    import passes
    from workloads import all_commands

    digests = {}
    for size in ("smoke", "full"):
        for argv in all_commands(size):
            code, out, _, error = passes.run_command(argv)
            if code != 0 or error is not None:
                print(f"{gate.key(argv)}: exit {code} {error or ''}", file=sys.stderr)
                return 1
            sha = gate.stdout_digest(argv, passes.sha256(out), out)
            digests[gate.key(argv)] = sha
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
