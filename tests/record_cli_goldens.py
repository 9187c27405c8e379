"""Record, or check, this CPython's CLI goldens in cli_goldens.json.

    PYTHONPATH=src COLUMNS=80 python tests/record_cli_goldens.py           # record the minor
    PYTHONPATH=src COLUMNS=80 python tests/record_cli_goldens.py --patch   # this release only
    PYTHONPATH=src COLUMNS=80 python tests/record_cli_goldens.py --check   # compare

argparse words and wraps its help and usage text differently from one
CPython minor to the next, and now and then between patch releases of
one minor (3.13.0 quotes the choices of an invalid-choice error, 3.13.13
does not).  So the goldens hold records, each naming the versions that
print its text: minors such as "3.12", or single releases such as
"3.13.0", which take precedence over their minor.  Recording runs
every argv of the file through chipoly.cli.main and files the stdout,
stderr and exit code under this minor (or release): in the record whose
text is identical, or in a new one.  Run it at a commit whose CLI text is
known to be right.  Stdlib only, so it also runs where pytest is not
installed.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "cli_goldens.json"
RELEASE = "%d.%d.%d" % sys.version_info[:3]
MINOR = "%d.%d" % sys.version_info[:2]


def record_for(goldens: dict) -> dict | None:
    """The record naming this release, else the one naming its minor, else None."""
    for version in (RELEASE, MINOR):
        for record in goldens["records"]:
            if version in record["pythons"]:
                return record
    return None


def run(argv: list) -> dict:
    """stdout, stderr and exit code of chipoly.cli.main(argv)."""
    from chipoly.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(args: list) -> int:
    if os.environ.get("COLUMNS") != "80" or args not in ([], ["--patch"], ["--check"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())
    cases = [run(argv) for argv in goldens["argvs"]]
    if args == ["--check"]:
        record = record_for(goldens)
        if record is None:
            print(f"no record for CPython {RELEASE}", file=sys.stderr)
            return 1
        bad = [argv for argv, got, want in zip(goldens["argvs"], cases, record["cases"])
               if got != want]
        for argv in bad:
            print(f"differs: {argv}", file=sys.stderr)
        print(f"CPython {RELEASE}: {len(cases) - len(bad)} of {len(cases)} goldens match")
        return 1 if bad else 0
    version = RELEASE if args == ["--patch"] else MINOR
    records = goldens["records"]
    for record in records:
        if version in record["pythons"]:
            record["pythons"].remove(version)
    records[:] = [r for r in records if r["pythons"]]
    same = [r for r in records if r["cases"] == cases]
    if same:
        pythons = same[0]["pythons"] + [version]
        same[0]["pythons"] = sorted(pythons, key=lambda v: tuple(map(int, v.split("."))))
    else:
        records.append({"pythons": [version], "cases": cases})
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"recorded CPython {version} in {GOLDENS.name}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
