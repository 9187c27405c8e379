"""Line style of the Python sources under src/ and tests/: at most 100
characters a line, no tab and no trailing whitespace.  Recorded data, such
as cli_goldens.json, is written by a script and is not checked."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 100


@pytest.mark.parametrize("top", ["src", "tests"])
def test_source_lines_are_short_untabbed_and_unpadded(top):
    sources = sorted((ROOT / top).rglob("*.py"))
    assert len(sources) > 5
    faults = []
    for path in sources:
        name = path.relative_to(ROOT).as_posix()
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if len(line) > MAX_LINE:
                faults.append(f"{name}:{number}: {len(line)} characters, over {MAX_LINE}")
            if "\t" in line:
                faults.append(f"{name}:{number}: tab")
            if line != line.rstrip():
                faults.append(f"{name}:{number}: trailing whitespace")
    assert not faults, "\n".join(faults)
