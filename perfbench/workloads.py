"""The benchmark's workloads: which chipoly command lines one pass runs.

A pass is the full command list of a workload, run one command at a time
in a fresh interpreter.  The seed picks, once per run, the order of the
commands and, on verify-sweep, the oracle's --seed from VERIFY_SEEDS;
every pass of the run then repeats the same command lines.  The order
never changes how much work a pass does, because every build, power sum
and render is paid exactly once per pass whatever the order.

Each workload also has a "smoke" size, the smallest inputs that run the
same commands, which the self-test uses.
"""

from __future__ import annotations

import random

# Oracle seeds a verify command may draw.  Its stdout echoes the seed, so
# each one needs its own recorded digest (see record_digests.py).
VERIFY_SEEDS = tuple(range(1, 33))

VERIFY_RANK = 3
VERIFY_TWIST_RANGE = 4


def _emit(sub: str, rank: str, dim: int, fmt: str) -> tuple:
    return (sub, "--rank", rank, "--dim", str(dim), "--format", fmt)


def _verify(dim: int, trials: int, max_a: int) -> tuple:
    # --seed is appended per pass.
    return (
        "verify", "--dim", str(dim), "--rank", str(VERIFY_RANK),
        "--trials", str(trials), "--max-a", str(max_a),
        "--twist-range", str(VERIFY_TWIST_RANGE),
    )


def _bench(dim: int) -> tuple:
    return ("bench", "--dim", str(dim), "--repetitions", "1")


WORKLOADS = {
    "emit-symbolic": {
        "full": tuple(
            _emit("emit-chi", "n", d, f) for d in (16, 20, 24) for f in ("text", "json")
        ),
        "smoke": tuple(_emit("emit-chi", "n", d, f) for d in (4, 5) for f in ("text", "json")),
    },
    "emit-twist": {
        "full": (
            _emit("emit-chi-twist", "n", 10, "text"),
            _emit("emit-chi-twist", "n", 10, "json"),
            _emit("emit-chi-twist", "n", 11, "json"),
            _emit("emit-chi-twist", "3", 12, "json"),
        ),
        "smoke": (
            _emit("emit-chi-twist", "n", 3, "text"),
            _emit("emit-chi-twist", "n", 3, "json"),
            _emit("emit-chi-twist", "3", 4, "json"),
        ),
    },
    "verify-sweep": {
        "full": tuple(_verify(d, 50, a) for d in (6, 12) for a in (4, 60000)),
        "smoke": tuple(_verify(3, 5, a) for a in (4, 60000)),
    },
    "route-compare": {
        "full": (_bench(10), _bench(11)),
        "smoke": (_bench(4), _bench(5)),
    },
}


def pass_commands(workload: str, size: str, rng: random.Random) -> list:
    """A run's command lines, in a seeded order; every pass repeats them."""
    commands = [list(argv) for argv in WORKLOADS[workload][size]]
    rng.shuffle(commands)
    for argv in commands:
        if argv[0] == "verify":
            argv += ["--seed", str(rng.choice(VERIFY_SEEDS))]
    return commands


def all_commands(size: str) -> list:
    """Every command line a pass of any workload may run at this size."""
    out = []
    for sizes in WORKLOADS.values():
        for argv in sizes[size]:
            if argv[0] == "verify":
                out.extend(list(argv) + ["--seed", str(s)] for s in VERIFY_SEEDS)
            else:
                out.append(list(argv))
    return out
