"""Time the fixed work of cached ``invariants`` queries, part by part.

The script builds a seeded list of braid words: groups of a positive base
word on 3 or 4 strands, two conjugates, two rotations and two
stabilizations, so that most queries of a group are answered from the
record the first one stored.  Each word is one in-process call of
``cli.main(["invariants", WORD, "--strands", N, "--homfly", "--seifert",
"--json", "--cache-dir", DIR])``, with stdout captured.  Every pass starts
with an empty cache directory, so every pass does the same work.

Each part is timed in CPU time by a wrapper, put in place for the run and
removed after it:

* ``parse``: the outermost ``argparse`` parse of the query's argv;
* ``lookup``: ``ResultCache.load``;
* ``compute``: ``cli._compute``, the invariants a record lacks;
* ``render``: ``cli._aq_payload``, the HOMFLYPT payload of the output;
* ``emit``: ``cli._emit``, the JSON text written to stdout;
* ``other``: the rest of ``cli.main``.

It prints the microseconds per query of each part, and of ``cli.main``.

    python3 scripts/cli_timing.py --seed 1
"""

import argparse
import contextlib
import io
import random
import sys
import tempfile
import time

from knotbound import cli
from knotbound.cache import ResultCache

GROUPS = 90
PASSES = 5
PARTS = ("parse", "lookup", "compute", "render", "emit")


def base_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """A positive word in which every generator occurs, so its closure is
    connected."""
    while True:
        letters = tuple(rng.randint(1, strands - 1) for _ in range(length))
        if len(set(letters)) == strands - 1:
            return letters


def queries(seed: int, groups: int = GROUPS) -> list[tuple[int, tuple[int, ...]]]:
    """``groups`` groups of seven (strands, letters) words: a base word, two
    conjugates, two rotations and two stabilizations of it, which all share
    the base word's closure key."""
    rng = random.Random(f"cli-timing:{seed}")
    words = []
    for group in range(groups):
        n, length = ((3, 8), (3, 9), (4, 7))[group % 3]
        letters = base_word(rng, n, length)
        members = [letters]
        for _ in range(2):
            c = rng.choice((1, -1)) * rng.randint(1, n - 1)
            members.append((c,) + letters + (-c,))
        for shift in rng.sample(range(1, length), 2):
            members.append(letters[shift:] + letters[:shift])
        words += [(n, m) for m in members]
        words += [(n + 1, letters + (n,)), (n + 1, letters + (-n,))]
    return words


@contextlib.contextmanager
def timers(seconds: dict):
    """Wrap each part in a CPU-time wrapper that adds to ``seconds``."""
    running = set()

    def timed(part, fn):
        def wrapper(*args, **kwargs):
            if part in running:  # a subparser's parse inside the full parser's
                return fn(*args, **kwargs)
            running.add(part)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[part] += time.process_time() - start
                running.discard(part)
        return wrapper

    patches = [
        (argparse.ArgumentParser, "parse_known_args", "parse"),
        (ResultCache, "load", "lookup"),
        (cli, "_compute", "compute"),
        (cli, "_aq_payload", "render"),
        (cli, "_emit", "emit"),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, part in patches:
        setattr(owner, name, timed(part, getattr(owner, name)))
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def report(seed: int, groups: int = GROUPS, passes: int = PASSES) -> dict:
    """Run ``passes`` passes and print µs per query of each part; return
    the seconds per query, keyed by part and ``main``."""
    words = queries(seed, groups)
    seconds = dict.fromkeys(PARTS + ("main",), 0.0)
    for _ in range(passes):
        with tempfile.TemporaryDirectory() as cache_dir, timers(seconds):
            for n, letters in words:
                argv = ["invariants", " ".join(map(str, letters)), "--strands", str(n),
                        "--homfly", "--seifert", "--json", "--cache-dir", cache_dir]
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.process_time()
                    code = cli.main(argv)
                    seconds["main"] += time.process_time() - start
                if code != 0:
                    raise RuntimeError(f"exit {code} on {argv}")
    per_query = {part: s / (passes * len(words)) for part, s in seconds.items()}
    per_query["other"] = per_query["main"] - sum(per_query[p] for p in PARTS)
    print(f"{len(words)} queries x {passes} passes, seed {seed}: "
          f"cli.main {per_query['main'] * 1e6:.1f} µs per query")
    for part in PARTS + ("other",):
        print(f"  {part:8s}{per_query[part] * 1e6:8.1f} µs")
    return per_query


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    report(ap.parse_args().seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
