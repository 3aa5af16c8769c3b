r"""Compare this tree with another checkout of knotbound, in one process.

The package under ``--base`` (a checkout or a ``git archive`` copy, holding
``src/knotbound``) is imported beside this tree's under another name, and
both get the same seeded inputs:

* ``canonical_closure_key`` on seeded words of 1-7 strands, a third of them
  stabilized and then conjugated;
* ``cli.main`` on a seeded corpus of command lines, bad ones included: the
  same exit code, stdout and stderr.  It runs ``--emit-pd`` on seeded
  words, and ``--pd-file`` on files it writes: the PD text of a seeded
  word, or one of the malformed texts in ``BAD_PD``;
* result-cache reads of seeded cache files that mix current records,
  records of other versions, stored HOMFLYPT payloads well-formed and
  malformed, torn and blank lines, keyless garbage, and line ends ``\n``
  and ``\r\n`` beside a lone ``\r``, which a cache line keeps: the same
  ``ResultCache.load`` of every key in the file and of one missing key, the
  same ``records()``, and the same warning messages of each, in order.

It prints the mismatch count of each part and, for its first mismatching
input, the input's index and the first read on which the two trees differ,
each side cut to ``CLIP`` characters; it exits 1 if any count is nonzero.

    PYTHONPATH=src python3 scripts/parity.py --base /path/to/other/checkout
"""

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

# This tree's package, whatever PYTHONPATH holds.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import knotbound.braid  # noqa: E402
import knotbound.cache  # noqa: E402
import knotbound.cli  # noqa: E402
import knotbound.khovanov  # noqa: E402

BASE_PACKAGE = "knotbound_base"
# Seed of the inputs, and inputs per part: key words, command lines and
# cache files.
SEED = 1
SIZES = (5000, 300, 300)
# Most characters of each tree's read that a mismatch report prints.
CLIP = 160


def load_base(base: Path):
    """The ``braid``, ``cli`` and ``cache`` modules of the package under
    ``base/src``, imported as ``knotbound_base``."""
    for name in [m for m in sys.modules if m.split(".")[0] == BASE_PACKAGE]:
        del sys.modules[name]
    init = base / "src" / "knotbound" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        BASE_PACKAGE, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[BASE_PACKAGE] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{BASE_PACKAGE}.{name}")
                 for name in ("braid", "cli", "cache"))


def random_letters(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(size))


def stabilized_conjugate(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    """A word on n - 1 strands, stabilized to n and conjugated by a short
    word on n strands, freely reduced."""
    c = random_letters(rng, n, rng.randint(0, 3))
    w = random_letters(rng, n - 1, size) + (rng.choice((1, -1)) * (n - 1),)
    return knotbound.braid.free_reduce(knotbound.braid.BraidWord(
        n, c + w + tuple(-e for e in reversed(c)))).letters


def key_inputs(seed: int, count: int) -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(seed + 1)
    words = []
    for _ in range(count):
        n = rng.randint(1, 7)
        size = rng.randint(0, 20)
        words.append((n, stabilized_conjugate(rng, n, size) if n > 1 and rng.random() < 1 / 3
                      else random_letters(rng, n, size)))
    return words


# PD texts that ``--pd-file`` refuses: a non-integer edge id, and a
# trefoil's code (edges 0-5) with a second M line; a genus-1 code; a
# trefoil's code in which edge 4 enters twice and edge 0 never.
BAD_PD = (
    "X 3 4 1 x +\nX 4 5 2 1 +\nX 5 3 0 2 +\nM 0\n",
    "X 3 4 1 0 +\nX 4 5 2 1 +\nX 5 3 0 2 +\nM 0\nM 1\n",
    "X 3 2 0 1 +\nX 0 2 1 3 -\nM 0\n",
    "X 3 4 1 0 -\nX 4 5 2 1 +\nX 5 3 0 2 +\nM 0\n",
)


def pd_file(pd_dir: Path, text: str) -> str:
    """The path of a new file in ``pd_dir`` that holds ``text``."""
    path = pd_dir / f"{len(list(pd_dir.iterdir()))}.pd"
    path.write_text(text)
    return str(path)


def cli_inputs(seed: int, count: int, pd_dir: Path) -> list[list[str]]:
    """Command lines of every verb: words, families, bounds, the claims, PD
    text out and in, and usage, parse and precondition errors.  The files
    that ``--pd-file`` reads are written to ``pd_dir``."""
    rng = random.Random(seed + 2)
    fixed = [
        ["verify-paper"], ["verify-paper", "--json"],
        ["verify-paper", "--section", "3", "--json"],
        ["invariants", "1 x", "--strands", "2"], ["invariants", "3", "--strands", "3"],
        ["invariants", "1 2"], ["invariants", "1 1", "--strands", "3", "--seifert"],
        ["family", "elrifai-k", "--emit", "word"], ["family", "nope"],
        ["family", "elrifai-res", "--label", "0-", "--emit", "bounds"],
        ["bounds", "1 1 1", "--strands", "2", "--delta-minus", "4"],
        ["cache", "list"], ["frobnicate"], [],
        *(["invariants", "--pd-file", pd_file(pd_dir, text), "--khovanov"]
          for text in BAD_PD),
    ]
    lines = []
    for _ in range(max(0, count - len(fixed))):
        n = rng.randint(1, 4)
        letters = random_letters(rng, n, rng.randint(0, 9))
        word = " ".join(map(str, letters))
        verb = rng.choice(("invariants", "invariants", "family", "bounds", "pd"))
        if verb == "pd":
            diagram = knotbound.khovanov.braid_to_pd(knotbound.braid.BraidWord(n, letters))
            path = pd_file(pd_dir, knotbound.khovanov.pd_to_text(diagram))
            flags = rng.sample(["--khovanov", "--json"], rng.randint(0, 2))
            lines.append(rng.choice((["invariants", word, "--strands", str(n), "--emit-pd"],
                                     ["invariants", "--pd-file", path, *flags])))
        elif verb == "invariants":
            flags = rng.sample(["--homfly", "--khovanov", "--seifert", "--all", "--json"],
                               rng.randint(0, 2))
            lines.append(["invariants", word, "--strands", str(n), *flags])
        elif verb == "bounds":
            deltas = (["--delta-minus", str(rng.randint(-4, 4)),
                       "--delta-plus", str(rng.randint(-4, 8))] if rng.random() < 0.3 else [])
            lines.append(["bounds", word, "--strands", str(n), *deltas,
                          *(["--json"] if rng.random() < 0.5 else [])])
        else:
            kind = rng.choice(("elrifai-k", "elrifai-l", "bm", "torus2"))
            values = {"elrifai-k": "k", "elrifai-l": "k", "bm": "xyzw", "torus2": "q"}[kind]
            params = [a for p in values for a in (f"--{p}", str(rng.randint(-2, 3)))]
            lines.append(["family", kind, *params, "--emit",
                          rng.choice(("word", "bounds", "invariants"))])
    return fixed[:count] + lines


# A stored HOMFLYPT as the CLI prints it, drawn twice as often as each
# malformed one: no text (the version-3 form), a text that is not a
# string, an extra key, ascending terms, a repeated degree, a zero
# coefficient, a negative clearing and a short term.
GOOD_HOMFLY = {"terms": [[1, 0, 1], [-1, 2, -1]], "clearing": 0, "text": "a - a^-1q^2"}
CACHE_HOMFLY = (
    None, GOOD_HOMFLY, GOOD_HOMFLY,
    {"terms": GOOD_HOMFLY["terms"], "clearing": 0}, {**GOOD_HOMFLY, "text": 5},
    {**GOOD_HOMFLY, "poincare": "1"}, {**GOOD_HOMFLY, "terms": [[-1, 2, -1], [1, 0, 1]]},
    {**GOOD_HOMFLY, "terms": [[1, 0, 2], [1, 0, 1]]},
    {**GOOD_HOMFLY, "terms": [[1, 0, 1], [-1, 2, 0]]}, {**GOOD_HOMFLY, "clearing": -1},
    {**GOOD_HOMFLY, "terms": [[1, 0]]},
)
CACHE_KEYS = ("(3,(1,2))", "(2,(1,1,1))", "k", 'q"uote', "back\\slash", "é", "")
# Blank lines and lines with no readable key.
CACHE_GARBAGE = (b"", b"  ", b"\t\x0c", b"[]", b"null", b"not json", b"\xff\xfe",
                 b'{"canonical_key": ["k"]}')


def cache_record_line(rng: random.Random, key: str) -> bytes:
    """A record line of ``key``: current or of another version, with
    well-formed or malformed invariants, whole or torn."""
    homfly = rng.choice(CACHE_HOMFLY)
    khovanov = rng.choice((None, [[0, 0, 1], [2, 4, 1]], [["x", 0, 1]]))
    rec = knotbound.cache.InvariantRecord(
        canonical_key=key, strands=rng.randint(1, 4), writhe=rng.randint(-3, 3),
        components=rng.choice((1, 1, 2)), homfly=homfly, khovanov=khovanov,
        signature=rng.choice((None, rng.randint(-4, 4))),
        determinant=rng.choice((None, rng.randint(1, 9))),
        created=f"t{rng.randint(0, 9)}",
        version=rng.choice((knotbound.cache.CACHE_VERSION,) * 3 + (2, None)))
    line = rec.to_json().encode()
    return line[:rng.randint(1, len(line) - 1)] if rng.random() < 0.15 else line


def cache_inputs(seed: int, count: int) -> list[tuple[bytes, tuple[str, ...]]]:
    """Cache files, each with the keys it was written with."""
    rng = random.Random(seed + 3)
    files = []
    for _ in range(count):
        keys = tuple(rng.sample(CACHE_KEYS, rng.randint(1, 4)))
        data = b""
        for _ in range(rng.randint(0, 24)):
            line = (cache_record_line(rng, rng.choice(keys)) if rng.random() < 0.6
                    else rng.choice(CACHE_GARBAGE))
            data += line + rng.choice((b"\n", b"\n", b"\n", b"\r\n", b"\r"))
        if data and rng.random() < 0.3:
            data = data[:-1]
        files.append((data, keys))
    return files


def key_outcome(braid, n: int, letters: tuple[int, ...]):
    return braid.canonical_closure_key(braid.BraidWord(n, letters))


def cli_outcome(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cache_outcome(cache, data: bytes, keys: tuple[str, ...]) -> list:
    """Each key's ``load`` and then ``records()``, as field tuples, each with
    the warning messages it gave."""
    outcome = []
    with tempfile.TemporaryDirectory() as d:
        Path(d, "invariants.jsonl").write_bytes(data)
        rc = cache.ResultCache(d)
        for key in keys + ("missing", None):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if key is None:
                    result = [dataclasses.astuple(r) for r in rc.records()]
                else:
                    rec = rc.load(key)
                    result = None if rec is None else dataclasses.astuple(rec)
            outcome.append((key, result, [str(w.message) for w in caught]))
    return outcome


def first_difference(ours, theirs) -> tuple:
    """The first differing entries of two unequal outcomes, found by
    descending into lists, or tuples, of the same length."""
    while (type(ours) is type(theirs) and isinstance(ours, (list, tuple))
           and len(ours) == len(theirs)):
        ours, theirs = next((a, b) for a, b in zip(ours, theirs) if a != b)
    return ours, theirs


def clip(value) -> str:
    text = repr(value)
    return text if len(text) <= CLIP else text[:CLIP] + "..."


def compare(base: Path, seed: int, sizes: tuple[int, int, int]) -> dict[str, int]:
    """Print the mismatches of each part and return their counts."""
    base_braid, base_cli, base_cache = load_base(base)
    counts = {}
    # Neither tree may read or write a result cache.
    saved = os.environ.pop("KNOTBOUND_CACHE", None)
    try:
        with tempfile.TemporaryDirectory() as pd_dir:
            parts = [
                ("canonical_closure_key", key_outcome, knotbound.braid, base_braid,
                 key_inputs(seed, sizes[0])),
                ("cli", cli_outcome, knotbound.cli, base_cli,
                 [(argv,) for argv in cli_inputs(seed, sizes[1], Path(pd_dir))]),
                ("cache", cache_outcome, knotbound.cache, base_cache,
                 cache_inputs(seed, sizes[2])),
            ]
            for name, outcome, ours, theirs, inputs in parts:
                count, first = 0, ""
                for i, args in enumerate(inputs):
                    here, there = outcome(ours, *args), outcome(theirs, *args)
                    if here != there:
                        if not count:
                            here, there = map(clip, first_difference(here, there))
                            first = f"; first: input {i}, {here} here, {there} in the base"
                        count += 1
                counts[name] = count
                print(f"{name}: {count} mismatches in {len(inputs)} inputs{first}")
    finally:
        if saved is not None:
            os.environ["KNOTBOUND_CACHE"] = saved
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout whose src/knotbound to compare against")
    args = parser.parse_args()
    counts = compare(args.base.resolve(), SEED, SIZES)
    return 1 if any(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
