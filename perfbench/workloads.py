"""Seeded query lists for the three benchmark workloads.

A workload is a list of queries, each one call to ``knotbound.cli.main``.
Generation uses only the seed and the braid-word formulas written out here,
never the program under test, so every commit sees the same inputs for the
same seed.

A query is a dict:

* ``argv``: the CLI arguments.  ``{cache}`` stands for the run's result-cache
  directory and ``{pd}`` for the planar-diagram file written before the call;
* ``expect_exit``: the documented exit code (0 for a valid query);
* ``kind``: ``good`` or the name of the bad-input class;
* ``word``: ``[strands, letters]`` of the closure, when there is one;
* ``pd_from``: index of the ``--emit-pd`` query whose stdout becomes the
  ``{pd}`` file, or ``pd_text`` with literal file contents;
* ``group``: markov-cached only, the base word's group number;
* ``claims``: for ``verify-paper``, the number of claims it must report,
  every one passed.
"""

from __future__ import annotations

import random

WORKLOADS = ("bounds-cold", "khovanov-cube", "markov-cached")
DEFAULT_SEED = 1

# Fewest passes a run makes; a query's latency is its median over them.
MIN_PASSES = 3

# How often a workload clears the HOMFLY memo: before every query (each real
# CLI call starts empty) or once per pass (one long-lived process).
MEMO_CLEAR = {
    "bounds-cold": "query",
    "khovanov-cube": "query",
    "markov-cached": "pass",
}

# Skein-resolution diagrams of the main knot (the elrifai-res family).  "+"
# is elrifai-k 1 itself; "-" and "0" are left out to keep a pass short.
RESOLUTION_WORDS = {
    "0-": (1, 2, 2, 1, 1, 2, -2, 1, -2, -2, -2),
    "00": (1, 2, 2, 1, 1, 2, 1, -2, -2, -2),
    "0--": (1, 2, -2, 1, 1, 1, -2, -2, -2),
    "0-0": (1, 2, 1, 1, 1, -2, -2, -2),
}

# A PD line with a non-integer edge label.  The program lets it escape as a
# ValueError instead of exiting with 2 (ROADMAP item 4).
BAD_PD_TEXT = "X a 1 2 3 +\nM 0\n"


# --- braid words, written out independently of the program -----------------


def _power(gen: int, exponent: int) -> tuple[int, ...]:
    return (gen,) * exponent if exponent >= 0 else (-gen,) * (-exponent)


def elrifai_k(k: int) -> tuple[int, tuple[int, ...]]:
    return 3, (1, 2, 2, 1) * (2 * k) + (1,) + _power(2, -(2 * k + 1))


def elrifai_l(k: int) -> tuple[int, tuple[int, ...]]:
    return 3, (1, 2, 2, 1) * (2 * k + 1) + (1,) + _power(2, -2 * k + 1)


def bm(x: int, y: int, z: int, w: int) -> tuple[int, tuple[int, ...]]:
    return 4, (
        _power(1, x) + _power(2, y) + (-3,) + _power(2, z) + _power(1, w)
        + (2, 3, 2, 2, 3)
    )


def torus2(q: int) -> tuple[int, tuple[int, ...]]:
    return 2, _power(1, q)


# The (3,5) torus knot and its mirror, 10 crossings each.
TORUS_3_5 = (3, (1, 2) * 5)
TORUS_3_5_MIRROR = (3, (-1, -2) * 5)


def components(strands: int, letters: tuple[int, ...]) -> int:
    """Cycles of the closure permutation."""
    perm = list(range(strands))
    for e in letters:
        i = abs(e) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    count = 0
    for start in range(strands):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


def free_reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for e in letters:
        if out and out[-1] == -e:
            out.pop()
        else:
            out.append(e)
    return tuple(out)


def connected(strands: int, letters) -> bool:
    return {abs(e) for e in letters} == set(range(1, strands))


def random_word(rng: random.Random, strands: int, length: int, negatives: int = -1,
                knot: bool = False) -> tuple[int, tuple[int, ...]]:
    """Random letters on every generator, no adjacent inverse pair.

    With ``negatives`` >= 0 the word is positive except for that many
    negative letters (the skein-tree cost of such words spreads far less
    than that of uniformly signed ones); with ``knot`` the closure has one
    component.
    """
    while True:
        if negatives >= 0:
            letters = [rng.randint(1, strands - 1) for _ in range(length)]
            for i in rng.sample(range(length), negatives):
                letters[i] = -letters[i]
        else:
            letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                       for _ in range(length)]
        word = tuple(letters)
        if free_reduce(word) != word or not connected(strands, word):
            continue
        if knot and components(strands, word) != 1:
            continue
        return strands, word


def word_text(letters) -> str:
    return " ".join(str(e) for e in letters)


# --- query builders ---------------------------------------------------------


def _q(argv, word=None, expect_exit=0, kind="good", **extra) -> dict:
    q = {"argv": [str(a) for a in argv], "expect_exit": expect_exit, "kind": kind}
    if word is not None:
        q["word"] = [word[0], list(word[1])]
    q.update(extra)
    return q


def _bad_inputs(extra_argv=()) -> list[dict]:
    """One of each documented bad-input class."""
    return [
        _q(["invariants", "1 1 1", "--strands", "3", "--seifert", "--json",
            *extra_argv], expect_exit=3, kind="bad-missing-generator"),
        _q(["invariants", "1 x 2", "--strands", "3", "--homfly", "--json",
            *extra_argv], expect_exit=2, kind="bad-word"),
        _q(["invariants", "--pd-file", "{pd}", "--khovanov", "--json"],
           expect_exit=2, kind="bad-pd-file", pd_text=BAD_PD_TEXT),
    ]


def _bounds_verbs(word, family_argv=None) -> list[list[str]]:
    n, letters = word
    verbs = [
        ["bounds", word_text(letters), "--strands", n, "--json"],
        ["invariants", word_text(letters), "--strands", n, "--homfly",
         "--seifert", "--json"],
    ]
    if family_argv is not None:
        verbs.append(["family", *family_argv, "--emit", "bounds", "--json"])
    return verbs


BOUNDS_FAMILY = (
    [(("elrifai-k", "--k", k), elrifai_k(k)) for k in (1, 2)]
    + [(("elrifai-l", "--k", k), elrifai_l(k)) for k in (1, 2)]
    + [
        (("bm", "--x", x, "--y", y, "--z", z, "--w", w), bm(x, y, z, w))
        for x, y, z, w in ((1, 1, 1, 1), (1, 1, 1, 2), (2, 1, 1, 1), (3, 1, 1, 1),
                           (1, 2, 1, 2), (1, 1, 2, 2), (2, 2, 2, 2))
    ]
    + [(("torus2", "--q", q), torus2(q)) for q in (3, 5, 11, 21, 31, 35, 41)]
)


RANDOM_BOUNDS_WORDS = 128
VERIFY_SECTION_3_CLAIMS = 7


def bounds_cold(seed: int) -> list[dict]:
    rng = random.Random(f"bounds-cold:{seed}")
    queries = []
    # Family members cycle through the three verbs in a fixed order, and the
    # bm words take a second verb, so that the heavy tail that sets
    # latency_p90_ms is the same for every seed.
    for i, (fam_argv, word) in enumerate(BOUNDS_FAMILY):
        verbs = _bounds_verbs(word, list(fam_argv))
        queries.append(_q(verbs[i % 3], word))
        if fam_argv[0] == "bm":
            queries.append(_q(verbs[(i + 1) % 3], word))
    for i in range(RANDOM_BOUNDS_WORDS):
        # Every shape gets the same share of each verb and sign pattern, so
        # that only the letters vary with the seed: the verb alternates, one
        # word in four has 4 strands, and every other pair of words has one
        # negative letter.
        negatives = (i // 2) % 2
        if (i // 4) % 4:
            word = random_word(rng, 3, 9, negatives=negatives)
        else:
            word = random_word(rng, 4, 7, negatives=negatives)
        queries.append(_q(_bounds_verbs(word)[i % 2], word))
    # The paper's Section 3 claims: the only caller of braid.destabilize.
    queries.append(_q(["verify-paper", "--section", "3", "--json"],
                      claims=VERIFY_SECTION_3_CLAIMS))
    for _ in range(2):
        queries.extend(_bad_inputs())
    rng.shuffle(queries)
    return queries


RANDOM_KNOTS = 67


def khovanov_cube(seed: int) -> list[dict]:
    rng = random.Random(f"khovanov-cube:{seed}")
    fixed = [torus2(q) for q in (7, 8, 9, 10)] + [elrifai_k(1), TORUS_3_5,
                                                  TORUS_3_5_MIRROR]
    fixed += [(3, letters) for letters in RESOLUTION_WORDS.values()]
    randoms = [random_word(rng, 3, 8, knot=True) for _ in range(RANDOM_KNOTS)]
    groups: list[list[dict]] = []
    for word in fixed + randoms:
        n, letters = word
        groups.append([_q(["invariants", word_text(letters), "--strands", n,
                           "--khovanov", "--json"], word)])
    # PD round trips: emit the diagram, then compute from the file.  With
    # them, the 11 slowest queries are always fixed closures of 0.15 s and
    # more, so that latency_p90_ms does not depend on the seed.
    round_trips = [torus2(8), torus2(9), TORUS_3_5, TORUS_3_5_MIRROR] + [
        (3, RESOLUTION_WORDS[label]) for label in ("00", "0--", "0-0")]
    for word in round_trips + [rng.choice(randoms)]:
        n, letters = word
        emit = _q(["invariants", word_text(letters), "--strands", n, "--emit-pd"],
                  word)
        read = _q(["invariants", "--pd-file", "{pd}", "--khovanov", "--json"],
                  word, pd_from=-1)
        groups.append([emit, read])
    for _ in range(2):
        groups.extend([q] for q in _bad_inputs())
    rng.shuffle(groups)
    queries = [q for g in groups for q in g]
    for i, q in enumerate(queries):
        if q.get("pd_from") == -1:  # the emit query just before it
            q["pd_from"] = i - 1
    return queries


def _conjugate(word, c) -> tuple[int, tuple[int, ...]]:
    n, letters = word
    inv = tuple(-e for e in reversed(c))
    return n, free_reduce(tuple(c) + letters + inv)


MARKOV_GROUPS = 90


def markov_cached(seed: int) -> list[dict]:
    rng = random.Random(f"markov-cached:{seed}")
    queries: list[dict] = []
    cache_argv = ["--homfly", "--seifert", "--json", "--cache-dir", "{cache}"]
    # Base words cycle through fixed shapes, so that only the letters vary
    # with the seed.
    shapes = [(3, 8), (3, 9), (4, 7)]
    for group in range(MARKOV_GROUPS):
        strands, length = shapes[group % len(shapes)]
        # Positive: with a negative letter in half the base words, the cost
        # of the stabilizations, which set latency_p90_ms, spread twice as
        # widely across seeds.  Conjugation still adds negative letters.
        base = random_word(rng, strands, length, negatives=0)
        n, letters = base
        members = [base]
        while len(members) < 3:
            c = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                      for _ in range(rng.randint(1, 2)))
            moved = _conjugate(base, c)
            if connected(n, moved[1]):
                members.append(moved)
        for shift in rng.sample(range(1, len(letters)), 2):
            members.append((n, letters[shift:] + letters[:shift]))
        members.append((n + 1, letters + (n,)))
        members.append((n + 1, letters + (-n,)))
        for w in members:
            queries.append(_q(["invariants", word_text(w[1]), "--strands", w[0],
                               *cache_argv], w, group=group))
    for _ in range(2):
        for bad in _bad_inputs(["--cache-dir", "{cache}"]):
            queries.insert(rng.randrange(len(queries) + 1), bad)
    return queries


GENERATORS = {
    "bounds-cold": bounds_cold,
    "khovanov-cube": khovanov_cube,
    "markov-cached": markov_cached,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
