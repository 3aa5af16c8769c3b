"""Command-line frontend.

Verbs: ``invariants`` (compute invariants of a braid word or an imported
planar diagram), ``family`` (built-in braid families), ``bounds``
(braid-index bound report), ``verify-paper`` (the reference verification
suite), ``cache`` (inspect or clear the result cache).

Exit codes: 0 success, 1 failed verification claim, 2 usage or parse
error, 3 precondition failure (e.g. a disconnected Seifert surface, or an
input over the strand budget, the Khovanov object budget, the HOMFLYPT
term or packed-width budget, or the Seifert matrix budget).
JSON output is deterministic: same input, byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from typing import Optional

from . import braid
from .braid import BraidWord, BraidError, TooManyStrands, parse_braid_word
from .bounds import InvertedSpan, ParityError, SpanOffLines, kr_report, mfw_report
from .cache import ENV_VAR, INVARIANTS, InvariantRecord, ResultCache, key_string
from .homfly import TooManyTerms, TooWide, homfly, packed_width
from .khovanov import (
    BigradedRanks,
    TooManyCrossings,
    braid_to_pd,
    pd_from_text,
    pd_to_text,
    poincare_polynomial,
    reduced_khovanov,
)
from .laurent import AQPolynomial, to_aq
from .seifert import (
    DisconnectedSurface,
    NotAKnot,
    TooManyLoops,
    check_surface,
    determinant,
    signature,
)
from .verify import run_claims

USAGE_ERROR = 2
PRECONDITION_ERROR = 3


def _aq_payload(aq: AQPolynomial) -> dict:
    return {"terms": aq.triples(), "clearing": aq.clearing, "text": aq.render()}


def _kh_payload(ranks: BigradedRanks) -> dict:
    return {"ranks": ranks.triples(), "poincare": poincare_polynomial(ranks)}


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            value = value.get("text") or value.get("poincare") or value
        print(f"{key}: {value}")


def _compute(name: str, w: BraidWord, knot_key: Optional[tuple]):
    """One invariant of the closure of ``w``, in its cache-record form.

    ``knot_key`` is the closure key of ``w`` when ``w`` closes to a knot,
    else None; a knot's Khovanov table is scanned from the key's word.
    """
    if name == "homfly":
        aq = to_aq(homfly(w))
        return {"terms": aq.triples(), "clearing": aq.clearing}
    if name == "khovanov":
        scan = BraidWord(*knot_key) if knot_key else w
        return reduced_khovanov(braid_to_pd(scan)).triples()
    return signature(w) if name == "signature" else determinant(w)


def _invariant_payload(w: BraidWord, wanted: tuple[str, ...], cache: ResultCache) -> dict:
    """Render the ``wanted`` invariants (names from ``INVARIANTS``), each
    computed only if the cached record of the closure lacks it.

    A knot's reduced Khovanov table depends only on the knot, so it is
    scanned from the diagram of the key word ``BraidWord(*key)``.  That word
    is cyclically reduced and destabilized, and as the least rotation it
    starts with a longest run of its most negative letter, which keeps the
    scan's complexes small.  A link's table depends on which component
    carries the marked edge, so a link is scanned from its own diagram.
    The other invariants are computed from ``w``.

    A served record never changes the output or the exit code: the engines'
    checks that read the word alone run on ``w`` before the lookup, so a
    word the engine refuses is refused even when a Markov-equivalent word
    has stored its values.
    """
    if "homfly" in wanted:
        packed_width(w)
    if "signature" in wanted or "determinant" in wanted:
        check_surface(w)
    # The cache needs the closure key, and so does a knot's Khovanov scan.
    # A record describes the closure, so it carries the strands and writhe
    # of the key's word, not of w.
    needs_key = cache.enabled or "khovanov" in wanted
    key = braid.canonical_closure_key(w) if needs_key else None
    key_text = key_string(key) if key else None
    record = cache.load(key_text) if cache.enabled else None
    if record is None:
        rep = BraidWord(*key) if key else w
        record = InvariantRecord.fresh(
            canonical_key=key_text, strands=rep.strands, writhe=braid.writhe(rep),
            components=braid.closure_components(w),
        )
    knot_key = key if record.components == 1 else None
    missing = {n: _compute(n, w, knot_key) for n in wanted if getattr(record, n) is None}
    if missing:
        record = replace(record, **missing)
        if cache.enabled:
            cache.store(record)
    payload: dict = {"word": str(w), "strands": w.strands,
                     "writhe": braid.writhe(w), "components": record.components}
    for name in wanted:
        value = getattr(record, name)
        if name == "homfly":
            value = _aq_payload(AQPolynomial.from_dict(
                {(ea, eq): c for ea, eq, c in value["terms"]}, value["clearing"]
            ))
        elif name == "khovanov":
            value = _kh_payload(BigradedRanks.from_dict({(i, j): r for i, j, r in value}))
        payload[name] = value
    return payload


def _cmd_invariants(args) -> int:
    if args.pd_file:
        if (args.word or args.strands is not None or args.homfly or args.seifert
                or args.all or args.emit_pd or args.cache_dir):
            raise BraidError("--pd-file takes only --khovanov and --json")
        try:
            with open(args.pd_file, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise BraidError(f"{args.pd_file} is not UTF-8 text: {exc.reason}") from None
        _emit({"khovanov": _kh_payload(reduced_khovanov(pd_from_text(text)))}, args.json)
        return 0
    w = parse_braid_word(args.word, args.strands)
    if args.emit_pd:
        sys.stdout.write(pd_to_text(braid_to_pd(w)))
        return 0
    chosen = {"homfly": args.homfly, "khovanov": args.khovanov,
              "signature": args.seifert, "determinant": args.seifert}
    wanted = tuple(n for n in INVARIANTS if args.all or chosen[n]) or ("homfly",)
    _emit(_invariant_payload(w, wanted, ResultCache(args.cache_dir)), args.json)
    return 0


def _family_from_args(args) -> BraidWord:
    build, params = braid.FAMILIES[args.kind]
    values = [getattr(args, p) for p in params]
    if None in values:
        raise BraidError(f"{args.kind} requires " + " ".join(f"--{p}" for p in params))
    return build(*values)


def _bound_payload(w: BraidWord, delta_minus, delta_plus) -> dict:
    if (delta_minus is None) != (delta_plus is None):
        raise BraidError("supply both --delta-minus and --delta-plus or neither")
    if delta_minus is not None:
        return kr_report(w, delta_minus, delta_plus).as_dict()
    return mfw_report(w).as_dict()


def _cmd_family(args) -> int:
    w = _family_from_args(args)
    if args.emit == "word":
        if args.json:
            print(json.dumps({"strands": w.strands, "word": str(w)}, sort_keys=True))
        else:
            print(str(w))
        return 0
    if args.emit == "invariants":
        payload = _invariant_payload(w, INVARIANTS, ResultCache(args.cache_dir))
    else:
        payload = _bound_payload(w, args.delta_minus, args.delta_plus)
    _emit(payload, args.json)
    return 0


def _cmd_bounds(args) -> int:
    w = parse_braid_word(args.word, args.strands)
    _emit(_bound_payload(w, args.delta_minus, args.delta_plus), args.json)
    return 0


def _cmd_verify(args) -> int:
    results = run_claims(args.section)
    if args.json:
        print(json.dumps(results, sort_keys=True))
    else:
        for r in results:
            mark = "PASS" if r["passed"] else "FAIL"
            print(f"[{mark}] {r['section']}:{r['name']} - {r['detail']}")
        n_pass = sum(r["passed"] for r in results)
        print(f"{n_pass}/{len(results)} claims passed")
    return 0 if all(r["passed"] for r in results) else 1


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if not cache.enabled:
        print(f"no cache directory configured (use --cache-dir or {ENV_VAR})",
              file=sys.stderr)
        return USAGE_ERROR
    if args.action == "clear":
        cache.clear()
        return 0
    records = cache.records()
    if args.json:
        print(json.dumps([asdict(r) for r in records], sort_keys=True))
    else:
        for r in records:
            fields = [name for name in INVARIANTS if getattr(r, name) is not None]
            print(f"{r.canonical_key}  strands={r.strands} writhe={r.writhe} "
                  f"components={r.components} fields={','.join(fields) or '-'}")
        print(f"{len(records)} record(s)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (``parse_args`` leaves it as is)."""
    parser = argparse.ArgumentParser(
        prog="knotbound",
        description="Braid-closure knot invariants and braid-index bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariants of a braid closure")
    p_inv.add_argument("word", nargs="?", default="", help="whitespace-separated letters")
    p_inv.add_argument("--strands", type=int, default=None)
    p_inv.add_argument("--homfly", action="store_true")
    p_inv.add_argument("--khovanov", action="store_true")
    p_inv.add_argument("--seifert", action="store_true")
    p_inv.add_argument("--all", action="store_true")
    p_inv.add_argument("--json", action="store_true")
    p_inv.add_argument("--cache-dir", default=None)
    p_inv.add_argument("--emit-pd", action="store_true",
                       help="print the planar diagram of the closure and exit")
    p_inv.add_argument("--pd-file", default=None,
                       help="read a planar diagram file instead of a braid word")
    p_inv.set_defaults(func=_cmd_invariants)

    p_fam = sub.add_parser("family", help="built-in braid families")
    p_fam.add_argument("kind", choices=list(braid.FAMILIES))
    for name in "kxyzwq":
        p_fam.add_argument(f"--{name}", type=int, default=None)
    p_fam.add_argument("--label", default=None, choices=list(braid.RESOLUTION_LABELS))
    p_fam.add_argument("--emit", choices=["word", "invariants", "bounds"], default="word")
    p_fam.add_argument("--delta-minus", type=int, default=None)
    p_fam.add_argument("--delta-plus", type=int, default=None)
    p_fam.add_argument("--json", action="store_true")
    p_fam.add_argument("--cache-dir", default=None)
    p_fam.set_defaults(func=_cmd_family)

    p_bnd = sub.add_parser("bounds", help="braid-index bound report for a word")
    p_bnd.add_argument("word")
    p_bnd.add_argument("--strands", type=int, required=True)
    p_bnd.add_argument("--delta-minus", type=int, default=None)
    p_bnd.add_argument("--delta-plus", type=int, default=None)
    p_bnd.add_argument("--json", action="store_true")
    p_bnd.set_defaults(func=_cmd_bounds)

    p_ver = sub.add_parser("verify-paper", help="run the reference verification suite")
    p_ver.add_argument("--section", choices=["1", "2", "3", "4", "all"], default="all")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("action", choices=["list", "clear"])
    p_cache.add_argument("--cache-dir", default=None)
    p_cache.add_argument("--json", action="store_true")
    p_cache.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.command == "invariants" and not args.pd_file and args.strands is None:
        print("error: --strands is required with a braid word", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (DisconnectedSurface, NotAKnot, TooManyCrossings, TooManyLoops,
            TooManyStrands, TooManyTerms, TooWide) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except (BraidError, ParityError, InvertedSpan, SpanOffLines, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
