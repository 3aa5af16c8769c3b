"""Command-line frontend.

Verbs: ``invariants`` (compute invariants of a braid word or an imported
planar diagram), ``family`` (built-in braid families), ``bounds``
(braid-index bound report), ``verify-paper`` (the reference verification
suite), ``cache`` (inspect or clear the result cache).

Exit codes: 0 success, 1 failed verification claim, 2 usage or parse
error (a ``BraidError``, or an unreadable file), 3 precondition failure
(a ``PreconditionFailed``: an input over one of the engines' budgets, or
outside the domain of the invariant asked for).
JSON output is deterministic: same input, byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import asdict, replace
from gettext import gettext
from typing import Optional

from . import braid
from .braid import BraidWord, BraidError, PreconditionFailed, parse_braid_word
from .bounds import kr_report, mfw_report
from .cache import ENV_VAR, INVARIANTS, InvariantRecord, ResultCache, key_string
from .homfly import homfly, packed_width
from .khovanov import (
    BigradedRanks,
    braid_to_pd,
    check_crossings,
    pd_from_text,
    pd_to_text,
    poincare_polynomial,
    reduced_khovanov,
)
from .laurent import AQPolynomial, to_aq
from .seifert import check_surface, seifert
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


def _compute(name: str, w: BraidWord, rep: BraidWord, knot: bool) -> dict:
    """Record fields for the invariant ``name`` of the closure of ``w``;
    ``rep`` is the closure key's word (see ``_invariant_payload``).
    HOMFLYPT is stored as it is printed, rendered here once.  The signature
    and the determinant come from one elimination, so asking for either
    gives both."""
    if name == "homfly":
        return {"homfly": _aq_payload(to_aq(homfly(rep)))}
    if name == "khovanov":
        scanned = (braid.scan_word(rep) if knot
                   else w.with_letters(braid.reduce_handles(w.letters)))
        check_crossings(len(scanned))
        return {"khovanov": reduced_khovanov(braid_to_pd(scanned)).triples()}
    sigma, det = seifert(w)
    return {"signature": sigma, "determinant": det}


def _invariant_payload(w: BraidWord, wanted: tuple[str, ...], cache: ResultCache) -> dict:
    """The printed payload of the ``wanted`` invariants (names from
    ``INVARIANTS``), each computed only if the cached record of the closure
    lacks it.  The record holds HOMFLYPT as it is printed, so a stored value
    goes out as it is; only a Khovanov table is rendered, from its ranks.

    The record is keyed by the closure key, and what depends only on the
    closure is computed from the key's word ``BraidWord(*key)``: HOMFLYPT,
    and a knot's reduced Khovanov table.  That word is cyclically reduced
    and destabilized; its rotation matters little to the scan, which picks
    its own start crossing.  The scan's cost grows with the crossings, so a
    knot is scanned from ``braid.scan_word`` of the key's word, the shortest
    word its bounded search finds for the same closure.  A link's table
    depends on which component carries the marked edge, so a link is
    scanned from ``braid.reduce_handles`` of ``w``, an equal braid; the
    Seifert surface is the query diagram's, so the signature and the
    determinant are computed from ``w``.

    A served record that this program wrote never changes the output or
    the exit code.  A record is checked for form, not recomputed, so a value
    edited by hand that keeps its stored form is printed as stored, until
    ``cache clear``.  What is computed from the key's word is refused, or
    not, for the key alone.
    The engines' checks that read ``w`` alone run on ``w`` before the
    lookup, so a word the engine refuses is refused even when a
    Markov-equivalent word has stored its values.
    """
    if "homfly" in wanted:
        packed_width(w)
    if "signature" in wanted or "determinant" in wanted:
        check_surface(w)
    # A record describes the closure, so it carries the strands and writhe
    # of the key's word, not of w.
    key = braid.canonical_closure_key(w)
    rep = BraidWord(*key)
    key_text = key_string(key)
    record = cache.load(key_text) or InvariantRecord.fresh(
        canonical_key=key_text, strands=rep.strands, writhe=braid.writhe(rep),
        components=braid.closure_components(w),
    )
    knot = record.components == 1
    missing: dict = {}
    for name in wanted:
        if getattr(record, name) is None and name not in missing:
            missing.update(_compute(name, w, rep, knot))
    if missing:
        record = replace(record, **missing)
        cache.store(record)
    payload: dict = {"word": str(w), "strands": w.strands,
                     "writhe": braid.writhe(w), "components": record.components}
    for name in wanted:
        value = getattr(record, name)
        if name == "khovanov":
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
    if args.emit_pd and (args.homfly or args.khovanov or args.seifert or args.all
                         or args.json or args.cache_dir):
        raise BraidError("--emit-pd takes only a braid word and --strands")
    if args.strands is None:
        raise BraidError("--strands is required with a braid word")
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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and each verb's subparser, built once per process
    (``parse_args`` leaves them as they are)."""
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

    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line and return its exit code.

    An argv that starts with a verb goes straight to that verb's parser,
    which skips the full parser's own pass over it; anything else (no
    argv, ``-h``, an unknown verb) goes to the full parser.  Either way the
    messages, usage lines and exit codes are the full parser's: a verb's
    errors and ``--help`` come from its parser in both, and leftover
    arguments are reported by the top-level parser, as ``parse_args`` does.
    """
    parser, verbs = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    verb = verbs.get(argv[0]) if argv else None
    try:
        if verb is None:
            args = parser.parse_args(argv)
        else:
            args, extras = verb.parse_known_args(argv[1:])
            if extras:
                parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except PreconditionFailed as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except (BraidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def entry() -> None:
    """The ``knotbound`` program: ``main`` on ``sys.argv``, with each warning
    printed to stderr as ``warning: <message>``, free of source locations."""
    warnings.formatwarning = _format_warning
    sys.exit(main())


if __name__ == "__main__":
    entry()
