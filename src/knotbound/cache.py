"""Advisory JSON-lines result cache keyed by a Markov-stable closure key.

One record per closure, append-only with dedupe on store.  The key is
``braid.canonical_closure_key``: the cyclically reduced word, destabilized
while its top generator occurs exactly once, at its least rotation.  Equal
keys mean isotopic oriented closures, and every stored invariant is one of
the oriented link, so a record serves every conjugate and stabilization of
its key's word.  A record carries the strand count and writhe of its key's
word, so that all records of one key agree; a query prints its own.  A
lookup of key k decodes only k's lines and the lines with no readable key,
and skips the lines that carry another key; ``records`` (``cache list``)
decodes all.  Both find their lines by one walk over the file's bytes,
without splitting it into lines (``_key_lines``): ``find`` walks the
occurrences of k's field, or for ``records`` of the key mark that every
record line holds, and one regular-expression scan finds the line breaks
not followed by ``_RECORD_OPEN``, after which alone a line with no key can
start.  Warnings number lines as ``bytes.splitlines`` does, counted on from
the line last warned about, so a read is linear in the file.  A corrupt line
(not UTF-8, or not a record of well-typed fields), or a served invariant
not in its stored form, is skipped with a warning and recomputed; it never
aborts a computation, and the next append starts on a line of its own.  A
record is checked for form, not recomputed: a value edited by hand that
keeps its stored form is served as stored, and ``cache clear`` makes the
program recompute.  A lookup warns only about lines it could serve: a
corrupt line of another key is reported by ``cache list`` and by lookups of
that key.  A record of another or no ``CACHE_VERSION`` is ignored without a
warning, and the next store appends a current one.  A link's reduced
Khovanov table depends on which component carries the marked edge, which
conjugation moves, so it is never stored or served.
The cache assumes a single writer: concurrent processes appending to one
file are not coordinated.  The location is an explicit directory or the
KNOTBOUND_CACHE environment variable; with neither, the cache is off.

``CACHE_VERSION`` 4 stores HOMFLYPT as the CLI prints it: the terms in
descending (e_a, e_q) order, the clearing exponent and the rendered text, so a
served record is printed as it is, with no rebuild or render.  A stored value
not in that form is corrupt.  A version-3 record holds only the terms and the
clearing; like any record of another version it is ignored, and the closure
is computed once more.
"""

from __future__ import annotations

import json
import os
import re
import typing
import warnings
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from typing import Optional

ENV_VAR = "KNOTBOUND_CACHE"
_FILE_NAME = "invariants.jsonl"
# Bump when an engine's output or the record layout changes.
CACHE_VERSION = 4
# Every line is written with sort_keys and json's default separators, so the
# line of key k holds _KEY_FIELD + json.dumps(k).
_KEY_FIELD = b'"canonical_key": '
_KEY_MARK = _KEY_FIELD + b'"'
# canonical_key sorts first, so every line this program writes opens with
# _RECORD_OPEN; a \n followed by neither it nor the end of the file starts a
# line that may hold no mark.
_RECORD_OPEN = b"{" + _KEY_MARK
_LOOSE_BREAK = re.compile(rb"\n(?!" + re.escape(_RECORD_OPEN) + rb"|\Z)")
_BREAK = re.compile(rb"[\r\n]")
# The computed fields of a record, in the order the CLI prints them.
INVARIANTS = ("homfly", "khovanov", "signature", "determinant")

__all__ = [
    "InvariantRecord", "ResultCache", "ENV_VAR", "CACHE_VERSION", "INVARIANTS",
    "key_string",
]


def key_string(key) -> str:
    """Flat string form of a canonical closure key, stable across runs."""
    if isinstance(key, tuple):
        return "(" + ",".join(map(key_string, key)) + ")"
    return str(key)


@dataclass(frozen=True)
class InvariantRecord:
    """Immutable cached invariants of one closure."""

    canonical_key: str
    strands: int
    writhe: int
    components: int
    # As the CLI prints it: {"terms": [[e_a, e_q, c]...], "clearing": m, "text": s}
    homfly: Optional[dict] = None
    khovanov: Optional[list] = None  # [[I, J, rank]...]
    signature: Optional[int] = None
    determinant: Optional[int] = None
    created: str = ""
    version: Optional[int] = CACHE_VERSION

    @staticmethod
    def fresh(**kwargs) -> "InvariantRecord":
        kwargs.setdefault(
            "created", datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
        return InvariantRecord(**kwargs)

    def to_json(self) -> str:
        return json.dumps({n: getattr(self, n) for n in _NAMES}, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "InvariantRecord":
        """Decode one cache line, a missing key read as None; raise
        ``ValueError`` unless each value has its field's type."""
        d = json.loads(line)
        try:
            values = tuple(map(d.get, _NAMES))
        except AttributeError:
            raise ValueError("not a JSON object") from None
        if not all(map(isinstance, values, _TYPES)) or bool in map(type, values):
            bad = next(n for n, v, t in zip(_NAMES, values, _TYPES)
                       if not isinstance(v, t) or type(v) is bool)
            raise ValueError(f"field {bad} is missing or of the wrong type")
        return InvariantRecord(*values)

    def merged_with(self, other: "InvariantRecord") -> "InvariantRecord":
        """Fill missing invariant fields from ``other``, an earlier record of
        the same key, and keep its ``created`` stamp."""
        missing = {n: getattr(other, n) for n in INVARIANTS if getattr(self, n) is None}
        return replace(self, created=other.created or self.created, **missing)


_NAMES = tuple(f.name for f in fields(InvariantRecord))
_HINTS = typing.get_type_hints(InvariantRecord)
# isinstance() targets: Optional[dict] -> (dict, NoneType), int -> int.
_TYPES = tuple(typing.get_args(_HINTS[n]) or _HINTS[n] for n in _NAMES)


def _line_end(data: bytes, i: int) -> int:
    r"""End offset of the ``splitlines`` line of ``data`` that holds offset
    ``i``: the next ``\n`` or ``\r``, or the end of ``data``."""
    m = _BREAK.search(data, i)
    return m.start() if m else len(data)


def _key_lines(data: bytes, needle: bytes) -> list[tuple[int, int]]:
    r"""The (start, end) offsets, in file order, of the ``splitlines`` lines of
    ``data`` that hold ``needle`` or hold no ``_KEY_MARK``.  With
    ``_KEY_MARK`` as the needle, that is every line.

    Both searches run over the bytes, not line by line, and each reads a
    byte a bounded number of times, so the walk is linear in ``data``.
    ``find`` walks the occurrences of ``needle``; the start of each one's
    line is the last break between it and the end of the line before.  A
    line with no mark cannot open a record, so it starts the file, or
    follows a lone ``\r`` or a ``\n`` that opens no record;
    ``_LOOSE_BREAK`` finds those ``\n`` in one scan.  Only the lines found
    are sliced out of ``data``; a file this program wrote has no loose
    break, so a lookup slices out only its key's lines.
    """
    spans = {}
    end = 0
    i = data.find(needle)
    while i >= 0:
        start = max(data.rfind(b"\n", end, i), data.rfind(b"\r", end, i)) + 1
        end = spans[start] = _line_end(data, i)
        i = data.find(needle, end)
    loose = [m.end() for m in _LOOSE_BREAK.finditer(data)]
    if not data.startswith(_RECORD_OPEN):
        loose.append(0)
    r = data.find(b"\r")
    while r >= 0:
        if data[r + 1:r + 2] != b"\n":
            loose.append(r + 1)
        r = data.find(b"\r", r + 1)
    for start in loose:
        end = _line_end(data, start)
        if start not in spans and data.find(_KEY_MARK, start, end) < 0:
            spans[start] = end
    return sorted(spans.items())


def _int_triples(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
        for t in value
    )


def _printed_aq(h: dict) -> bool:
    """Whether ``h`` is a HOMFLYPT payload as the CLI prints it: int triples
    in strictly descending (e_a, e_q) order with nonzero coefficients, an
    int clearing exponent >= 0 and the rendered text, and nothing else."""
    if h.keys() != {"terms", "clearing", "text"}:
        return False
    terms, clearing = h["terms"], h["clearing"]
    if not (type(terms) is list and type(clearing) is int and clearing >= 0
            and type(h["text"]) is str):
        return False
    above = None
    for t in terms:
        if type(t) is not list or len(t) != 3:
            return False
        ea, eq, c = t
        if not (type(ea) is type(eq) is type(c) is int and c
                and (above is None or above > (ea, eq))):
            return False
        above = ea, eq
    return True


def _servable(rec: InvariantRecord) -> InvariantRecord:
    """``rec`` without invariants not in their stored form (with a warning),
    and without a link's Khovanov table: that table depends on the marked
    component, and conjugates sharing the key may mark another one."""
    h, kh = rec.homfly, rec.khovanov
    corrupt = {
        "homfly": h is not None and not _printed_aq(h),
        "khovanov": kh is not None and not _int_triples(kh),
    }
    drop = {name: None for name, bad in corrupt.items() if bad}
    if drop:
        warnings.warn(f"skipping corrupt cache fields {list(drop)} of {rec.canonical_key}")
    if kh is not None and rec.components != 1:
        drop["khovanov"] = None
    return replace(rec, **drop) if drop else rec


class ResultCache:
    """Append-on-store view of the JSONL cache file.  A lookup reads the file
    once and decodes only the lines that can hold its key; ``records``
    decodes all."""

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            directory = os.environ.get(ENV_VAR)
        self.path: Optional[str] = os.path.join(directory, _FILE_NAME) if directory else None
        # The servable merged record, or None, of each key looked up so far.
        self._records: dict[str, Optional[InvariantRecord]] = {}
        # The file ends inside a line, so the next append starts a new one.
        self._torn = False

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def _read(self, key: Optional[str]) -> dict[str, InvariantRecord]:
        """Current-version records of the file, merged per key in file order:
        of ``key`` alone, or of every key when ``key`` is None.

        Only the lines ``_key_lines`` finds are sliced out and decoded: with
        a key, those holding its field and those with no key mark; without
        one, every line.  A warning's line number is counted on from the
        last one warned about, so the count reads each byte once."""
        if self.path is None:
            return {}
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            return {}
        except OSError as exc:
            warnings.warn(f"cache read failed, continuing without it: {exc}")
            return {}
        self._torn = data[-1:] not in (b"", b"\n")
        needle = _KEY_MARK if key is None else _KEY_FIELD + json.dumps(key).encode()
        records, from_json = {}, InvariantRecord.from_json
        lineno, counted = 1, 0
        for start, end in _key_lines(data, needle):
            line = data[start:end]
            if not line.strip():
                continue
            try:
                # A line that is not UTF-8 raises UnicodeDecodeError, a ValueError.
                rec = from_json(line.decode())
            except ValueError as exc:
                lineno += (data.count(b"\n", counted, start)
                           + data.count(b"\r", counted, start)
                           - data.count(b"\r\n", counted, start))
                counted = start
                warnings.warn(f"skipping corrupt cache line {lineno}: {exc}")
                continue
            if rec.version != CACHE_VERSION or (
                    key is not None and rec.canonical_key != key):
                continue
            known = records.get(rec.canonical_key)
            records[rec.canonical_key] = rec.merged_with(known) if known else rec
        return records

    def load(self, key: str) -> Optional[InvariantRecord]:
        """The record of ``key``, with only the invariants it can serve."""
        if key not in self._records:
            rec = self._read(key).get(key)
            self._records[key] = None if rec is None else _servable(rec)
        return self._records[key]

    def store(self, record: InvariantRecord) -> None:
        """Append the record unless an equal-or-richer one is present."""
        if self.path is None:
            return
        key = record.canonical_key
        # Not loaded again: perfbench's tracer counts each load as a lookup.
        known = self._records[key] if key in self._records else self.load(key)
        record = _servable(record.merged_with(known) if known else record)
        if record == known:
            return
        self._records[key] = record
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with open(self.path, "a") as fh:
                fh.write(("\n" if self._torn else "") + record.to_json() + "\n")
                fh.flush()
            self._torn = False
        except OSError as exc:
            warnings.warn(f"cache write failed, continuing without it: {exc}")

    def records(self) -> list[InvariantRecord]:
        return sorted(self._read(None).values(), key=lambda r: r.canonical_key)

    def clear(self) -> None:
        if self.path is not None and os.path.exists(self.path):
            os.remove(self.path)
        self._records = {}
