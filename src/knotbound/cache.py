"""Advisory JSON-lines result cache keyed by a word-level closure key.

One record per closure, append-only with dedupe on store.  A corrupt line,
or a served invariant with malformed terms, is skipped with a warning and
recomputed; it never aborts a computation.  A record of another or no
``CACHE_VERSION`` is ignored without a warning, and the next store appends
a current one.  A link's reduced Khovanov table depends on which component
carries the marked edge, which conjugation moves, so it is never stored or
served.  The cache assumes a single writer: concurrent processes appending
to one file are not coordinated.  The location is an explicit directory or
the KNOTBOUND_CACHE environment variable; with neither, the cache is off.
"""

from __future__ import annotations

import json
import os
import typing
import warnings
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

ENV_VAR = "KNOTBOUND_CACHE"
_FILE_NAME = "invariants.jsonl"
# Bump when an engine's output or the record layout changes.
CACHE_VERSION = 3
# The computed fields of a record, in the order the CLI fills them.
INVARIANTS = ("homfly", "khovanov", "signature", "determinant")

__all__ = [
    "InvariantRecord", "ResultCache", "ENV_VAR", "CACHE_VERSION", "INVARIANTS",
    "key_string",
]


def key_string(key: tuple) -> str:
    """Flat string form of a canonical closure key, stable across runs."""

    def flat(obj) -> str:
        if isinstance(obj, tuple):
            return "(" + ",".join(flat(x) for x in obj) + ")"
        return str(obj)

    return flat(key)


@dataclass(frozen=True)
class InvariantRecord:
    """Immutable cached invariants of one closure."""

    canonical_key: str
    strands: int
    writhe: int
    components: int
    homfly: Optional[dict] = None  # {"terms": [[e_a, e_q, c]...], "clearing": m}
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
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "InvariantRecord":
        """Decode one cache line, a missing key read as None; raise
        ``ValueError`` unless each value has its field's type."""
        d = json.loads(line)
        try:
            values = tuple(map(d.get, _NAMES))
        except AttributeError:
            raise ValueError("not a JSON object") from None
        if not all(map(isinstance, values, _TYPES)):
            bad = next(n for n, v, t in zip(_NAMES, values, _TYPES) if not isinstance(v, t))
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


def _int_triples(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
        for t in value
    )


def _servable(rec: InvariantRecord) -> InvariantRecord:
    """``rec`` without invariants whose terms are corrupt (with a warning),
    and without a link's Khovanov table: that table depends on the marked
    component, and conjugates sharing the key may mark another one."""
    h, kh = rec.homfly, rec.khovanov
    corrupt = {
        "homfly": h is not None and not (
            _int_triples(h.get("terms")) and type(h.get("clearing")) is int),
        "khovanov": kh is not None and not _int_triples(kh),
    }
    drop = {name: None for name, bad in corrupt.items() if bad}
    if drop:
        warnings.warn(f"skipping corrupt cache fields {list(drop)} of {rec.canonical_key}")
    if kh is not None and rec.components != 1:
        drop["khovanov"] = None
    return replace(rec, **drop) if drop else rec


class ResultCache:
    """Load-once, append-on-store view of the JSONL cache file."""

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            directory = os.environ.get(ENV_VAR)
        self.path: Optional[Path] = Path(directory) / _FILE_NAME if directory else None
        self._records: dict[str, InvariantRecord] = {}
        self._loaded = False

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def _load(self) -> None:
        if self._loaded or self.path is None:
            return
        self._loaded = True
        if not self.path.exists():
            return
        try:
            text = self.path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            warnings.warn(f"cache read failed, continuing without it: {exc}")
            return
        records, from_json = self._records, InvariantRecord.from_json
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = from_json(line)
            except ValueError as exc:
                warnings.warn(f"skipping corrupt cache line {lineno}: {exc}")
                continue
            if rec.version != CACHE_VERSION:
                continue
            known = records.get(rec.canonical_key)
            records[rec.canonical_key] = rec.merged_with(known) if known else rec

    def load(self, key: str) -> Optional[InvariantRecord]:
        """The record of ``key``, with only the invariants it can serve."""
        self._load()
        rec = self._records.get(key)
        if rec is not None:
            rec = self._records[key] = _servable(rec)
        return rec

    def store(self, record: InvariantRecord) -> None:
        """Append the record unless an equal-or-richer one is present."""
        if self.path is None:
            return
        self._load()
        known = self._records.get(record.canonical_key)
        record = _servable(record.merged_with(known) if known else record)
        if record == known:
            return
        self._records[record.canonical_key] = record
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(record.to_json() + "\n")
                fh.flush()
        except OSError as exc:
            warnings.warn(f"cache write failed, continuing without it: {exc}")

    def records(self) -> list[InvariantRecord]:
        self._load()
        return sorted(self._records.values(), key=lambda r: r.canonical_key)

    def clear(self) -> None:
        if self.path is not None and self.path.exists():
            self.path.unlink()
        self._records = {}
        self._loaded = True
