"""Advisory JSON-lines result cache keyed by a word-level closure key.

One record per closure, append-only with dedupe on store; a corrupted line
is skipped with a warning and never aborts a computation.  Every record
carries ``CACHE_VERSION``; a record of another or no version is ignored
without a warning, and the next store appends a current one.  The cache
assumes a single writer: concurrent processes appending to one file are
not coordinated.  The cache location comes from an explicit directory
argument or the KNOTBOUND_CACHE environment variable; with neither set the
cache is silently disabled.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

ENV_VAR = "KNOTBOUND_CACHE"
_FILE_NAME = "invariants.jsonl"
# Bump when an engine's output or the record layout changes.
CACHE_VERSION = 2

__all__ = ["InvariantRecord", "ResultCache", "ENV_VAR", "CACHE_VERSION", "key_string"]


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
        payload = {
            "canonical_key": self.canonical_key,
            "strands": self.strands,
            "writhe": self.writhe,
            "components": self.components,
            "homfly": self.homfly,
            "khovanov": self.khovanov,
            "signature": self.signature,
            "determinant": self.determinant,
            "created": self.created,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "InvariantRecord":
        d = json.loads(line)
        return InvariantRecord(
            canonical_key=d["canonical_key"],
            strands=int(d["strands"]),
            writhe=int(d["writhe"]),
            components=int(d["components"]),
            homfly=d.get("homfly"),
            khovanov=d.get("khovanov"),
            signature=d.get("signature"),
            determinant=d.get("determinant"),
            created=d.get("created", ""),
            version=d.get("version"),
        )

    def merged_with(self, other: "InvariantRecord") -> "InvariantRecord":
        """Fill missing invariant fields from ``other``, an earlier record of
        the same key, and keep its ``created`` stamp."""
        return InvariantRecord(
            canonical_key=self.canonical_key,
            strands=self.strands,
            writhe=self.writhe,
            components=self.components,
            homfly=self.homfly if self.homfly is not None else other.homfly,
            khovanov=self.khovanov if self.khovanov is not None else other.khovanov,
            signature=self.signature if self.signature is not None else other.signature,
            determinant=(
                self.determinant if self.determinant is not None else other.determinant
            ),
            created=other.created or self.created,
        )


class ResultCache:
    """Load-once, append-on-store view of the JSONL cache file."""

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            directory = os.environ.get(ENV_VAR)
        self.path: Optional[Path] = (
            Path(directory) / _FILE_NAME if directory else None
        )
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
        except OSError as exc:
            warnings.warn(f"cache read failed, continuing without it: {exc}")
            return
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = InvariantRecord.from_json(line)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                warnings.warn(f"skipping corrupt cache line {lineno}: {exc}")
                continue
            if rec.version != CACHE_VERSION:
                continue
            known = self._records.get(rec.canonical_key)
            self._records[rec.canonical_key] = (
                rec.merged_with(known) if known else rec
            )

    def load(self, key: str) -> Optional[InvariantRecord]:
        self._load()
        return self._records.get(key)

    def store(self, record: InvariantRecord) -> None:
        """Append the record unless an equal-or-richer one is present."""
        if self.path is None:
            return
        self._load()
        known = self._records.get(record.canonical_key)
        if known is not None:
            merged = record.merged_with(known)
            if merged == known:
                return
            record = merged
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
