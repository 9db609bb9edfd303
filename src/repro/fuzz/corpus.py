"""The replayable regression corpus: one JSON file per spec.

Every counterexample the fuzzer ever finds — and every hand-curated
tricky shape — lives in ``tests/corpus/*.json``.  CI replays the whole
directory through the oracle on every run, so a scheduler regression
that re-breaks an old counterexample fails immediately instead of
waiting for the nightly fuzz job to rediscover it.

Entries are written atomically (temp file + ``os.replace``) so a fuzz
campaign interrupted mid-save never leaves a truncated JSON file that
would poison future replays.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from ..errors import FuzzError
from .spec import ProgramSpec

#: Bumped when the entry envelope changes incompatibly.  The
#: ``max_instructions`` / ``expect`` fields are additive (readers
#: default them), so they did not bump it.
CORPUS_FORMAT_VERSION = 1

#: Replay expectations (:attr:`CorpusEntry.expect`).
EXPECT_OK = "ok"
EXPECT_CLASSIC_FAULT = "classic-fault"


@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    """One committed spec plus the context a future reader needs."""

    spec: ProgramSpec
    description: str = ""
    source: str = ""  # e.g. "repro fuzz --seed 7" or "hand-written"
    #: Restrict replay to these policies (None = all).
    policies: Optional[Tuple[str, ...]] = None
    #: Override the replay instruction budget (None = the replay
    #: default).  Budget-exhaustion entries need a budget small enough
    #: to trip mid-run.
    max_instructions: Optional[int] = None
    #: What a healthy replay looks like: ``"ok"`` (the oracle passes) or
    #: ``"classic-fault"`` (the classic run itself faults — the entry
    #: exists to pin fault parity, so an *invalid* verdict is success).
    expect: str = EXPECT_OK

    @property
    def name(self) -> str:
        return self.spec.name

    def to_json(self) -> dict:
        return {
            "format": CORPUS_FORMAT_VERSION,
            "description": self.description,
            "source": self.source,
            "policies": list(self.policies) if self.policies else None,
            "max_instructions": self.max_instructions,
            "expect": self.expect,
            "spec": self.spec.to_json(),
        }

    @classmethod
    def from_json(cls, payload: object) -> "CorpusEntry":
        if not isinstance(payload, dict):
            raise FuzzError(f"corpus entry is a JSON {type(payload).__name__}")
        version = payload.get("format")
        if version != CORPUS_FORMAT_VERSION:
            raise FuzzError(
                f"unsupported corpus format {version!r} "
                f"(expected {CORPUS_FORMAT_VERSION})"
            )
        if "spec" not in payload:
            raise FuzzError("corpus entry has no 'spec' field")
        policies = payload.get("policies")
        expect = str(payload.get("expect", EXPECT_OK))
        if expect not in (EXPECT_OK, EXPECT_CLASSIC_FAULT):
            raise FuzzError(f"unknown corpus expectation {expect!r}")
        max_instructions = payload.get("max_instructions")
        try:
            policies = tuple(map(str, policies)) if policies else None
            max_instructions = (
                int(max_instructions) if max_instructions is not None else None
            )
        except (TypeError, ValueError) as error:
            raise FuzzError(f"bad corpus entry field: {error}") from None
        return cls(
            spec=ProgramSpec.from_json(payload["spec"]),
            description=str(payload.get("description", "")),
            source=str(payload.get("source", "")),
            policies=policies,
            max_instructions=max_instructions,
            expect=expect,
        )


def entry_filename(entry: CorpusEntry) -> str:
    """``<name>-<digest>.json`` — readable and collision-free."""
    return f"{entry.spec.name}-{entry.spec.digest()}.json"


def save_entry(directory: Union[str, Path], entry: CorpusEntry) -> Path:
    """Atomically write *entry* into *directory*; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / entry_filename(entry)
    payload = json.dumps(entry.to_json(), indent=2, sort_keys=True) + "\n"
    fd, temp_name = tempfile.mkstemp(
        dir=str(directory), prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(temp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise
    return path


def load_entry(path: Union[str, Path]) -> CorpusEntry:
    """Load one corpus entry; malformed files raise :class:`FuzzError`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise FuzzError(f"unreadable corpus entry {path}: {error}") from None
    try:
        return CorpusEntry.from_json(payload)
    except FuzzError as error:
        raise FuzzError(f"malformed corpus entry {path}: {error}") from None


def corpus_paths(directory: Union[str, Path]) -> List[Path]:
    """Every committed entry, in deterministic (sorted) order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        path for path in directory.glob("*.json") if not path.name.startswith(".")
    )


def load_corpus(directory: Union[str, Path]) -> List[CorpusEntry]:
    """Load every entry in *directory* (sorted by filename).

    A committed entry that fails to parse is a repository bug, so this
    raises rather than skipping: silently dropping a regression test is
    worse than a loud CI failure.
    """
    return [load_entry(path) for path in corpus_paths(directory)]


def digests(entries: Iterable[CorpusEntry]) -> set:
    """Spec digests of *entries* (for duplicate suppression)."""
    return {entry.spec.digest() for entry in entries}


__all__ = [
    "CORPUS_FORMAT_VERSION",
    "EXPECT_CLASSIC_FAULT",
    "EXPECT_OK",
    "CorpusEntry",
    "corpus_paths",
    "digests",
    "entry_filename",
    "load_corpus",
    "load_entry",
    "save_entry",
]
