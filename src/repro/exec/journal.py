"""Crash-safe run journal for resumable sweeps.

A long sweep killed at task 173 of 200 should not cost 172 re-runs.
:class:`RunJournal` is an append-only JSONL file the *parent* process
writes one line to per finished task — flushed and fsynced, so the
journal survives a hard kill mid-sweep with at worst one truncated
trailing line (which the loader discards).  A resumed run
(``run_sweep(..., journal_path=..., resume=True)``) serves every task
whose journal record is terminal (``ok`` / ``infeasible``) straight
from the journal and dispatches only the rest; ``error`` and
``timeout`` records are deliberately *not* terminal, so crashed points
get another chance on resume.

The first line is a header carrying the :func:`~repro.exec.cache.code_salt`
the journal was written under.  Resuming against different simulator
code raises — a journal entry is only as trustworthy as the code that
produced it, exactly like a cache entry.

:class:`~repro.exec.context.RetryPolicy` bounds how the executor
fights back before a task lands in the journal as a failure: per-task
wall-clock timeouts (process pools only — a serial run has no one to
cut the task loose) and bounded retries with deterministic exponential
backoff.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path

from ..errors import ConfigurationError
from .cache import code_salt

__all__ = ["RunJournal"]

#: Journal format version; bump on incompatible line-schema changes.
_JOURNAL_FORMAT = 1

#: Statuses a resume treats as done (everything else re-runs).
TERMINAL_STATUSES = frozenset({"ok", "infeasible"})


def _encode_value(value: object) -> str:
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_value(blob: str) -> object:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


class RunJournal:
    """Append-only JSONL progress record for one sweep run.

    One ``header`` line (format version + code salt), then one
    ``outcome`` line per finished task keyed by the task's spec digest.
    Values of ``ok`` outcomes ride along as base64 pickles, so a resume
    needs neither the result cache nor a re-run to reproduce them.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False):
        self.path = Path(path)
        #: digest -> latest outcome record (a later line wins).
        self._records: dict[str, dict] = {}
        if resume and self.path.exists():
            self._load()
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._append(
                {"kind": "header", "format": _JOURNAL_FORMAT, "salt": code_salt()}
            )

    # -- persistence -------------------------------------------------------------

    def _append(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _load(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise ConfigurationError(f"journal {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as err:
            raise ConfigurationError(
                f"journal {self.path} has a corrupt header"
            ) from err
        if header.get("kind") != "header" or header.get("format") != _JOURNAL_FORMAT:
            raise ConfigurationError(
                f"journal {self.path} has an unrecognized header: {header!r}"
            )
        if header.get("salt") != code_salt():
            raise ConfigurationError(
                f"journal {self.path} was written under different simulator "
                "code; its results cannot be trusted — delete it to start over"
            )
        for line in lines[1:]:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A kill mid-append leaves at most one truncated final
                # line; everything before it is intact.
                continue
            if record.get("kind") == "outcome" and "digest" in record:
                self._records[record["digest"]] = record

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording ---------------------------------------------------------------

    def record(self, digest: str, fn: str, status: str, *, value: object = None,
               error: str = "", error_type: str = "", tb: str = "",
               duration_s: float = 0.0, retries: int = 0) -> None:
        """Append one task's final outcome; called by the parent only."""
        record = {
            "kind": "outcome",
            "digest": digest,
            "fn": fn,
            "status": status,
            "error": error,
            "error_type": error_type,
            "tb": tb,
            "duration_s": duration_s,
            "retries": retries,
        }
        if status == "ok":
            record["value_b64"] = _encode_value(value)
        self._records[digest] = record
        self._append(record)

    # -- replay ------------------------------------------------------------------

    def completed(self) -> dict[str, dict]:
        """Terminal records by digest — what a resume may serve."""
        return {
            d: r for d, r in self._records.items()
            if r.get("status") in TERMINAL_STATUSES
        }

    def value_of(self, record: dict) -> object:
        """Decode an ``ok`` record's payload."""
        return _decode_value(record["value_b64"])

    def __len__(self) -> int:
        return len(self._records)
