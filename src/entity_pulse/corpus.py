"""Archive record model, CSV schema, and validated ingestion.

Row schema (RFC-4180 quoting)::

    text_id,user_id,timestamp,mentions,positive,negative[,text]

* ``timestamp`` is ISO-8601 UTC; sub-second precision is truncated. A
  trailing ``Z``, an explicit offset, or no offset (read as UTC) are accepted.
  It is read by Python 3.11's ``datetime.fromisoformat``, so the week date
  ``2015-W27-1`` and the basic format ``20150705T100000+00:00`` are read too
  (3.10's reads neither; the package requires 3.11).
  In UTC it must fall before year 9999, whose year period would end past
  the last representable date.
* ``mentions`` holds ``entity_id:confidence`` pairs joined by ``;``. Entity
  ids are percent-escaped so that ``%`` ``:`` ``;`` ``,`` and newlines never
  appear raw; identity is the exact decoded string (no case folding). An
  escape sequence that is not UTF-8 (``x%FF``) makes the list malformed,
  so no two such ids merge into one; a ``%`` that starts no escape
  (``100%``) is kept as it is.
  Duplicate mentions of one entity collapse to the max confidence, so a
  NaN confidence, which has no order, rejects the row; ``inf`` is kept.
* ``positive`` is an integer in [1, 5], ``negative`` in [-5, -1].
* the optional seventh ``text`` column carries raw text for spam filtering;
  the archive format omits it by default.

A valid row reads as one flat :class:`AnnotatedText` of its columns.
Malformed rows never abort ingestion: each yields a :class:`Rejection` with
the row number and a stable reason string, accumulated on the corpus. A
NUL character is read like any other, so an id may hold one.

The package reads JSON and CSV, and writes files, only through this
module and ``files``: :func:`csv_rows` here reads any CSV source
(:class:`IngestError`), and ``files`` holds :func:`read_json` (config,
scenario, spam model; ValueError), :func:`csv_line`, and :func:`write_lines`
and :func:`write_atomic` (atomic writes). This module re-exports the
``files`` helpers as the same objects.
"""

from __future__ import annotations

import csv
import gzip
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import unquote

# Re-exported, so callers may import these from here as well.
from .files import (IngestError, csv_line, read_json, write_atomic,
                    write_lines)

UTC = timezone.utc
# Timestamps in this year are rejected: the year period holding them ends
# on 10000-01-01, which no date can represent.
_LAST_YEAR = datetime.max.year

# Stable rejection reason strings (machine-readable contract).
REASON_FIELD_COUNT = "wrong field count"
REASON_TIMESTAMP = "bad timestamp"
REASON_SENTIMENT = "sentiment out of range"
REASON_MENTIONS = "malformed mention list"
REASON_EMPTY_ID = "empty text or user id"
REASON_DUPLICATE_ID = "duplicate text id"


@dataclass(frozen=True, slots=True)
class AnnotatedText:
    """A valid row's fields in column order, ``mentions`` as ``(entity,
    confidence)`` pairs; a NaN confidence rejects the row, so none is here."""

    text_id: str
    user_id: str
    timestamp: datetime
    mentions: tuple[tuple[str, float], ...]
    positive: int  # [1, 5]
    negative: int  # [-5, -1]
    text: str | None

    @property
    def attitude(self) -> int:
        """Predominant sentiment of the text: positive + negative, in [-4, 4]."""
        return self.positive + self.negative

    @property
    def sentimentality(self) -> int:
        """Magnitude of sentiment: positive - negative - 2, in [0, 8]."""
        return self.positive - self.negative - 2


@dataclass(frozen=True, slots=True)
class Rejection:
    row: int
    reason: str


@dataclass(frozen=True, slots=True)
class CorpusStats:
    record_count: int
    rejected_count: int
    distinct_users: int
    time_span: tuple[datetime, datetime] | None


def _escape_entity(entity_id: str) -> str:
    return (entity_id.replace("%", "%25").replace(":", "%3A")
            .replace(";", "%3B").replace(",", "%2C")
            .replace("\r", "%0D").replace("\n", "%0A"))


def _parse_timestamp(raw: str) -> datetime | None:
    """``raw`` as a UTC datetime truncated to the second, or None if it is
    not a timestamp the row schema accepts.

    The canonical form ``YYYY-MM-DDTHH:MM:SSZ`` (20 characters, ``T`` at
    index 10, ``Z`` at index 19), which ``epx`` writes and most archives
    hold, is read with one ``datetime.fromisoformat`` call. Any other form,
    and any such string that call refuses or reads with a fraction of a
    second or in year 9999, goes to :func:`_parse_any_timestamp`, the
    parser of every form.
    """
    if len(raw) == 20 and raw[10] == "T" and raw[19] == "Z":
        try:
            ts = datetime.fromisoformat(raw)  # a trailing Z reads as UTC
            if not ts.microsecond and ts.year != _LAST_YEAR:
                return ts
        except ValueError:
            pass
    return _parse_any_timestamp(raw)


def _parse_any_timestamp(raw: str) -> datetime | None:
    """Every timestamp form of the row schema, read as UTC and truncated to
    the second; None for anything else and for year 9999."""
    s = raw.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(s)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=UTC)
        else:
            ts = ts.astimezone(UTC)  # overflows past the first or last day
    except (ValueError, OverflowError):
        return None
    if ts.year == _LAST_YEAR:
        return None
    return ts.replace(microsecond=0) if ts.microsecond else ts


def _decode_id(head: str) -> str:
    """The entity id that the escaped ``head`` spells, or "" (malformed) if
    its escapes do not decode as UTF-8. A ``%`` that starts no escape, as
    in ``100%`` or ``%zz``, stands for itself."""
    if "%" not in head:
        return head
    try:
        return unquote(head, errors="strict")
    except UnicodeDecodeError:
        return ""


def _parse_mentions(raw: str, decoded: dict[str, str]
                    ) -> tuple[tuple[str, float], ...] | None:
    """``(entity, confidence)`` pairs in first-seen order, or None if malformed.

    A repeated entity keeps its highest confidence. An id that is empty or
    whose escapes are not UTF-8 makes the list malformed. ``decoded``
    memoises raw id -> entity ("" when malformed) across the rows of one
    read, so each distinct escaped id goes through ``unquote`` once; ids
    without a ``%`` never do.
    """
    if not raw:
        return ()
    best: dict[str, float] = {}
    for chunk in raw.split(";"):
        head, sep, tail = chunk.rpartition(":")
        if not sep:
            return None
        try:
            conf = float(tail)
        except ValueError:
            return None
        if conf != conf:  # NaN: no max is defined over it
            return None
        entity = decoded.get(head)
        if entity is None:
            entity = decoded[head] = _decode_id(head)
        if not entity:
            return None
        if entity in best:
            if conf > best[entity]:
                best[entity] = conf
        else:
            best[entity] = conf
    return tuple(best.items())


def _convert(fields: list[str], decoded: dict[str, str]) -> tuple | str:
    """Validate one row's fields into the compact parsed form
    ``(text_id, user_id, ts, mentions, pos, neg, text)``, or return the
    reason the row is rejected."""
    if len(fields) == 6:
        text = None
    elif len(fields) == 7:
        text = fields[6]
    else:
        return REASON_FIELD_COUNT
    text_id, user_id = fields[0], fields[1]
    if not text_id or not user_id:
        return REASON_EMPTY_ID
    ts = _parse_timestamp(fields[2])
    if ts is None:
        return REASON_TIMESTAMP
    mentions = _parse_mentions(fields[3], decoded)
    if mentions is None:
        return REASON_MENTIONS
    try:
        pos, neg = int(fields[4]), int(fields[5])
    except ValueError:
        return REASON_SENTIMENT
    if not (1 <= pos <= 5) or not (-5 <= neg <= -1):
        return REASON_SENTIMENT
    return text_id, user_id, ts, mentions, pos, neg, text


def parse_record(line: str, row: int = 0) -> AnnotatedText | Rejection:
    """Parse one CSV row into a validated record, or a rejection.

    Never returns a partial record: any malformed field rejects the row.
    """
    try:
        fields = next(csv.reader([line]))
    except (csv.Error, StopIteration):
        return Rejection(row, REASON_FIELD_COUNT)
    parsed = _convert(fields, {})
    if isinstance(parsed, str):
        return Rejection(row, parsed)
    return AnnotatedText(*parsed)


def _record_line(text_id, user_id, ts, mentions, pos, neg, text) -> str:
    """Canonical CSV form of a record's fields, ``mentions`` as ``(escaped
    entity id, confidence)`` pairs. ``isoformat`` pads years below 1000."""
    fields = [text_id, user_id, ts.astimezone(UTC).isoformat()[:19] + "Z",
              ";".join([f"{e}:{c!r}" for e, c in mentions]), str(pos),
              str(neg)]
    if text is not None:
        fields.append(text)
    return csv_line(fields)


# Internal compact row: ids interned to ints for fast aggregation.
# (text_id, user:int, ts, mentions:((entity:int, conf:float), ...), pos, neg,
#  attitude, sentimentality, text|None)
Row = tuple

# Timestamps are UTC, so a stable sort on the timestamp puts the months in
# order and keeps rows with equal timestamps in file order.
_by_time = itemgetter(2)


class Corpus:
    """Immutable ingested archive: its accepted rows in one list, stably
    sorted by timestamp, with the user and entity ids they are interned to.

    The handle is safe for concurrent reads; all mutation happens during
    ingest.
    """

    def __init__(self) -> None:
        self.entities: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self.users: list[str] = []
        self._user_ids: dict[str, int] = {}
        self._rows: list[Row] = []
        self.rejections: list[Rejection] = []
        self._size = 0
        self._min_ts: datetime | None = None
        self._max_ts: datetime | None = None

    def _accept(self, source, min_confidence: float | None) -> Iterator[Row]:
        """Validate, dedupe, filter and intern the rows of ``source``; yield
        them compact.

        Each invalid row becomes a rejection. The first row with a text id
        wins and later ones become duplicate-id rejections. Mentions below
        ``min_confidence`` are dropped, ids are interned in first-seen
        order, and the record count and time span advance; the rows
        themselves are not stored here. The set of seen text ids lives only
        as long as the scan does.
        """
        decoded: dict[str, str] = {}
        text_ids: set[str] = set()
        entity_ids, entities = self._entity_ids, self.entities
        user_ids, users = self._user_ids, self.users
        for row_no, fields in csv_rows(source):
            parsed = _convert(fields, decoded)
            if isinstance(parsed, str):
                self.rejections.append(Rejection(row_no, parsed))
                continue
            text_id, user_id, ts, mentions, pos, neg, text = parsed
            if text_id in text_ids:
                self.rejections.append(Rejection(row_no, REASON_DUPLICATE_ID))
                continue
            text_ids.add(text_id)
            interned = []
            for entity, conf in mentions:
                if min_confidence is None or conf >= min_confidence:
                    eid = entity_ids.get(entity)
                    if eid is None:
                        eid = entity_ids[entity] = len(entities)
                        entities.append(entity)
                    interned.append((eid, conf))
            uid = user_ids.get(user_id)
            if uid is None:
                uid = user_ids[user_id] = len(users)
                users.append(user_id)
            self._size += 1
            if self._min_ts is None or ts < self._min_ts:
                self._min_ts = ts
            if self._max_ts is None or ts > self._max_ts:
                self._max_ts = ts
            yield (text_id, uid, ts, tuple(interned), pos, neg, pos + neg,
                   pos - neg - 2, text)

    def __len__(self) -> int:
        return self._size

    @property
    def stats(self) -> CorpusStats:
        span = None
        if self._min_ts is not None:
            span = (self._min_ts, self._max_ts)
        return CorpusStats(self._size, len(self.rejections),
                           len(self.users), span)

    def records(self) -> Iterator[AnnotatedText]:
        """All records as public objects, in time order."""
        users, entities = self.users, self.entities
        for r in self._rows:
            yield AnnotatedText(r[0], users[r[1]], r[2], tuple(
                (entities[e], c) for e, c in r[3]), r[4], r[5], r[8])


def csv_rows(source) -> Iterator[tuple[int, list[str]]]:
    """``(row, fields)`` for each non-blank CSV row of ``source``, numbered
    from 1 with blank rows counted.

    ``source`` is a path (``.gz`` decompressed transparently), an open text
    stream, or an iterable of lines. A source that cannot be opened or read
    as UTF-8 CSV raises :class:`IngestError` carrying the position reached.
    """
    owned = isinstance(source, (str, Path))
    if owned:
        path = os.fspath(source)
        opener = gzip.open if path.endswith(".gz") else open
        try:
            source = opener(path, "rt", encoding="utf-8", newline="")
        except OSError as exc:
            raise IngestError(f"cannot open {path}: {exc}") from exc
    row_no = 0
    try:
        for fields in csv.reader(source):
            row_no += 1
            if fields:
                yield row_no, fields
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"unreadable source after row {row_no}: {exc}"
                          ) from exc
    finally:
        if owned:
            source.close()


def scan(source, min_confidence: float | None = None
         ) -> tuple[Corpus, Iterator[Row]]:
    """Accepted rows of ``source`` in file order, read lazily.

    Takes the same arguments and applies the same rules as :func:`ingest`.
    The returned corpus gains the interned ids, rejections and stats as the
    iterator advances, but stores no rows: a caller that folds the rows
    into something else never holds the whole archive. A NaN
    ``min_confidence`` raises ValueError at once: no confidence reaches
    it, so it would drop every mention.
    """
    if min_confidence is not None and math.isnan(min_confidence):
        raise ValueError("min_confidence must be a number, not NaN")
    corpus = Corpus()
    return corpus, corpus._accept(source, min_confidence)


def ingest(source, min_confidence: float | None = None
           ) -> tuple[Corpus, CorpusStats]:
    """Read rows from ``source``, anything :func:`csv_rows` reads, into an
    immutable corpus handle, which keeps the accepted rows in time order.

    Mentions with confidence strictly below ``min_confidence`` are dropped
    while the record is kept. Malformed rows accumulate as rejections and
    never abort; an unreadable source raises :class:`IngestError` carrying
    the position reached.
    """
    corpus, rows = scan(source, min_confidence)
    corpus._rows = sorted(rows, key=_by_time)
    return corpus, corpus.stats


def write_records(corpus: Corpus, rows: Iterable[Row], path) -> None:
    """Canonical CSV of ``rows``, compact rows interned by ``corpus`` (as
    :func:`scan` yields them), one line per record in time order.

    The rows are held once, to sort them, and written line by line.
    """
    rows = sorted(rows, key=_by_time)  # a scan interns as it is read
    escaped = [_escape_entity(e) for e in corpus.entities]
    write_lines(path, (_record_line(row[0], corpus.users[row[1]], row[2],
                                    [(escaped[e], c) for e, c in row[3]],
                                    row[4], row[5], row[8]) for row in rows))


def write_rejections(rejections: Iterable[Rejection], path) -> None:
    """Side report CSV with one ``row,reason`` line per rejection."""
    write_lines(path, (csv_line([r.row, r.reason]) for r in rejections))
