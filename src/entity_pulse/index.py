"""Time-partitioned inverted entity index.

One build pass over a corpus precomputes, per (entity, period):

* mentioning-text count and distinct-user count,
* summed per-text attitude and sentimentality,
* strong-attitude text counts at the build-time threshold ``delta``
  (texts with attitude >= delta count as strongly positive, texts with
  attitude <= -delta as strongly negative; an exactly-neutral text counts
  on the positive side only, so the two sets stay disjoint at delta = 0),
* a sparse co-occurrence map: co-entity -> (shared-text count, summed
  attitude over the shared texts) with self-pairs excluded,
* the set of all entities appearing in the mentioning texts (the entity's
  neighborhood, which includes the entity itself); it is exactly the
  co-occurring entities plus the entity, and is derived from them.

Per period it also keeps the total text and distinct-user counts, so every
measure is answerable from the index without rescanning raw records.

Distinct users are counted exactly from per-group sets that are discarded
after counting; ``approx_users=True`` swaps the sets for HyperLogLog
sketches (<= 2% relative error) to bound memory on very wide corpora.

The build is one serial pass. :func:`build` runs it over an ingested
corpus; :func:`build_streaming` runs it straight over a CSV source, so the
archive itself is never held in memory. Both give identical indexes. The
built index is immutable and safe for unlimited concurrent readers.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable

from .corpus import Corpus, CorpusStats, Rejection, Row, scan, write_atomic
from .sketch import HllCounter
from .timeline import Granularity, Period, period_containing, start_date

MAGIC = b"EPX1"
FORMAT_VERSION = 1
_GRANULARITY_CODES = {g: i for i, g in enumerate(Granularity)}
_HEADER = struct.Struct("<4sHBBdIH")
_SECTION_ENTRY = struct.Struct("<4sQQ")

# Slot layout of a stored posting tuple; the build accumulator is a list
# holding the first seven slots, with a user set (or sketch) at _USERS.
_TC, _USERS, _ATT, _SENT, _POS, _NEG, _CO, _NEIGH = range(8)


class IndexFormatError(Exception):
    """Index file cannot be loaded: wrong magic/version, truncated, corrupt."""


@dataclass(frozen=True, slots=True)
class PeriodSlice:
    period: Period
    text_total: int
    user_total: int


@dataclass(frozen=True, slots=True)
class EntityPosting:
    entity_id: str
    period: Period
    text_count: int
    user_count: int
    attitude_sum: int
    sentimentality_sum: int
    strong_pos_count: int
    strong_neg_count: int
    cooccur: dict[str, tuple[int, int]]  # co-entity -> (texts, attitude sum)
    neighbor_entities: frozenset[str]


class EntityIndex:
    """Immutable index over one corpus at one granularity and delta."""

    def __init__(self, granularity: Granularity, delta: float,
                 approx_users: bool, entities: list[str],
                 slices: dict[date, tuple[int, int]],
                 postings: dict[date, dict[int, tuple]]) -> None:
        self.granularity = granularity
        self.delta = delta
        self.approx_users = approx_users
        self.entities = entities
        self._entity_ids = {e: i for i, e in enumerate(entities)}
        self._slices = slices
        self._postings = postings

    # -- raw accessors (hot path for measures/relations) --------------------

    def _check_period(self, period: Period) -> date:
        if period.granularity is not self.granularity:
            raise ValueError(
                f"period granularity {period.granularity.value} does not "
                f"match index granularity {self.granularity.value}")
        return period.start_date

    def entity_id_of(self, entity: str) -> int | None:
        return self._entity_ids.get(entity)

    def slice_counts(self, period: Period) -> tuple[int, int] | None:
        """(text_total, user_total) for the period, or None if empty."""
        return self._slices.get(self._check_period(period))

    def posting_counts(self, entity: str, period: Period) -> tuple | None:
        """Raw posting tuple, or None when the entity is absent in the period."""
        eid = self._entity_ids.get(entity)
        if eid is None:
            return None
        per = self._postings.get(self._check_period(period))
        return None if per is None else per.get(eid)

    # -- public views --------------------------------------------------------

    def period_slice(self, period: Period) -> PeriodSlice | None:
        counts = self.slice_counts(period)
        if counts is None:
            return None
        return PeriodSlice(period, counts[0], counts[1])

    def posting(self, entity: str, period: Period) -> EntityPosting | None:
        raw = self.posting_counts(entity, period)
        if raw is None:
            return None
        names = self.entities
        cooccur = {names[e]: (c, a) for e, (c, a) in raw[_CO].items()}
        neighbors = frozenset(names[e] for e in raw[_NEIGH])
        return EntityPosting(entity, period, raw[_TC], raw[_USERS], raw[_ATT],
                             raw[_SENT], raw[_POS], raw[_NEG], cooccur,
                             neighbors)

    def periods(self) -> list[Period]:
        """All non-empty periods, chronological."""
        return [period_containing(d, self.granularity)
                for d in sorted(self._slices)]

    def posting_count(self) -> int:
        return sum(len(per) for per in self._postings.values())


def posting(index: EntityIndex, entity: str, period: Period
            ) -> EntityPosting | None:
    return index.posting(entity, period)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _aggregate(rows: Iterable[Row], g: Granularity, delta: float,
               approx: bool) -> tuple[dict, dict]:
    """One pass over compact rows into per-period ``[texts, users]`` and
    per-posting accumulator lists, keyed by period start date.

    Co-occurrence values are ``(texts, attitude sum)`` tuples, replaced on
    each update, so the finalized index keeps the maps without a copy.
    """
    new_counter = HllCounter if approx else set
    slices: dict[date, list] = {}
    posts: dict[date, dict[int, list]] = {}
    for row in rows:
        uid, ts, mentions, phi = row[1], row[2], row[3], row[6]
        dkey = start_date(ts.date(), g)
        sl = slices.get(dkey)
        if sl is None:
            sl = slices[dkey] = [0, new_counter()]
        sl[0] += 1
        sl[1].add(uid)
        if not mentions:
            continue
        per = posts.get(dkey)
        if per is None:
            per = posts[dkey] = {}
        psi = row[7]
        strong_pos = phi >= delta
        strong_neg = phi < 0 and phi <= -delta
        eids = [e for e, _ in mentions]
        multi = len(eids) > 1
        for e in eids:
            p = per.get(e)
            if p is None:
                p = per[e] = [0, new_counter(), 0, 0, 0, 0, {}]
            p[_TC] += 1
            p[_USERS].add(uid)
            p[_ATT] += phi
            p[_SENT] += psi
            if strong_pos:
                p[_POS] += 1
            elif strong_neg:
                p[_NEG] += 1
            if multi:
                co = p[_CO]
                for e2 in eids:
                    if e2 != e:
                        pc = co.get(e2)
                        co[e2] = (1, phi) if pc is None else (pc[0] + 1,
                                                              pc[1] + phi)
    return slices, posts


def _finalize(granularity: Granularity, delta: float, approx: bool,
              entities: list[str], raw: tuple[dict, dict]) -> EntityIndex:
    """Turn the accumulators into stored postings, in place: user counters
    become counts and each posting gains its neighbor set."""
    slices, posts = raw
    count = HllCounter.count if approx else len
    for d, (texts, users) in slices.items():
        slices[d] = (texts, count(users))
    for per in posts.values():
        for eid, p in per.items():
            co = p[_CO]
            per[eid] = (p[_TC], count(p[_USERS]), p[_ATT], p[_SENT], p[_POS],
                        p[_NEG], co, frozenset(co).union((eid,)))
    return EntityIndex(granularity, delta, approx, entities, slices, posts)


def _check_delta(delta: float) -> None:
    if not (0.0 <= delta <= 4.0):
        raise ValueError(f"delta must be in [0, 4], got {delta}")


def build(corpus: Corpus, granularity: Granularity, delta: float, *,
          approx_users: bool = False,
          max_workers: int | None = None) -> EntityIndex:
    """Build an immutable index over ``corpus``.

    ``delta`` in [0, 4] fixes the strong-attitude threshold baked into the
    per-posting strong counts. The build is a single serial pass;
    ``max_workers`` is accepted for compatibility with older callers and
    ignored.
    """
    _check_delta(delta)
    raw = _aggregate(corpus._rows(), granularity, delta, approx_users)
    return _finalize(granularity, delta, approx_users,
                     list(corpus.entities), raw)


def build_streaming(source, granularity: Granularity, delta: float, *,
                    min_confidence: float | None = None,
                    approx_users: bool = False
                    ) -> tuple[EntityIndex, CorpusStats, list[Rejection]]:
    """Index a CSV ``source`` in one pass, without holding the archive.

    Equals ``build(ingest(source, min_confidence)[0], ...)``, and returns
    that ingest's stats and rejections alongside the index.
    """
    _check_delta(delta)
    corpus, rows = scan(source, min_confidence)
    raw = _aggregate(rows, granularity, delta, approx_users)
    return (_finalize(granularity, delta, approx_users, corpus.entities, raw),
            corpus.stats, corpus.rejections)


# ---------------------------------------------------------------------------
# persistence: EPX1 container
# ---------------------------------------------------------------------------
#
# Little-endian layout:
#   header:  magic "EPX1" | version u16 | granularity u8 | flags u8
#            | delta f64 | crc32 u32 (over the payload region) | sections u16
#   table:   per section: tag 4s | offset u64 | length u64
#   payload: SDIC  entity dictionary: count u32, then len u32 + utf-8 bytes
#            SLIC  slices: count u32, then start-ordinal i32,
#                  text_total u64, user_total u64
#            POST  postings: count u64, then per posting:
#                  entity u32, start-ordinal i32, text_count u64,
#                  user_count u64, attitude_sum i64, sentimentality_sum i64,
#                  strong_pos u64, strong_neg u64,
#                  cooccur count u32 + (entity u32, texts u64, attitude i64)*,
#                  neighbor count u32 + entity u32*
#
# All strings live in the SDIC dictionary; postings reference them by id.

_SLICE_REC = struct.Struct("<iQQ")
_POST_HEAD = struct.Struct("<IiQQqqQQ")
_CO_REC = struct.Struct("<IQq")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _encode_sections(index: EntityIndex) -> list[tuple[bytes, bytes]]:
    sdic = io.BytesIO()
    sdic.write(_U32.pack(len(index.entities)))
    for name in index.entities:
        raw = name.encode("utf-8")
        sdic.write(_U32.pack(len(raw)))
        sdic.write(raw)

    slic = io.BytesIO()
    slic.write(_U32.pack(len(index._slices)))
    for d in sorted(index._slices):
        tt, ut = index._slices[d]
        slic.write(_SLICE_REC.pack(d.toordinal(), tt, ut))

    post = io.BytesIO()
    post.write(_U64.pack(index.posting_count()))
    for d in sorted(index._postings):
        per = index._postings[d]
        ordinal = d.toordinal()
        for eid in sorted(per):
            tc, uc, att, sent, pos, neg, co, neigh = per[eid]
            post.write(_POST_HEAD.pack(eid, ordinal, tc, uc, att, sent,
                                       pos, neg))
            post.write(_U32.pack(len(co)))
            for e2 in sorted(co):
                c, a = co[e2]
                post.write(_CO_REC.pack(e2, c, a))
            post.write(_U32.pack(len(neigh)))
            for e2 in sorted(neigh):
                post.write(_U32.pack(e2))

    return [(b"SDIC", sdic.getvalue()), (b"SLIC", slic.getvalue()),
            (b"POST", post.getvalue())]


def save(index: EntityIndex, path) -> None:
    """Write the index as a self-describing EPX1 container (atomic)."""
    sections = _encode_sections(index)
    table_len = _SECTION_ENTRY.size * len(sections)
    base = _HEADER.size + table_len
    table = io.BytesIO()
    payload = io.BytesIO()
    offset = base
    for tag, body in sections:
        table.write(_SECTION_ENTRY.pack(tag, offset, len(body)))
        payload.write(body)
        offset += len(body)
    payload_bytes = payload.getvalue()
    flags = 1 if index.approx_users else 0
    header = _HEADER.pack(MAGIC, FORMAT_VERSION,
                          _GRANULARITY_CODES[index.granularity], flags,
                          index.delta, zlib.crc32(payload_bytes),
                          len(sections))
    with write_atomic(path, binary=True) as fh:
        fh.write(header)
        fh.write(table.getvalue())
        fh.write(payload_bytes)


def load(path) -> EntityIndex:
    """Load an EPX1 container; any corruption raises IndexFormatError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IndexFormatError(f"cannot read {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise IndexFormatError("truncated header")
    magic, version, gcode, flags, delta, crc, nsections = _HEADER.unpack_from(
        blob, 0)
    if magic != MAGIC:
        raise IndexFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported format version {version}")
    table_end = _HEADER.size + _SECTION_ENTRY.size * nsections
    if len(blob) < table_end:
        raise IndexFormatError("truncated section table")
    if zlib.crc32(blob[table_end:]) != crc:
        raise IndexFormatError("checksum mismatch (corrupt or truncated file)")
    sections: dict[bytes, memoryview] = {}
    view = memoryview(blob)
    for i in range(nsections):
        tag, off, length = _SECTION_ENTRY.unpack_from(
            blob, _HEADER.size + i * _SECTION_ENTRY.size)
        if off + length > len(blob):
            raise IndexFormatError(f"section {tag!r} out of bounds")
        sections[tag] = view[off:off + length]
    try:
        granularity = list(Granularity)[gcode]
    except IndexError:
        raise IndexFormatError(f"bad granularity code {gcode}") from None
    try:
        entities = _decode_sdic(sections[b"SDIC"])
        slices = _decode_slic(sections[b"SLIC"])
        postings = _decode_post(sections[b"POST"], len(entities))
    except KeyError as exc:
        raise IndexFormatError(f"missing section {exc}") from None
    except (struct.error, ValueError, OverflowError) as exc:
        raise IndexFormatError(f"malformed section data: {exc}") from exc
    return EntityIndex(granularity, delta, bool(flags & 1), entities,
                       slices, postings)


def inspect_file(path) -> dict:
    """Human/machine-readable container stats for ``epx inspect``."""
    index = load(path)
    blob_len = Path(path).stat().st_size
    blob = Path(path).read_bytes()
    _, version, gcode, flags, delta, crc, nsections = _HEADER.unpack_from(
        blob, 0)
    sections = {}
    for i in range(nsections):
        tag, off, length = _SECTION_ENTRY.unpack_from(
            blob, _HEADER.size + i * _SECTION_ENTRY.size)
        sections[tag.decode("ascii")] = {"offset": off, "bytes": length}
    return {
        "magic": MAGIC.decode("ascii"),
        "version": version,
        "granularity": index.granularity.value,
        "delta": delta,
        "approx_users": index.approx_users,
        "crc32": crc,
        "file_bytes": blob_len,
        "sections": sections,
        "entities": len(index.entities),
        "periods": len(index._slices),
        "postings": index.posting_count(),
    }


def _decode_sdic(buf: memoryview) -> list[str]:
    (count,) = _U32.unpack_from(buf, 0)
    pos = 4
    out = []
    for _ in range(count):
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        if pos + n > len(buf):
            raise ValueError("string dictionary overrun")
        out.append(bytes(buf[pos:pos + n]).decode("utf-8"))
        pos += n
    if pos != len(buf):
        raise ValueError("trailing bytes in string dictionary")
    return out


def _decode_slic(buf: memoryview) -> dict[date, tuple[int, int]]:
    (count,) = _U32.unpack_from(buf, 0)
    pos = 4
    out: dict[date, tuple[int, int]] = {}
    for _ in range(count):
        ordinal, tt, ut = _SLICE_REC.unpack_from(buf, pos)
        pos += _SLICE_REC.size
        out[date.fromordinal(ordinal)] = (tt, ut)
    if pos != len(buf):
        raise ValueError("trailing bytes in slice section")
    return out


def _decode_post(buf: memoryview, n_entities: int
                 ) -> dict[date, dict[int, tuple]]:
    (count,) = _U64.unpack_from(buf, 0)
    pos = 8
    out: dict[date, dict[int, tuple]] = {}
    for _ in range(count):
        eid, ordinal, tc, uc, att, sent, spos, sneg = _POST_HEAD.unpack_from(
            buf, pos)
        pos += _POST_HEAD.size
        if eid >= n_entities:
            raise ValueError("entity reference out of range")
        (nco,) = _U32.unpack_from(buf, pos)
        pos += 4
        co: dict[int, tuple[int, int]] = {}
        for _ in range(nco):
            e2, c, a = _CO_REC.unpack_from(buf, pos)
            pos += _CO_REC.size
            co[e2] = (c, a)
        (nneigh,) = _U32.unpack_from(buf, pos)
        pos += 4
        neigh = []
        for _ in range(nneigh):
            (e2,) = _U32.unpack_from(buf, pos)
            pos += 4
            neigh.append(e2)
        out.setdefault(date.fromordinal(ordinal), {})[eid] = (
            tc, uc, att, sent, spos, sneg, co, frozenset(neigh))
    if pos != len(buf):
        raise ValueError("trailing bytes in posting section")
    return out
