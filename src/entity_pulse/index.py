"""Time-partitioned inverted entity index.

One build pass over a corpus precomputes, per (entity, period):

* mentioning-text count and distinct-user count,
* summed per-text attitude and sentimentality,
* strong-attitude text counts at the build-time threshold ``delta``
  (texts with attitude >= delta count as strongly positive, texts with
  attitude <= -delta as strongly negative; an exactly-neutral text counts
  on the positive side only, so the two sets stay disjoint at delta = 0),
* co-occurrence triples ``(co-entity, shared-text count, summed attitude
  over the shared texts)`` sorted by co-entity, self-pairs excluded.

An entity's neighborhood (every entity appearing in its mentioning texts,
itself included) is not stored: it is exactly the co-occurring entities
plus the entity.

Per period it also keeps the total text and distinct-user counts, so every
measure is answerable from the index without rescanning raw records.

Distinct users are counted exactly and the counters are discarded after
counting. A posting's counter is its first user id until a second distinct
user arrives, and only then a set; most day-level postings never see a
second user.

The build is one serial pass. :func:`build` runs it over an ingested
corpus; :func:`build_streaming` runs it straight over a CSV source, so the
archive itself is never held in memory. The bytes :func:`save` writes are
an index's canonical form: two indexes answer every query alike exactly
when they save to equal bytes.

Postings are kept as EPX2 blocks (layout below), one per entity, because
every query reads one entity's postings (or a pair's, or a set's) across
periods. An :class:`EntityIndex` holds each block in memory when built, or
reads it from its file when loaded, and decodes it through one checked
path the first time a query touches its entity, into ``{period start:
posting}``. The index never changes otherwise and is safe for concurrent
readers; two readers decoding the same block at once store equal dicts.

A loaded index never holds the file. :func:`load` streams the file once
through a small buffer to check its CRC, reads the small sections on their
own, and keeps the file open; each entity's block is read with
``os.pread`` (positional, so concurrent readers do not share a file
offset) the first time a query touches it. So a cold query pays memory for
the entities it reads, not for the archive. The open handle pins the file
that was checked: replacing the path afterwards (as ``save`` does,
atomically) does not change the index's answers. ``close()``, or leaving a
``with load(path) as index:`` block, releases the handle; an index dropped
unclosed has it released when it is collected. The file is not mapped with
``mmap``: its resident pages would count in the process's RSS, and the CRC
check would touch every one of them.
"""

from __future__ import annotations

import os
import struct
import weakref
import zlib
from datetime import date
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .files import write_atomic
from .timeline import Granularity, Period, period_containing, start_date

if TYPE_CHECKING:  # for annotations only: a query imports no corpus
    from .corpus import Corpus, CorpusStats, Rejection, Row

MAGIC = b"EPX2"
FORMAT_VERSION = 2
_GRANULARITY_CODES = {g: i for i, g in enumerate(Granularity)}
_HEADER = struct.Struct("<4sHBBdIH")
_SECTION_ENTRY = struct.Struct("<4sQQ")

# Slot layout of a decoded posting tuple. _CO holds the posting's
# co-occurrence triples as its EPX2 block stores them, () when there are
# none, so a decoded posting holds only ints and tuples of ints, which the
# cyclic GC stops tracking once it has seen them. The build accumulator is
# a list of the same slots, with the first user id at _USERS until a second
# distinct user turns it into a set, and at _CO None until the first
# co-mention, then a dict from each co-entity to its triple.
_TC, _USERS, _ATT, _SENT, _POS, _NEG, _CO = range(7)


class IndexFormatError(Exception):
    """Index file cannot be loaded: wrong magic/version, truncated, corrupt."""


class EntityPosting(NamedTuple):
    entity_id: str
    period: Period
    text_count: int
    user_count: int
    attitude_sum: int
    sentimentality_sum: int
    strong_pos_count: int
    strong_neg_count: int
    cooccur: dict[str, tuple[int, int]]  # co-entity -> (texts, attitude sum)


class EntityIndex:
    """Immutable index over one corpus at one granularity and delta. Its
    postings are one EPX2 block per entity: ``_read(eid)`` gives entity
    ``eid``'s block, from memory for a built index or from the open file for
    a loaded one; ``_offsets`` holds each block's start in POST, then the
    end of POST, and ``_counts`` holds each block's posting count."""

    def __init__(self, granularity: Granularity, delta: float,
                 entities: list[str], slices: dict[date, tuple[int, int]],
                 read: Callable[[int], bytes], offsets: list[int],
                 counts: list[int],
                 release: Callable[[], None] = lambda: None) -> None:
        self.granularity = granularity
        self.delta = delta
        self.entities = entities
        self._entity_ids = {e: i for i, e in enumerate(entities)}
        # (text_total, user_total) by period start, non-empty periods only.
        self.slices = slices
        # Decoded postings by entity id, filled in on first touch.
        self._postings: dict[int, dict[date, tuple]] = {}
        self._read = read
        self._offsets = offsets
        self._counts = counts
        # Runs ``release`` (a loaded index's file.close) on the first call,
        # or at collection if unclosed, so it must not hold the index.
        self._release = weakref.finalize(self, release)

    def close(self) -> None:
        """Release the file a loaded index reads its blocks from; calling it
        again does nothing. Entities already decoded still answer; touching
        any other raises ``ValueError``. A built index has no file."""
        self._release()

    def __enter__(self) -> EntityIndex:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _entity_postings(self, eid: int) -> dict[date, tuple]:
        """The entity's postings, decoded from its block on first touch."""
        per = self._postings.get(eid)
        if per is None:
            per = self._postings[eid] = self._decode_block(eid)
        return per

    def _decode_block(self, eid: int) -> dict[date, tuple]:
        """Entity ``eid``'s postings, decoded from its block; a short read
        or a malformed block raises IndexFormatError."""
        buf = self._read(eid)
        try:
            return self._decode(eid, memoryview(buf))
        except _MALFORMED as exc:
            raise IndexFormatError(
                f"malformed posting block of entity {eid}: {exc}") from exc

    def _decode(self, eid: int, buf: memoryview) -> dict[date, tuple]:
        pos, end = 0, len(buf)
        slices, n_entities = self.slices, len(self.entities)
        out: dict[date, tuple] = {}
        last = -(1 << 31)  # below every i32 ordinal
        for _ in range(self._counts[eid]):
            if pos + _POST_REC.size > end:
                raise ValueError("block overrun")
            ordinal, tc, uc, att, sent, spos, sneg, nco = \
                _POST_REC.unpack_from(buf, pos)
            pos += _POST_REC.size
            if ordinal <= last:
                raise ValueError("periods not strictly increasing")
            last = ordinal
            d = date.fromordinal(ordinal)
            if d not in slices:
                raise ValueError(f"posting in {d} has no period slice")
            if tc < 1:
                raise ValueError(f"posting in {d} has no texts")
            texts, users = slices[d]
            # A text's attitude is in [-4, 4] and its sentimentality in
            # [0, 8]; the strongly positive and negative texts are disjoint.
            if not (uc <= tc <= texts and 1 <= uc <= users
                    and spos + sneg <= tc and abs(att) <= 4 * tc
                    and 0 <= sent <= 8 * tc):
                raise ValueError(f"posting in {d} has counts out of range")
            co_end = pos + nco * _CO_REC.size
            if co_end > end:
                raise ValueError("block overrun")
            co = tuple(_CO_REC.iter_unpack(buf[pos:co_end]))
            prev = -1
            for e2, c, a in co:
                if not prev < e2 < n_entities or e2 == eid:
                    raise ValueError(f"bad co-entity reference {e2}")
                if not 1 <= c <= tc:
                    raise ValueError(f"bad shared-text count {c}")
                if abs(a) > 4 * c:
                    raise ValueError(f"attitude sum {a} with co-entity {e2} "
                                     f"out of range")
                prev = e2
            pos = co_end
            out[d] = (tc, uc, att, sent, spos, sneg, co)
        if pos != end:
            raise ValueError("block does not end at its length")
        return out

    # -- raw accessors (hot path for measures/relations) --------------------

    def _check_period(self, period: Period) -> date:
        if period.granularity is not self.granularity:
            raise ValueError(
                f"period granularity {period.granularity.value} does not "
                f"match index granularity {self.granularity.value}")
        return period.start_date

    def entity_id_of(self, entity: str) -> int | None:
        return self._entity_ids.get(entity)

    def entity_postings(self, entity: str) -> dict[date, tuple]:
        """The entity's raw posting tuples by period start; empty for an
        unknown entity. The dict is the index's own: read it, never change it.
        """
        eid = self._entity_ids.get(entity)
        return {} if eid is None else self._entity_postings(eid)

    def slice_counts(self, period: Period) -> tuple[int, int] | None:
        """(text_total, user_total) for the period, or None if empty."""
        return self.slices.get(self._check_period(period))

    def posting_counts(self, entity: str, period: Period) -> tuple | None:
        """Raw posting tuple, or None when the entity is absent in the period."""
        eid = self._entity_ids.get(entity)
        if eid is None:
            return None
        return self._entity_postings(eid).get(self._check_period(period))

    # -- public views --------------------------------------------------------

    def posting(self, entity: str, period: Period) -> EntityPosting | None:
        raw = self.posting_counts(entity, period)
        if raw is None:
            return None
        cooccur = {self.entities[e]: (c, a) for e, c, a in raw[_CO]}
        return EntityPosting(entity, period, raw[_TC], raw[_USERS], raw[_ATT],
                             raw[_SENT], raw[_POS], raw[_NEG], cooccur)

    def periods(self) -> list[Period]:
        """All non-empty periods, chronological."""
        return [period_containing(d, self.granularity)
                for d in sorted(self.slices)]

    def posting_count(self) -> int:
        return sum(self._counts)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _aggregate(rows: Iterable[Row], g: Granularity, delta: float
               ) -> tuple[dict, dict]:
    """One pass over compact rows into per-period ``[texts, users]`` and
    per-posting accumulator lists, keyed by period start date.

    A posting's user slot holds its first user id as an ``int`` and becomes
    a set holding both ids at the second distinct user; its co-occurrence
    slot stays ``None`` until the first co-mention.
    Most day-level postings have one user and no co-entity, and so never
    pay for a set or a dict.

    The accumulators are keyed period first, not entity first as the index
    is, because the rows of one text share a period: one lookup per text
    instead of one per mention.
    """
    slices: dict[date, list] = {}
    posts: dict[date, dict[int, list]] = {}
    for row in rows:
        uid, ts, mentions, phi = row[1], row[2], row[3], row[6]
        dkey = start_date(ts.date(), g)
        sl = slices.get(dkey)
        if sl is None:
            sl = slices[dkey] = [0, set()]
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
                p = per[e] = [0, uid, 0, 0, 0, 0, None]
            p[_TC] += 1
            users = p[_USERS]
            if type(users) is not int:
                users.add(uid)
            elif users != uid:
                p[_USERS] = {users, uid}
            p[_ATT] += phi
            p[_SENT] += psi
            if strong_pos:
                p[_POS] += 1
            elif strong_neg:
                p[_NEG] += 1
            if multi:
                co = p[_CO]
                if co is None:
                    co = p[_CO] = {}
                for e2 in eids:
                    if e2 != e:
                        t = co.get(e2)
                        co[e2] = (e2, 1, phi) if t is None else (
                            e2, t[1] + 1, t[2] + phi)
    return slices, posts


def _finalize(granularity: Granularity, delta: float, entities: list[str],
              raw: tuple[dict, dict]) -> EntityIndex:
    """Encode the accumulators into one EPX2 block per entity, walking
    periods in ascending order, so that appending each posting to its
    entity's buffer gives the block layout: user sets become their sizes (a
    lone user id counts 1), co-occurrence dicts become their triples sorted
    by co-entity, and each period's accumulators are dropped once encoded.
    The buffers stay apart: joining them into one POST would hold every
    block twice at the end of the build."""
    slices, posts = raw
    for d, (texts, users) in slices.items():
        slices[d] = (texts, len(users))
    blocks = [bytearray() for _ in entities]
    counts = [0] * len(entities)
    for d in sorted(posts):
        per_period = posts.pop(d)
        ordinal = d.toordinal()
        for eid, p in per_period.items():
            users, co = p[_USERS], p[_CO]
            triples = () if co is None else sorted(co.values())
            block = blocks[eid]
            block += _POST_REC.pack(
                ordinal, p[_TC], 1 if type(users) is int else len(users),
                p[_ATT], p[_SENT], p[_POS], p[_NEG], len(triples))
            for rec in triples:
                block += _CO_REC.pack(*rec)
            counts[eid] += 1
    offsets = list(accumulate(map(len, blocks), initial=0))
    return EntityIndex(granularity, delta, entities, slices,
                       blocks.__getitem__, offsets, counts)


def _check_delta(delta: float) -> None:
    if not (0.0 <= delta <= 4.0):
        raise ValueError(f"delta must be in [0, 4], got {delta}")


def build(corpus: Corpus, granularity: Granularity, delta: float, *,
          approx_users: bool = False,
          max_workers: int | None = None) -> EntityIndex:
    """Build an immutable index over ``corpus``.

    ``delta`` in [0, 4] fixes the strong-attitude threshold baked into the
    per-posting strong counts. The build is a single serial pass that
    counts users exactly. ``approx_users`` and ``max_workers`` are accepted
    and ignored until the benchmark's probe stops passing them: an exact
    count meets the <= 2% error that ``approx_users=True`` promised.
    """
    _check_delta(delta)
    raw = _aggregate(corpus._rows, granularity, delta)
    return _finalize(granularity, delta, list(corpus.entities), raw)


def build_streaming(source, granularity: Granularity, delta: float, *,
                    min_confidence: float | None = None
                    ) -> tuple[EntityIndex, CorpusStats, list[Rejection]]:
    """Index a CSV ``source`` in one pass, without holding the archive.

    Equals ``build(ingest(source, min_confidence)[0], ...)``, and returns
    that ingest's stats and rejections alongside the index.
    """
    from .corpus import scan  # not at the top: a query never imports it

    _check_delta(delta)
    corpus, rows = scan(source, min_confidence)
    raw = _aggregate(rows, granularity, delta)
    return (_finalize(granularity, delta, corpus.entities, raw),
            corpus.stats, corpus.rejections)


# ---------------------------------------------------------------------------
# persistence: EPX2 container
# ---------------------------------------------------------------------------
#
# Little-endian layout:
#   header:  magic "EPX2" | version u16 | granularity u8 | flags u8 (0)
#            | delta f64 | crc32 u32 (over the payload region) | sections u16
#   table:   per section: tag 4s | offset u64 | length u64
#   payload: SDIC  entity dictionary: count u32, then len u32 + utf-8 bytes
#            SLIC  slices: count u32, then per period, ascending:
#                  start-ordinal i32, text_total u64, user_total u64
#            POST  one block per entity, in entity-id order; a block holds
#                  the entity's postings in ascending period order:
#                  start-ordinal i32, text_count u64, user_count u64,
#                  attitude_sum i64, sentimentality_sum i64,
#                  strong_pos u64, strong_neg u64, cooccur count u32,
#                  then per co-entity, ascending: entity u32, texts u64,
#                  attitude i64
#            PDIR  block directory: count u32 (= entities), total postings
#                  u64, then per entity id: block offset u64 (from the
#                  start of POST) and posting count u32. A block ends where
#                  the next one starts; the last ends with POST.
#
# All strings live in the SDIC dictionary; postings reference them by id.
# The writer writes SDIC, SLIC, POST and then PDIR, and the header last.
# POST is each block as the index holds it (a loaded index reads its own
# from its file), so saving neither decodes nor re-encodes a posting.
#
# Checks: `load` checks the header and the section table, and streams the
# payload once through a buffer of at most 64 KB to check the CRC. It then
# reads SDIC, SLIC and PDIR with one `pread` each and checks them: SDIC
# (distinct names), SLIC (ordinals strictly increasing and aligned to the
# granularity) and PDIR (blocks tile POST, counts sum to the total). POST
# stays in the file, which stays open. A loaded block is read with one
# `pread`, which must return the block's full length (a shorter one means
# the file was cut after load). `EntityIndex._decode` checks each block,
# built or loaded, at its first decode: its ordinals strictly increase and
# each has a slice, every count is in the range its texts allow, its
# co-entity ids are known entities other than its own, in ascending order,
# and it ends exactly at its length. Only `inspect_file(verify=True)` reads
# every block, so only it checks that each co-occurrence triple has a mirror
# in the co-entity's block with the same counts.

_SLICE_REC = struct.Struct("<iQQ")
_POST_REC = struct.Struct("<iQQqqQQI")
_CO_REC = struct.Struct("<IQq")
_DIR_HEAD = struct.Struct("<IQ")
_DIR_REC = struct.Struct("<QI")
_U32 = struct.Struct("<I")
_SECTIONS = (b"SDIC", b"SLIC", b"POST", b"PDIR")
_MALFORMED = (struct.error, ValueError, OverflowError)
# (c << _PAIR_SHIFT) + a is exact for every shared-text count c >= 1 and
# attitude sum a that a block stores: a is an i64, so |a| <= 2**63, less
# than half of 1 << 65.
_PAIR_SHIFT = 65
# The CRC buffer adds to the peak RSS of every load; larger ones are no
# faster to checksum.
_CRC_CHUNK = 1 << 16


def _read_block(file, base: int, offsets: list[int], eid: int) -> bytes:
    """Entity ``eid``'s block, read with ``os.pread`` from ``file``, whose
    POST section starts at ``base``."""
    if file.closed:
        raise ValueError("index is closed")
    start, end = offsets[eid], offsets[eid + 1]
    buf = os.pread(file.fileno(), end - start, base + start)
    if len(buf) != end - start:
        raise IndexFormatError(
            f"posting block of entity {eid} is cut short: the file was "
            f"truncated after it was loaded")
    return buf


def save(index: EntityIndex, path) -> None:
    """Write the index as its canonical EPX2 container (atomic). The blocks
    are written as the index holds them, not decoded."""
    sdic = bytearray(_U32.pack(len(index.entities)))
    for name in index.entities:
        raw = name.encode("utf-8")
        sdic += _U32.pack(len(raw))
        sdic += raw
    slic = bytearray(_U32.pack(len(index.slices)))
    for d in sorted(index.slices):
        slic += _SLICE_REC.pack(d.toordinal(), *index.slices[d])
    post = map(index._read, range(len(index.entities)))
    pdir = bytearray(_DIR_HEAD.pack(len(index.entities), sum(index._counts)))
    for entry in zip(index._offsets, index._counts):
        pdir += _DIR_REC.pack(*entry)
    base = _HEADER.size + _SECTION_ENTRY.size * len(_SECTIONS)
    table = bytearray()
    crc, offset = 0, base
    with write_atomic(path, binary=True) as fh:
        fh.write(bytes(base))
        for tag, chunks in zip(_SECTIONS, ([sdic], [slic], post, [pdir])):
            start = offset
            for chunk in chunks:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
                offset += len(chunk)
            table += _SECTION_ENTRY.pack(tag, start, offset - start)
        fh.seek(0)
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION,
                              _GRANULARITY_CODES[index.granularity], 0,
                              index.delta, crc, len(_SECTIONS)))
        fh.write(table)


def load(path) -> EntityIndex:
    """Open an EPX2 container; any corruption raises IndexFormatError,
    in a posting block at the first query that touches it.

    The index keeps the file open until ``close()``, the end of a ``with``
    block, or its collection."""
    return _open(path)[0]


def _open(path) -> tuple[EntityIndex, dict]:
    """The index in ``path`` and the container facts ``inspect`` reports.
    The file stays open only if this returns."""
    try:
        file = open(path, "rb", buffering=0)
        try:
            return _read_container(file)
        except BaseException:
            file.close()
            raise
    except OSError as exc:
        raise IndexFormatError(f"cannot read {path}: {exc}") from exc


def _payload_crc(file, start: int) -> tuple[int, int]:
    """CRC32 of the file from ``start`` to its end, and the file's length,
    read through one buffer of at most _CRC_CHUNK bytes."""
    size = os.fstat(file.fileno()).st_size
    buf = memoryview(bytearray(max(0, min(_CRC_CHUNK, size - start))))
    file.seek(start)
    crc = 0
    while n := file.readinto(buf):
        crc = zlib.crc32(buf[:n], crc)
        start += n
    return crc, start


def _read_container(file) -> tuple[EntityIndex, dict]:
    fd = file.fileno()
    head = os.pread(fd, _HEADER.size, 0)
    if len(head) < _HEADER.size:
        raise IndexFormatError("truncated header")
    magic, version, gcode, flags, delta, crc, nsections = _HEADER.unpack(head)
    if magic[:3] != MAGIC[:3]:
        raise IndexFormatError(f"bad magic {magic!r}")
    if (magic, version) != (MAGIC, FORMAT_VERSION):
        raise IndexFormatError(f"unsupported format version {version} "
                               f"(magic {magic!r}); expected "
                               f"{FORMAT_VERSION}")
    table_end = _HEADER.size + _SECTION_ENTRY.size * nsections
    entries = os.pread(fd, table_end - _HEADER.size, _HEADER.size)
    if len(entries) < table_end - _HEADER.size:
        raise IndexFormatError("truncated section table")
    payload_crc, file_bytes = _payload_crc(file, table_end)
    if payload_crc != crc:
        raise IndexFormatError("checksum mismatch (corrupt or truncated file)")
    try:
        granularity = list(Granularity)[gcode]
    except IndexError:
        raise IndexFormatError(f"bad granularity code {gcode}") from None
    if flags:
        raise IndexFormatError(f"unknown flags {flags:#x}")
    if not 0.0 <= delta <= 4.0:
        raise IndexFormatError(f"delta {delta} outside [0, 4]")
    sections: dict[bytes, tuple[int, int]] = {}
    table: dict[str, dict[str, int]] = {}
    for tag, off, length in _SECTION_ENTRY.iter_unpack(entries):
        if off < table_end or off + length > file_bytes:
            raise IndexFormatError(f"section {tag!r} out of bounds")
        sections[tag] = (off, length)
        table[tag.decode("ascii", "replace")] = {"offset": off,
                                                 "bytes": length}

    def read(tag: bytes) -> memoryview:
        off, length = sections[tag]
        buf = os.pread(fd, length, off)
        if len(buf) != length:
            raise IndexFormatError(f"section {tag!r} cut short")
        return memoryview(buf)

    try:
        entities = _decode_sdic(read(b"SDIC"))
        slices = _decode_slic(read(b"SLIC"), granularity)
        post_offset, post_len = sections[b"POST"]
        offsets, counts = _decode_pdir(read(b"PDIR"), len(entities),
                                       post_len)
    except KeyError as exc:
        raise IndexFormatError(f"missing section {exc}") from None
    except _MALFORMED as exc:
        raise IndexFormatError(f"malformed section data: {exc}") from exc
    index = EntityIndex(granularity, delta, entities, slices,
                        partial(_read_block, file, post_offset, offsets),
                        offsets, counts, file.close)
    if len(index._entity_ids) != len(entities):
        raise IndexFormatError("duplicate entity names")
    facts = {"magic": MAGIC.decode("ascii"), "version": version, "crc32": crc,
             "file_bytes": file_bytes, "sections": table}
    return index, facts


def inspect_file(path, verify: bool = False) -> dict:
    """Container stats for ``epx inspect``, read from the header, the
    section table and the block directory.

    ``verify=True`` also decodes and checks every posting block (raising
    IndexFormatError at the first bad one) and adds the co-occurrence pair
    count and the largest co-occurrence fan-out of a posting. It also
    checks what no block holds alone: a co-occurrence of two entities in a
    period is stored in both their blocks, and the two must agree on the
    shared-text count and the attitude sum.
    """
    index, facts = _open(path)
    with index:
        out = {
            "magic": facts["magic"],
            "version": facts["version"],
            "granularity": index.granularity.value,
            "delta": index.delta,
            "crc32": facts["crc32"],
            "file_bytes": facts["file_bytes"],
            "sections": facts["sections"],
            "entities": len(index.entities),
            "periods": len(index.slices),
            "postings": index.posting_count(),
        }
        if verify:
            pairs = fanout_max = 0
            n = len(index.entities)
            # A co-occurrence of ids low < high in the period of ordinal o
            # waits for the high entity's block under the int key
            # (o * n + low) * n + high, which orders like (o, low, high);
            # blocks come in id order, so the high block pops each key the
            # low one left. The value is the low block's shared-text count
            # c and attitude sum a as (c << _PAIR_SHIFT) + a: an int key
            # and value take less memory than a tuple of each.
            pending: dict[int, int] = {}
            for eid in range(n):
                for d, p in index._decode_block(eid).items():
                    co = p[_CO]
                    pairs += len(co)
                    fanout_max = max(fanout_max, len(co))
                    base = d.toordinal() * n
                    for e2, c, a in co:
                        value = (c << _PAIR_SHIFT) + a
                        if e2 > eid:
                            pending[(base + eid) * n + e2] = value
                        elif pending.pop((base + e2) * n + eid,
                                         None) != value:
                            raise _mirror_error(index, d, e2, eid)
            if pending:
                rest, high = divmod(min(pending), n)
                ordinal, low = divmod(rest, n)
                raise _mirror_error(index, date.fromordinal(ordinal), low,
                                    high)
            out["cooccur_pairs"] = pairs
            out["cooccur_fanout_max"] = fanout_max
    return out


def _mirror_error(index: EntityIndex, d: date, low: int, high: int
                  ) -> IndexFormatError:
    """The error for a co-occurrence of entities ``low`` and ``high`` in the
    period starting ``d`` that their two blocks do not hold alike."""
    return IndexFormatError(
        f"co-occurrence of {index.entities[low]!r} and "
        f"{index.entities[high]!r} in the period starting {d} differs "
        f"between their blocks")


def _decode_sdic(buf: memoryview) -> list[str]:
    (count,) = _U32.unpack_from(buf, 0)
    pos = 4
    out = []
    for _ in range(count):
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        if pos + n > len(buf):
            raise ValueError("string dictionary overrun")
        out.append(str(buf[pos:pos + n], "utf-8"))
        pos += n
    if pos != len(buf):
        raise ValueError("trailing bytes in string dictionary")
    return out


def _decode_slic(buf: memoryview, g: Granularity
                 ) -> dict[date, tuple[int, int]]:
    (count,) = _U32.unpack_from(buf, 0)
    if 4 + count * _SLICE_REC.size != len(buf):
        raise ValueError("slice section length does not match its count")
    out: dict[date, tuple[int, int]] = {}
    last = None
    for ordinal, tt, ut in _SLICE_REC.iter_unpack(buf[4:]):
        d = date.fromordinal(ordinal)
        if not 1 <= ut <= tt:
            raise ValueError(f"slice {d} has counts out of range")
        if last is not None and d <= last:
            raise ValueError("slice periods not strictly increasing")
        if start_date(d, g) != d:
            raise ValueError(f"slice {d} is not the start of a {g.value}")
        out[d] = (tt, ut)
        last = d
    if last is not None:
        period_containing(last, g)  # the last period must end before date.max
    return out


def _decode_pdir(buf: memoryview, n_entities: int, post_len: int
                 ) -> tuple[list[int], list[int]]:
    """Block offsets (plus the end of POST) and posting counts per entity,
    checked against the total posting count."""
    count, total = _DIR_HEAD.unpack_from(buf, 0)
    if count != n_entities:
        raise ValueError(f"block directory lists {count} entities, "
                         f"dictionary has {n_entities}")
    if _DIR_HEAD.size + count * _DIR_REC.size != len(buf):
        raise ValueError("block directory length does not match its count")
    records = list(_DIR_REC.iter_unpack(buf[_DIR_HEAD.size:]))
    offsets = [off for off, _ in records] + [post_len]
    counts = [n for _, n in records]
    if offsets[0] != 0 or any(a > b for a, b in zip(offsets, offsets[1:])):
        raise ValueError("posting blocks do not tile the posting section")
    if sum(counts) != total:
        raise ValueError("block posting counts do not sum to the total")
    return offsets, counts
