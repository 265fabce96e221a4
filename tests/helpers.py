"""Shared builders for test corpora and windows."""

from __future__ import annotations

import gzip
import random
import struct
import zlib
from collections import namedtuple
from datetime import datetime, timezone

import entity_pulse as ep
from entity_pulse.corpus import csv_line

UTC = timezone.utc


def row(text_id, user, ts, mentions, pos, neg, text=None) -> str:
    """One CSV line; mentions is a list of (entity, confidence) pairs."""
    ment = ";".join(
        f"{e.replace('%', '%25').replace(':', '%3A').replace(';', '%3B').replace(',', '%2C')}:{c}"
        for e, c in mentions)
    fields = [text_id, user, ts, ment, str(pos), str(neg)]
    if text is not None:
        fields.append(text)
    return csv_line(fields)


def damaged_gzip(lines: list[str], damage: str) -> bytes:
    """``lines`` gzipped, then cut to half their compressed length
    ("truncated") or with the first deflate block given the reserved
    block type 3 ("corrupt")."""
    data = gzip.compress("".join(f"{line}\n" for line in lines).encode(),
                         mtime=0)
    if damage == "truncated":
        return data[:len(data) // 2]
    # The 10-byte header has no optional fields; 0x07 is BFINAL=1, BTYPE=3.
    return data[:10] + b"\x07" + data[11:]


def phi_row(text_id, user, ts, mentions, phi) -> str:
    """Row whose sentiment scores realize the requested attitude."""
    pos, neg = (1 + phi, -1) if phi >= 0 else (1, -1 + phi)
    return row(text_id, user, ts, mentions, pos, neg)


def make_corpus(rows, min_confidence=None):
    corpus, _ = ep.ingest(iter(rows), min_confidence=min_confidence)
    return corpus


# What ``oracle`` reads of a record, as ``benchmarks/gate.py`` builds it.
Mention = namedtuple("Mention", "entity_id")
Record = namedtuple("Record", "user_id timestamp mentions attitude "
                              "sentimentality")


def records_of(rows):
    """Oracle records of ``rows``, each of which must parse."""
    out = []
    for line in rows:
        rec = ep.parse_record(line)
        assert isinstance(rec, ep.AnnotatedText), rec
        out.append(Record(rec.user_id, rec.timestamp,
                          tuple(Mention(e) for e, _ in rec.mentions),
                          rec.attitude, rec.sentimentality))
    return out


def month(year, mon) -> ep.Period:
    return ep.period_of(datetime(year, mon, 15, tzinfo=UTC),
                        ep.Granularity.MONTH)


def window(y1, y2):
    return (datetime(y1, 1, 1, tzinfo=UTC), datetime(y2, 1, 1, tzinfo=UTC))


def random_scenario_doc(rng: random.Random, n_texts_hint: int,
                        max_entities: int = 40, users: int | None = None,
                        with_events: bool = True) -> dict:
    """Random scenario (12 monthly periods of 2015) within the fuzz caps."""
    n_entities = rng.randint(2, max_entities)
    users = users if users is not None else rng.randint(2, 20)
    # Spread the text budget over entities and periods.
    per_cell = max(1, n_texts_hint // (n_entities * 12))
    entities = []
    for i in range(n_entities):
        if rng.random() < 0.3:
            rates = [rng.randint(0, 2 * per_cell) for _ in range(12)]
        else:
            rates = rng.randint(0, 2 * per_cell)
        entities.append({"id": f"ent:E{i:03d}", "rate": rates})
    events = []
    if with_events and n_entities >= 2:
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(["controversy-burst", "pair-link",
                               "signed-pair", "popularity-spike"])
            period = f"2015-{rng.randint(1, 12):02d}"
            if kind == "controversy-burst":
                events.append({"kind": kind, "period": period,
                               "entity": f"ent:E{rng.randrange(n_entities):03d}",
                               "texts": rng.randint(2, 3 * per_cell + 4)})
            elif kind == "popularity-spike":
                events.append({"kind": kind, "period": period,
                               "entity": f"ent:E{rng.randrange(n_entities):03d}",
                               "factor": rng.randint(2, 8)})
            else:
                a, b = rng.sample(range(n_entities), 2)
                ev = {"kind": kind, "period": period,
                      "a": f"ent:E{a:03d}", "b": f"ent:E{b:03d}",
                      "texts": rng.randint(1, 2 * per_cell + 3)}
                if kind == "signed-pair":
                    ev["attitude"] = rng.choice([-4, -3, -2, 2, 3, 4])
                events.append(ev)
    # A spike needs texts to multiply: drop those on a rate-0 month. This
    # draws nothing, so the rest of the document, and its rows, stay as
    # they were drawn.
    monthly = {e["id"]: e["rate"] if isinstance(e["rate"], list)
               else [e["rate"]] * 12 for e in entities}
    events = [ev for ev in events if ev["kind"] != "popularity-spike"
              or monthly[ev["entity"]][int(ev["period"][5:]) - 1]]
    return {
        "seed": rng.randrange(2 ** 32),
        "window": {"from": "2015-01-01", "to": "2016-01-01"},
        "granularity": "month",
        "users": users,
        "entities": entities,
        "extra_mention_prob": rng.choice([0.0, 0.15, 0.3, 0.45]),
        "events": events,
    }


def build_random_corpus(seed: int, n_texts_hint: int, **kwargs):
    """(records, corpus, rows) for a random scenario."""
    rng = random.Random(seed)
    doc = random_scenario_doc(rng, n_texts_hint, **kwargs)
    spec = ep.scenario_from_json(doc)
    rows, manifest = ep.generate(spec)
    records = records_of(rows)
    corpus = make_corpus(rows)
    return records, corpus, rows


# EPX container layout, as the format comment in ``entity_pulse.index``
# documents it: a 22-byte header holding the payload's CRC32 at byte 16 and
# the section count at byte 20, then one 20-byte table entry per section.
_EPX_HEADER, _EPX_ENTRY = 22, struct.Struct("<4sQQ")


def epx_bytes(index, path) -> bytes:
    """The bytes ``index`` saves to at ``path``: its canonical form."""
    ep.save(index, path)
    return path.read_bytes()


def epx_section(blob, tag: bytes) -> tuple[int, int]:
    """(offset, length) of section ``tag`` in an EPX container."""
    (nsections,) = struct.unpack_from("<H", blob, 20)
    for i in range(nsections):
        got, off, length = _EPX_ENTRY.unpack_from(
            blob, _EPX_HEADER + i * _EPX_ENTRY.size)
        if got == tag:
            return off, length
    raise KeyError(tag)


def reseal_epx(blob) -> bytes:
    """``blob`` with its payload CRC32 recomputed, as a writer would store
    it, so that edited bytes get past the checksum."""
    blob = bytearray(blob)
    (nsections,) = struct.unpack_from("<H", blob, 20)
    payload = blob[_EPX_HEADER + _EPX_ENTRY.size * nsections:]
    struct.pack_into("<I", blob, 16, zlib.crc32(payload))
    return bytes(blob)
