import copy
import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entity_pulse as ep
from entity_pulse import cli
from entity_pulse.synth import (EVENT_KINDS, MAX_PLANNED_TEXTS,
                                MAX_SCENARIO_TEXTS, SplitMix64, class_pools)

from helpers import make_corpus, month, window


BASE_DOC = {
    "seed": 17,
    "window": {"from": "2015-01-01", "to": "2016-01-01"},
    "granularity": "month",
    "users": 10,
    "entities": [{"id": "ent:A", "rate": 5}, {"id": "ent:B", "rate": 3}],
}


def doc_with(**overrides):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(overrides)
    return doc


def spike(factor):
    return {"kind": "popularity-spike", "period": "2015-02",
            "entity": "ent:A", "factor": factor}


class TestSplitMix64:
    def test_frozen_vectors(self):
        # Cross-checked against an independent C implementation of the
        # documented constants.
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xC329812D1D820396, 0x777A8E89A21F7D3F, 0x98422BF551912D1F]
        assert SplitMix64(1234567).next_u64() == 0x6FF531915134D07C

    def test_uniform_range(self):
        r = SplitMix64(99)
        for _ in range(1000):
            assert 0.0 <= r.uniform() < 1.0

    def test_below(self):
        r = SplitMix64(5)
        assert all(0 <= r.below(7) < 7 for _ in range(200))


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        spec = ep.scenario_from_json(doc_with())
        rows_a, manifest_a = ep.generate(spec)
        rows_b, manifest_b = ep.generate(spec)
        assert rows_a == rows_b
        assert json.dumps(manifest_a) == json.dumps(manifest_b)

    def test_different_seed_differs(self):
        rows_a, _ = ep.generate(ep.scenario_from_json(doc_with(seed=1)))
        rows_b, _ = ep.generate(ep.scenario_from_json(doc_with(seed=2)))
        assert rows_a != rows_b

    def test_write_corpus_round_trips_through_ingest(self, tmp_path):
        spec = ep.scenario_from_json(doc_with())
        corpus_path = tmp_path / "c.csv"
        manifest_path = tmp_path / "m.json"
        manifest = ep.write_corpus(spec, corpus_path, manifest_path)
        _, stats = ep.ingest(corpus_path)
        assert stats.record_count == manifest["rows"]
        assert stats.rejected_count == 0
        assert json.loads(manifest_path.read_text())["rows"] == manifest["rows"]

    def test_entity_ids_needing_escapes_round_trip_through_ingest(
            self, tmp_path):
        ids = ["100%", "ent:A", "a;b", "x,y", "cr\rhere", "lf\nhere",
               "all%:;,\r\n"]
        spec = ep.scenario_from_json(
            doc_with(entities=[{"id": e, "rate": 2} for e in ids]))
        rows, manifest = ep.generate(spec)
        assert not any("\r" in r or "\n" in r for r in rows)  # a row a line
        path = tmp_path / "c.csv"
        ep.write_corpus(spec, path)
        corpus, stats = ep.ingest(path)
        assert stats.rejected_count == 0
        assert stats.record_count == manifest["rows"] == len(rows)
        assert sorted(corpus.entities) == sorted(ids)


# Every event kind, two spikes on one (entity, period), a per-period rate
# list, an id that needs escaping, and a spam block so rows carry text.
GOLDEN_DOC = {
    "seed": 2024,
    "window": {"from": "2015-01-01", "to": "2015-05-01"},
    "granularity": "month",
    "users": 7,
    "extra_mention_prob": 0.3,
    "vocab_overlap": 0.25,
    "entities": [{"id": "ent:A", "rate": 3},
                 {"id": "ent:B,%;x", "rate": [2, 0, 1, 4]}],
    "events": [
        {"kind": "popularity-spike", "entity": "ent:A", "period": "2015-02",
         "factor": 1.5},
        {"kind": "controversy-burst", "entity": "ent:B,%;x",
         "period": "2015-03", "texts": 3},
        {"kind": "pair-link", "a": "ent:A", "b": "ent:C", "period": "2015-01",
         "texts": 2},
        {"kind": "popularity-spike", "entity": "ent:A", "period": "2015-02",
         "factor": 1.7},
        {"kind": "signed-pair", "a": "ent:A", "b": "ent:B,%;x",
         "period": "2015-04", "texts": 2, "attitude": -3},
        {"kind": "spam-block", "period": "2015-02", "texts": 3},
    ],
}


class TestGoldenBytes:
    def test_generate_output_is_pinned(self):
        # The generator is fully specified, so its bytes may not drift.
        rows, manifest = ep.generate(ep.scenario_from_json(GOLDEN_DOC))
        blob = "\n".join(rows) + "\n" + json.dumps(manifest)
        assert (len(rows), manifest["spam_rows"]) == (34, 3)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "cffa57cb74ff7d0571dfddfd18981d80496d3f8eb97a1e315c0e7cbff4955e78")

    def test_spikes_are_applied_to_the_plan(self):
        spec = ep.scenario_from_json(GOLDEN_DOC)
        # ent:A: 3 texts a month, times 1.5 * 1.7 in February, rounded.
        assert spec.entities == [("ent:A", [3, 8, 3, 3]),
                                 ("ent:B,%;x", [2, 0, 1, 4])]


class TestSpikesNeedTexts:
    # A factor-50 spike on an entity that has no rate.
    UNKNOWN_ENTITY = doc_with(
        window={"from": "2015-01-01", "to": "2015-04-01"},
        entities=[{"id": "ent:A", "rate": 2}],
        events=[dict(spike(50), entity="ent:Z")])
    # A spike on a month in which its entity's rate is 0.
    RATE_ZERO = doc_with(entities=[{"id": "ent:A", "rate": [4, 0] + [4] * 10}],
                         events=[spike(3)])

    @pytest.mark.parametrize("doc,entity", [(UNKNOWN_ENTITY, "ent:Z"),
                                            (RATE_ZERO, "ent:A")],
                             ids=["unknown-entity", "rate-zero-month"])
    def test_a_spike_that_plants_nothing_is_refused(self, doc, entity):
        with pytest.raises(ep.ScenarioError) as err:
            ep.scenario_from_json(doc)
        assert str(err.value).startswith(
            f"events[0].factor: plans 0 texts for {entity!r} in 2015-02")

    def test_generate_refuses_it_as_a_json_error(self, tmp_path, capsys):
        spec, out = tmp_path / "scenario.json", tmp_path / "corpus.csv"
        spec.write_text(json.dumps(self.UNKNOWN_ENTITY))
        assert cli.main(["generate", "--spec", str(spec),
                         "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line)["error"].startswith(
            "events[0].factor: plans 0 texts")
        assert not out.exists()


class TestEmptyScenario:
    def test_zero_rates_empty_corpus_empty_manifest(self):
        doc = doc_with(entities=[{"id": "ent:A", "rate": 0}])
        rows, manifest = ep.generate(ep.scenario_from_json(doc))
        assert rows == []
        assert manifest["rows"] == 0
        assert manifest["events"] == []


class TestValidation:
    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(seed="x"), "seed"),
        (lambda d: d.update(users=0), "users"),
        (lambda d: d.update(granularity="decade"), "granularity"),
        (lambda d: d.update(window={"from": "2016-01-01", "to": "2015-01-01"}),
         "window"),
        (lambda d: d.update(entities=[{"id": "", "rate": 1}]), "entities[0].id"),
        (lambda d: d.update(entities=[{"id": "a", "rate": -1}]),
         "entities[0].rate"),
        (lambda d: d.update(entities=[{"id": "a", "rate": [1, 2]}]),
         "entities[0].rate"),
        (lambda d: d.update(entities=[{"id": "a", "rate": 1},
                                      {"id": "a", "rate": 1}]),
         "entities[1].id"),
        (lambda d: d.update(extra_mention_prob=1.5), "extra_mention_prob"),
        (lambda d: d.update(events=[{"kind": "nonsense", "period": "2015-02"}]),
         "events[0].kind"),
        (lambda d: d.update(events=[{"kind": "pair-link", "period": "2014-02",
                                     "a": "x", "b": "y", "texts": 1}]),
         "events[0].period"),
        (lambda d: d.update(events=[{"kind": "pair-link", "period": "2015-02",
                                     "a": "x", "b": "x", "texts": 1}]),
         "events[0].b"),
        (lambda d: d.update(events=[{"kind": "signed-pair", "period": "2015-02",
                                     "a": "x", "b": "y", "texts": 1,
                                     "attitude": 9}]),
         "events[0].attitude"),
        (lambda d: d.update(events=[{"kind": "popularity-spike",
                                     "period": "2015-02", "entity": "a",
                                     "factor": 0}]),
         "events[0].factor"),
    ])
    def test_field_level_diagnostics(self, mutate, needle):
        doc = doc_with()
        mutate(doc)
        with pytest.raises(ep.ScenarioError) as err:
            ep.scenario_from_json(doc)
        assert needle in str(err.value)

    @pytest.mark.parametrize("overrides,needle", [
        ({"granularity": 5}, "granularity"),
        ({"granularity": None}, "granularity"),
        ({"granularity": ["month"]}, "granularity"),
        ({"events": [spike(float("nan"))]}, "events[0].factor"),
        ({"events": [spike(float("inf"))]}, "events[0].factor"),
        ({"events": [spike(True)]}, "events[0].factor"),
        ({"extra_mention_prob": False}, "extra_mention_prob"),
        ({"extra_mention_prob": True}, "extra_mention_prob"),
        ({"vocab_overlap": False}, "vocab_overlap"),
        ({"vocab_overlap": True}, "vocab_overlap"),
    ])
    def test_ill_typed_values_name_the_field(self, overrides, needle):
        with pytest.raises(ep.ScenarioError) as err:
            ep.scenario_from_json(doc_with(**overrides))
        assert needle in str(err.value)

    def test_planned_texts_bound_is_inclusive(self):
        doc = doc_with(entities=[{"id": "ent:A", "rate": 2}],
                       events=[spike(MAX_PLANNED_TEXTS / 2)])
        ep.scenario_from_json(doc)
        doc["events"].append(spike(1.5))
        with pytest.raises(ep.ScenarioError, match=r"events\[1\]\.factor"):
            ep.scenario_from_json(doc)

    def test_whole_plan_is_bounded_at_the_field_that_passes_it(self):
        # Two entities at the per-period bound every day of 2015-2016 plan
        # 1.46e9 rows; the first alone passes the bound.
        doc = doc_with(granularity="day",
                       window={"from": "2015-01-01", "to": "2017-01-01"},
                       entities=[{"id": "ent:A", "rate": MAX_PLANNED_TEXTS},
                                 {"id": "ent:B", "rate": MAX_PLANNED_TEXTS}])
        with pytest.raises(ep.ScenarioError,
                           match=r"^entities\[0\]\.rate: plans 7\.31e\+08 "
                                 r"texts in all; at most"):
            ep.scenario_from_json(doc)

    @pytest.mark.parametrize("events,needle", [
        ([dict(spike(10**5), entity=e) for e in "ABC"], None),
        ([dict(spike(10**5), entity=e) for e in "ABCD"], "events[3].factor"),
        ([{"kind": "spam-block", "period": "2015-03",
           "texts": MAX_PLANNED_TEXTS}], None),
        ([{"kind": "spam-block", "period": "2015-03",
           "texts": MAX_PLANNED_TEXTS}] * 2, "events[1].texts"),
    ])
    def test_whole_plan_bound_counts_spikes_and_event_texts(self, events,
                                                            needle):
        # Five entities at rate 5 a month: 300 texts before the events, and
        # 5e5 more per spike, each under the per-(entity, period) bound.
        doc = doc_with(entities=[{"id": c, "rate": 5} for c in "ABCDE"],
                       events=events)
        if needle is None:
            ep.scenario_from_json(doc)
            return
        with pytest.raises(ep.ScenarioError) as err:
            ep.scenario_from_json(doc)
        assert str(err.value).startswith(f"{needle}: plans ")
        assert f"at most {MAX_SCENARIO_TEXTS} are allowed" in str(err.value)

    @pytest.mark.parametrize("event", [
        {"kind": "controversy-burst", "entity": "ent:A"},
        {"kind": "pair-link", "a": "ent:A", "b": "ent:B"},
        {"kind": "signed-pair", "a": "ent:A", "b": "ent:B", "attitude": 2},
        {"kind": "spam-block"},
    ], ids=lambda ev: ev["kind"])
    def test_event_texts_are_bounded(self, event):
        event = dict(event, period="2015-02")
        for texts in (1, MAX_PLANNED_TEXTS):
            ep.scenario_from_json(doc_with(events=[dict(event, texts=texts)]))
        for texts in (0, MAX_PLANNED_TEXTS + 1, 10**12, 2.0, True):
            with pytest.raises(ep.ScenarioError,
                               match=r"^events\[0\]\.texts: must be an "
                                     rf"integer in \[1, {MAX_PLANNED_TEXTS}\]"):
                ep.scenario_from_json(doc_with(events=[dict(event,
                                                            texts=texts)]))

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc_with()))
        spec = ep.load_scenario(path)
        assert spec.users == 10
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ep.ScenarioError):
            ep.load_scenario(bad)


# A valid document that holds every field a scenario can have.
FULL_DOC = {
    "seed": 3,
    "window": {"from": "2015-01-01", "to": "2015-07-01"},
    "granularity": "month",
    "users": 5,
    "extra_mention_prob": 0.2,
    "vocab_overlap": 0.1,
    "entities": [{"id": "ent:A", "rate": 2},
                 {"id": "ent:B", "rate": [1, 0, 2, 1, 0, 3]}],
    "events": [
        {"kind": "popularity-spike", "entity": "ent:A", "period": "2015-02",
         "factor": 2},
        {"kind": "controversy-burst", "entity": "ent:B", "period": "2015-03",
         "texts": 3},
        {"kind": "pair-link", "a": "ent:A", "b": "ent:B", "period": "2015-04",
         "texts": 2},
        {"kind": "signed-pair", "a": "ent:A", "b": "ent:B",
         "period": "2015-05", "texts": 2, "attitude": -2},
        {"kind": "spam-block", "period": "2015-06", "texts": 2},
    ],
}
# Each field as its key path: the top-level keys, then those of the window
# and of each entity and event.
FIELDS = ([(k,) for k in FULL_DOC]
          + [("window", k) for k in FULL_DOC["window"]]
          + [(name, i, k) for name in ("entities", "events")
             for i, item in enumerate(FULL_DOC[name]) for k in item])
# Values near the rules' edges, so that the draws pass the type checks
# often enough to reach the range and cross-field rules behind them.
NEAR_VALID = st.sampled_from([
    0, 1, -1, 2, 4, 5, 6, 0.4, 0.5, 0.99, 1.0, 2.5, 1e308, 10**400,
    MAX_PLANNED_TEXTS, MAX_PLANNED_TEXTS + 1, "ent:A", "ent:B", "ent:C",
    "2014-12", "2015", "2015-03", "2015-07-01", "2015-13", "2015-06-30",
    "9999-12-31", "99999999999999999999", "day", "week", "year", " Month ",
    *EVENT_KINDS, [1, 2, 3, 4, 5, 6], [1] * 26, [],
    {"from": "2015-01", "to": "2015-04"}, {"from": "2015-01"},
    [{"id": "ent:A", "rate": 1}], [{"kind": "spam-block"}],
])
JSON_VALUES = st.one_of(NEAR_VALID, st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8))


def _mutated(field, value) -> dict:
    """A copy of FULL_DOC with ``value`` at the key path ``field``."""
    doc = copy.deepcopy(FULL_DOC)
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    return doc


def _path(field) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in field).lstrip(".")


def _names(path: str, message: str) -> bool:
    return re.match(re.escape(path) + r"[:.\[]", message) is not None


def _cross_field(field, message: str) -> bool:
    """Whether ``message`` comes from a rule that ties the mutated ``field``
    to another field and reports that other one."""
    head = field[0]
    if head in ("window", "granularity") and re.match(
            r"window: |events\[\d+\]\.period: lies outside the scenario"
            r" window|entities\[\d+\]\.rate: .* a list of \d+ ", message):
        return True
    if head == "entities" and re.match(r"entities\[\d+\]\.id: duplicate",
                                       message):
        return True
    if field[-1] == "a" and _names(_path(field[:-1]) + ".b", message):
        return "pair endpoints must differ" in message
    if field[-1] == "kind":  # the kind decides which fields its event has
        return _names(_path(field[:-1]), message)
    return re.match(r"events\[\d+\]\.factor: plans ", message) is not None


def _planned_rows(spec) -> float:
    """An upper bound on the rows ``generate(spec)`` makes."""
    factor = math.prod(ev["factor"] for ev in spec.events
                       if ev["kind"] == "popularity-spike")
    return (sum(sum(rates) for _, rates in spec.entities) * factor
            + sum(ev.get("texts", 0) for ev in spec.events))


class TestScenarioProperty:
    def test_full_doc_is_valid(self):
        rows, manifest = ep.generate(ep.scenario_from_json(FULL_DOC))
        assert manifest["rows"] == len(rows) > 0
        assert [ev["kind"] for ev in manifest["events"]] == list(EVENT_KINDS)

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(FIELDS), JSON_VALUES)
    def test_any_value_in_one_field_is_accepted_or_named(self, field, value):
        try:
            spec = ep.scenario_from_json(_mutated(field, value))
        except ep.ScenarioError as exc:
            message = str(exc)
            assert _names(_path(field), message) \
                or _cross_field(field, message), (field, message)
            return
        if _planned_rows(spec) <= 20_000:
            rows, manifest = ep.generate(spec)
            assert manifest["rows"] == len(rows)
            _, stats = ep.ingest(iter(rows))
            assert (stats.record_count, stats.rejected_count) == (len(rows), 0)

    # Windows whose last period ends past 9999-12-31.
    LAST_WINDOWS = [("year", "9999-11", "9999-12"),
                    ("month", "9999-12-01", "9999-12-02"),
                    ("week", "9999-12-27", "9999-12-30")]

    @pytest.mark.parametrize("granularity,start,end", LAST_WINDOWS)
    def test_window_past_the_last_day_names_the_window(self, granularity,
                                                        start, end):
        doc = doc_with(granularity=granularity, entities=[],
                       window={"from": start, "to": end})
        with pytest.raises(ep.ScenarioError,
                           match=r"^window: the \w+ starting 9999-\S+ ends "
                                 r"after 9999-12-31"):
            ep.scenario_from_json(doc)

    def test_generate_on_a_window_past_the_last_day_is_a_json_error(
            self, tmp_path, capsys):
        granularity, start, end = self.LAST_WINDOWS[0]
        spec, out = tmp_path / "scenario.json", tmp_path / "corpus.csv"
        spec.write_text(json.dumps(doc_with(
            granularity=granularity, window={"from": start, "to": end})))
        assert cli.main(["generate", "--spec", str(spec),
                         "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line)["error"].startswith("window: ")
        assert not out.exists()

    MESSAGES = [
        (("seed",), -1, "seed: must be an integer >= 0"),
        (("users",), 0, "users: must be an integer >= 1"),
        (("window", "from"), 5, "window.from: must be a non-empty string"),
        (("window", "to"), "2014-01", "window: empty window: "),
        (("events", 0, "factor"), 10**400,
         f"events[0].factor: must be a number in [1, {MAX_PLANNED_TEXTS}]"),
        (("events", 0, "period"), "99999999999999999999",
         "events[0].period: bad period token"),
        (("entities", 1, "rate"), [1, 2, 3, 4, 5, -6],
         f"entities[1].rate: must be an integer in [0, {MAX_PLANNED_TEXTS}]"),
    ]

    @pytest.mark.parametrize("field,value,message", MESSAGES,
                             ids=[_path(f) for f, _, _ in MESSAGES])
    def test_messages_start_with_the_field_path(self, field, value, message):
        with pytest.raises(ep.ScenarioError) as err:
            ep.scenario_from_json(_mutated(field, value))
        assert str(err.value).startswith(message)


class TestPlantedEvents:
    def test_rates_shape_the_monthly_volume(self):
        rates = [10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]
        doc = doc_with(entities=[{"id": "ent:A", "rate": rates}])
        rows, manifest = ep.generate(ep.scenario_from_json(doc))
        assert manifest["rows"] == 12
        corpus = make_corpus(rows)
        idx = ep.build(corpus, ep.Granularity.MONTH, 2.0)
        jan = idx.posting("ent:A", month(2015, 1))
        dec = idx.posting("ent:A", month(2015, 12))
        assert (jan.text_count, dec.text_count) == (10, 2)
        assert idx.posting("ent:A", month(2015, 5)) is None

    def test_spike_recovered_as_top_popularity_period(self):
        doc = doc_with(events=[{"kind": "popularity-spike", "entity": "ent:A",
                                "period": "2015-07", "factor": 10}])
        rows, manifest = ep.generate(ep.scenario_from_json(doc))
        idx = ep.build(make_corpus(rows), ep.Granularity.MONTH, 2.0)
        ranked = ep.top_k_periods(idx, "ent:A", window(2015, 2016),
                                  "popularity_cu", 1, "high")
        assert ranked.items[0][0].render() == manifest["events"][0]["period"]

    def test_burst_recovered_as_top_controversial_period(self):
        doc = doc_with(events=[{"kind": "controversy-burst", "entity": "ent:A",
                                "period": "2015-03", "texts": 30}])
        rows, manifest = ep.generate(ep.scenario_from_json(doc))
        idx = ep.build(make_corpus(rows), ep.Granularity.MONTH, 2.0)
        ranked = ep.top_k_periods(idx, "ent:A", window(2015, 2016),
                                  "controversiality", 1, "high")
        assert ranked.items[0][0].render() == manifest["events"][0]["period"]

    def test_pair_link_counts_match_manifest(self):
        doc = doc_with(events=[{"kind": "pair-link", "a": "ent:A",
                                "b": "ent:linked", "period": "2015-05",
                                "texts": 7}])
        rows, manifest = ep.generate(ep.scenario_from_json(doc))
        idx = ep.build(make_corpus(rows), ep.Granularity.MONTH, 2.0)
        p = idx.posting("ent:A", month(2015, 5))
        assert p.cooccur["ent:linked"] == (7, 0)

    def test_signed_pair_lands_in_the_right_network(self):
        doc = doc_with(events=[{"kind": "signed-pair", "a": "ent:A",
                                "b": "ent:foe", "period": "2015-06",
                                "texts": 5, "attitude": -3}])
        rows, _ = ep.generate(ep.scenario_from_json(doc))
        idx = ep.build(make_corpus(rows), ep.Granularity.MONTH, 2.0)
        neg = ep.signed_k_network(idx, "ent:A", month(2015, 6), 5,
                                  "negative", 2.0)
        pos = ep.signed_k_network(idx, "ent:A", month(2015, 6), 5,
                                  "positive", 2.0)
        assert "ent:foe" in {n for n, _, _ in neg.entries}
        assert "ent:foe" not in {n for n, _, _ in pos.entries}

    def test_spam_block_adds_text_column(self):
        doc = doc_with(events=[{"kind": "spam-block", "period": "2015-02",
                                "texts": 4}])
        rows, manifest = ep.generate(ep.scenario_from_json(doc))
        assert manifest["spam_rows"] == 4
        assert manifest["with_text"]
        corpus = make_corpus(rows)
        assert any(r.text is not None for r in corpus.records())
        spam_pool, _ = class_pools(0.2)
        spam_texts = [r.text for r in corpus.records()
                      if r.text and r.text.split()[0] in spam_pool]
        assert len(spam_texts) >= 4


class TestLabeledDocs:
    def test_deterministic_and_sized(self):
        docs = ep.generate_labeled_docs(100, overlap=0.2, seed=4)
        assert docs == ep.generate_labeled_docs(100, overlap=0.2, seed=4)
        assert len(docs) == 100
        labels = {label for _, label in docs}
        assert labels == {"spam", "ham"}

    def test_zero_overlap_pools_are_disjoint(self):
        spam_pool, ham_pool = class_pools(0.0)
        assert not set(spam_pool) & set(ham_pool)

    def test_overlap_shares_words(self):
        spam_pool, ham_pool = class_pools(0.25)
        assert len(set(spam_pool) & set(ham_pool)) == 8
