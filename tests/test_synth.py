import json

import pytest

import entity_pulse as ep
from entity_pulse.synth import MAX_PLANNED_TEXTS, SplitMix64, class_pools

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
