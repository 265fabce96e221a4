import gzip
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import entity_pulse as ep
from entity_pulse.corpus import scan
from entity_pulse.spam import posteriors, read_labeled_csv, tokenize

from helpers import row


class TestTokenize:
    def test_lowercase_split_drop_singletons(self):
        assert tokenize("Buy NOW!! cheap-pills 4 u") == \
            ["buy", "now", "cheap", "pills"]

    def test_underscore_is_a_separator(self):
        assert tokenize("hello_world") == ["hello", "world"]

    def test_unicode(self):
        assert tokenize("Καφές και Μπισκότα") == ["καφές", "και", "μπισκότα"]

    def test_empty(self):
        assert tokenize("") == []


class TestTrain:
    def test_symmetric_priors(self):
        model = ep.train([("buy now", "spam"), ("hello friend", "ham")])
        assert math.exp(model.class_log_prior["spam"]) == pytest.approx(0.5)
        assert math.exp(model.class_log_prior["ham"]) == pytest.approx(0.5)

    def test_spam_exclusive_token_leans_spam(self):
        model = ep.train([("jackpot jackpot", "spam"), ("meeting notes", "ham")])
        col = model.vocabulary["jackpot"]
        assert model.token_log_likelihood["spam"][col] > \
            model.token_log_likelihood["ham"][col]

    def test_separable_corpus_trains_to_perfection(self):
        docs = ep.generate_labeled_docs(200, overlap=0.0, seed=3)
        model = ep.train(docs)
        hits = sum(ep.classify(model, text)[0] == label
                   for text, label in docs)
        assert hits == len(docs)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ep.train([("a b", "spam")])

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ep.train([("a b", "spam"), ("c d", "ham")], alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ep.train([("a b", "spam"), ("c d", "ham")], alpha=alpha)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            ep.train([("a b", "spam"), ("c d", "unknown")])

    def test_training_order_invariant(self):
        docs = ep.generate_labeled_docs(80, overlap=0.2, seed=9)
        model_a = ep.train(docs)
        shuffled = docs[:]
        random.Random(1).shuffle(shuffled)
        model_b = ep.train(shuffled)
        assert model_a == model_b


class TestModelInvariants:
    def model(self):
        return ep.train(ep.generate_labeled_docs(120, overlap=0.2, seed=5))

    def test_priors_sum_to_one(self):
        m = self.model()
        total = sum(math.exp(v) for v in m.class_log_prior.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_likelihoods_sum_to_one_per_class(self):
        m = self.model()
        for cls in ("spam", "ham"):
            total = sum(math.exp(v) for v in m.token_log_likelihood[cls])
            assert total == pytest.approx(1.0, abs=1e-9)


class TestClassify:
    def test_empty_text_prior_tie_goes_ham(self):
        model = ep.train([("buy now", "spam"), ("hello friend", "ham")])
        label, posterior = ep.classify(model, "")
        assert label == "ham"
        assert posterior == pytest.approx(0.5, abs=1e-12)

    def test_pure_spam_tokens(self):
        model = ep.train([("jackpot lottery prize", "spam"),
                          ("meeting agenda notes", "ham")])
        label, posterior = ep.classify(model, "jackpot prize")
        assert label == "spam"
        assert posterior > 0.5

    def test_out_of_vocabulary_tokens_carry_no_signal(self):
        model = ep.train([("jackpot lottery", "spam"),
                          ("meeting agenda", "ham")])
        assert posteriors(model, "zzz unseen") == posteriors(model, "")

    def test_held_out_accuracy(self):
        docs = ep.generate_labeled_docs(1000, overlap=0.2, seed=11)
        train_docs, held_out = docs[:800], docs[800:]
        model = ep.train(train_docs)
        hits = sum(ep.classify(model, text)[0] == label
                   for text, label in held_out)
        assert hits / len(held_out) >= 0.95

    @given(st.text(max_size=60))
    def test_posteriors_sum_to_one(self, text):
        model = ep.train([("buy cheap pills now", "spam"),
                          ("lovely weather for a walk", "ham")])
        p = posteriors(model, text)
        assert p["spam"] + p["ham"] == pytest.approx(1.0, abs=1e-12)

    def test_duplication_of_training_set_keeps_predictions(self):
        # Smoothing dilutes less once counts double, so posteriors move a
        # little; the decisions must not.
        docs = ep.generate_labeled_docs(60, overlap=0.2, seed=13)
        model_a = ep.train(docs)
        model_b = ep.train(docs + docs)
        probes = [text for text, _ in
                  ep.generate_labeled_docs(120, overlap=0.2, seed=14)]
        probes += ["", "jackpot meeting", "free coffee today"]
        for probe in probes:
            assert ep.classify(model_a, probe)[0] == \
                ep.classify(model_b, probe)[0]

    @given(st.lists(st.sampled_from(
        ["meeting", "coffee", "jackpot", "free", "weather", "zzz"]),
        max_size=6))
    def test_spam_token_monotonicity(self, words):
        model = ep.train([("jackpot free lottery", "spam"),
                          ("meeting coffee weather", "ham")])
        base = " ".join(words)
        before = posteriors(model, base)["spam"]
        after = posteriors(model, base + " jackpot")["spam"]
        assert after >= before - 1e-12


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = ep.train(ep.generate_labeled_docs(50, overlap=0.2, seed=2))
        path = tmp_path / "model.json"
        ep.save_model(model, path)
        again = ep.load_model(path)
        assert again == model

    def test_bad_file(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="model"):
            ep.load_model(path)
        with pytest.raises(ValueError):
            ep.load_model(tmp_path / "missing.json")

    def test_read_labeled_csv(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text('spam,"buy, now"\nham,hello\n')
        assert read_labeled_csv(path) == [("buy, now", "spam"),
                                          ("hello", "ham")]
        bad = tmp_path / "bad.csv"
        bad.write_text("spam,text,extra\n")
        with pytest.raises(ValueError, match="row 1"):
            read_labeled_csv(bad)

    def test_read_labeled_csv_from_gzip(self, tmp_path):
        path = tmp_path / "labeled.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write('spam,"buy, now"\r\n\r\nham,"two\nlines"\r\n')
        assert read_labeled_csv(path) == [("buy, now", "spam"),
                                          ("two\nlines", "ham")]


def scanned(lines):
    """The compact rows that ``scan`` yields for CSV ``lines``."""
    return scan(iter(lines))[1]


def textual_rows(spam_texts, ham_texts):
    rows = []
    for i, text in enumerate(spam_texts):
        rows.append(row(f"s{i}", "u1", "2015-07-05T10:00:00Z",
                        [("e", 1.0)], 1, -1, text=text))
    for i, text in enumerate(ham_texts):
        rows.append(row(f"h{i}", "u2", "2015-07-06T10:00:00Z",
                        [("e", 1.0)], 1, -1, text=text))
    return scanned(rows)


class TestFilterRows:
    def test_all_ham_model_removes_nothing(self):
        model = ep.train([("jackpot", "spam"), ("anything else here", "ham"),
                          ("more regular words", "ham")])
        kept, removed = ep.filter_rows(
            textual_rows([], ["regular words", "more words"]), model)
        assert removed == 0
        assert len(kept) == 2

    def test_everything_spam(self):
        model = ep.train([("jackpot lottery", "spam"),
                          ("meeting notes", "ham")])
        kept, removed = ep.filter_rows(
            textual_rows(["jackpot jackpot", "lottery jackpot"], []), model)
        assert removed == 2
        assert len(kept) == 0

    def test_textless_corpus_rejected(self):
        model = ep.train([("jackpot", "spam"), ("meeting", "ham")])
        rows = scanned([row("t1", "u1", "2015-07-05T10:00:00Z",
                            [("e", 1.0)], 1, -1)])
        with pytest.raises(ValueError, match="text column"):
            ep.filter_rows(rows, model)

    def test_planted_block_recovered_within_two_percent(self):
        doc = {
            "seed": 31, "window": {"from": "2015-01-01", "to": "2016-01-01"},
            "granularity": "month", "users": 10,
            "entities": [{"id": "e", "rate": 15}],
            "events": [{"kind": "spam-block", "period": "2015-04",
                        "texts": 200}],
        }
        rows, manifest = ep.generate(ep.scenario_from_json(doc))
        assert manifest["spam_rows"] == 200
        model = ep.train(ep.generate_labeled_docs(1000, overlap=0.2, seed=8))
        kept, removed = ep.filter_rows(scanned(rows), model)
        assert abs(removed - 200) <= 0.02 * 200
        assert len(kept) + removed == manifest["rows"]
