"""Multinomial naive Bayes spam/ham classifier for the ingest pipeline.

Feature pipeline: Unicode-lowercase the text, split on runs of
non-alphanumeric characters, drop single-character tokens. No stemming,
no stopword list. Counting is order-independent and the vocabulary is
sorted, so training is deterministic for any input permutation.

Token probabilities use additive smoothing with constant ``alpha``: a
token seen in training but never in one class still gets nonzero mass
there. Tokens never seen in training carry no information and are ignored
at classification time. Posterior ties go to ham (keep the text).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable

from .corpus import Row, csv_rows, read_json, write_atomic

CLASSES = ("spam", "ham")
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
MODEL_FORMAT = "entity-pulse-nb"
MODEL_VERSION = 1


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) > 1]


@dataclass(frozen=True)
class NBModel:
    vocabulary: dict[str, int]  # token -> column
    class_log_prior: dict[str, float]
    token_log_likelihood: dict[str, list[float]]  # per class, by column
    alpha: float


def train(labeled, alpha: float = 1.0) -> NBModel:
    """Fit the classifier on ``(text, label)`` pairs with labels spam/ham."""
    if not 0 < alpha < math.inf:  # NaN too: a saved model must load
        raise ValueError(f"alpha must be a finite number > 0, got {alpha}")
    doc_counts = {c: 0 for c in CLASSES}
    token_counts: dict[str, dict[str, int]] = {c: {} for c in CLASSES}
    for text, label in labeled:
        if label not in CLASSES:
            raise ValueError(f"unknown label {label!r}; expected spam or ham")
        doc_counts[label] += 1
        counts = token_counts[label]
        for tok in tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
    if min(doc_counts.values()) == 0:
        raise ValueError("training data must contain both spam and ham examples")
    vocabulary = {tok: i for i, tok in enumerate(
        sorted(set(token_counts["spam"]) | set(token_counts["ham"])))}
    total_docs = sum(doc_counts.values())
    priors = {c: math.log(doc_counts[c] / total_docs) for c in CLASSES}
    likelihoods: dict[str, list[float]] = {}
    v = len(vocabulary)
    for c in CLASSES:
        counts = token_counts[c]
        denom = sum(counts.values()) + alpha * v
        likelihoods[c] = [math.log((counts.get(tok, 0) + alpha) / denom)
                          for tok in vocabulary]
    return NBModel(vocabulary, priors, likelihoods, alpha)


def posteriors(model: NBModel, text: str) -> dict[str, float]:
    """Normalized class posteriors; they sum to 1 by construction."""
    vocab = model.vocabulary
    cols = [vocab[t] for t in tokenize(text) if t in vocab]
    joint = {}
    for c in CLASSES:
        lik = model.token_log_likelihood[c]
        joint[c] = model.class_log_prior[c] + sum(lik[i] for i in cols)
    peak = max(joint.values())
    weights = {c: math.exp(j - peak) for c, j in joint.items()}
    z = sum(weights.values())
    return {c: w / z for c, w in weights.items()}


def classify(model: NBModel, text: str) -> tuple[str, float]:
    """Winning label and its posterior; an exact tie keeps the text (ham)."""
    p = posteriors(model, text)
    label = "spam" if p["spam"] > p["ham"] else "ham"
    return label, p[label]


def filter_rows(rows: Iterable[Row], model: NBModel
                ) -> tuple[list[Row], int]:
    """Drop rows classified as spam; rows without text are kept.

    ``rows`` are compact rows as :func:`corpus.scan` yields them. Returns
    the surviving rows, in their order, and the number of removed rows.
    Raises ValueError if no row carries text: spam filtering needs the
    extended schema with a text column.
    """
    kept: list[Row] = []
    removed = 0
    has_text = False
    for row in rows:
        text = row[8]
        if text is not None:
            has_text = True
            if classify(model, text)[0] == "spam":
                removed += 1
                continue
        kept.append(row)
    if not has_text:
        raise ValueError("corpus carries no text column; spam filtering "
                         "needs the extended 7-column schema")
    return kept, removed


def save_model(model: NBModel, path) -> None:
    vocab_order = sorted(model.vocabulary, key=model.vocabulary.get)
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "alpha": model.alpha,
        "classes": list(CLASSES),
        "log_prior": model.class_log_prior,
        "vocabulary": vocab_order,
        "token_log_likelihood": model.token_log_likelihood,
    }
    with write_atomic(path) as fh:
        fh.write(json.dumps(doc))


def load_model(path) -> NBModel:
    """Read a model written by :func:`save_model`; a file that is not one
    raises ValueError, naming the first missing or ill-typed key."""
    doc = read_json(path, "model")
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} model file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    tokens = doc.get("vocabulary")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and len(set(tokens)) == len(tokens)):
        raise ValueError("model vocabulary: expected a list of distinct "
                         "strings")
    alpha = doc.get("alpha")
    if not (_is_number(alpha) and alpha > 0):
        raise ValueError("model alpha: expected a number > 0")
    priors = _per_class(doc, "log_prior", _is_number)
    likelihoods = _per_class(
        doc, "token_log_likelihood",
        lambda v: (isinstance(v, list) and len(v) == len(tokens)
                   and all(map(_is_number, v))))
    vocabulary = {tok: i for i, tok in enumerate(tokens)}
    return NBModel(vocabulary, priors, likelihoods, alpha)


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _per_class(doc: dict, key: str, valid) -> dict:
    """``doc[key]``, a map from each class to a value ``valid`` accepts."""
    value = doc.get(key)
    if not (isinstance(value, dict) and set(value) == set(CLASSES)
            and all(valid(value[c]) for c in CLASSES)):
        raise ValueError(f"model {key}: expected one valid entry per class "
                         f"{list(CLASSES)}")
    return value


def read_labeled_csv(source) -> list[tuple[str, str]]:
    """Training input ``label,text`` rows as (text, label) pairs.

    ``source`` is anything :func:`corpus.csv_rows` reads: a path (a ``.gz``
    file is decompressed), an open text stream, or an iterable of lines.
    """
    out = []
    for row_no, fields in csv_rows(source):
        if len(fields) != 2:
            raise ValueError(f"row {row_no}: expected label,text")
        label, text = fields
        out.append((text, label))
    return out
