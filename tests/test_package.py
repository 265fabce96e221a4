"""The public ``entity_pulse`` namespace."""

import importlib
import importlib.util
import sys
from datetime import datetime, timezone

import pytest

import entity_pulse as ep


def test_every_public_name_resolves_once():
    assert len(ep.__all__) == len(set(ep.__all__))
    missing = [name for name in ep.__all__ if not hasattr(ep, name)]
    assert missing == []


@pytest.fixture
def fresh(monkeypatch):
    """A new copy of the package namespace, in which no public name has
    been looked up yet, standing in for ``entity_pulse`` in
    ``sys.modules``; its names resolve to the loaded modules."""
    for module in set(ep._MODULE_OF.values()):
        importlib.import_module(f"entity_pulse.{module}")
    spec = importlib.util.find_spec("entity_pulse")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(sys.modules, "entity_pulse", module)
    return module


def test_each_public_name_is_its_modules_object(fresh):
    for name in fresh.__all__:
        module = importlib.import_module(
            f"entity_pulse.{fresh._MODULE_OF[name]}")
        assert getattr(fresh, name) is getattr(module, name), name


def test_dir_lists_every_public_name(fresh):
    assert set(fresh.__all__) - set(dir(fresh)) == set()


def test_star_import_binds_every_public_name(fresh):
    namespace: dict = {}
    exec("from entity_pulse import *", namespace)
    assert {name: namespace.get(name) for name in fresh.__all__} == {
        name: getattr(fresh, name) for name in fresh.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ep.no_such_name
    assert not hasattr(ep, "corpus_of")


def _records():
    period = ep.period_of(datetime(2015, 7, 1, tzinfo=timezone.utc),
                          ep.Granularity.MONTH)
    return [period,
            ep.EntityPosting("a", period, 1, 1, 0, 0, 0, 0, {}),
            ep.MeasurePoint("a", period, 0.5, 1),
            ep.RankedPeriods("a", "attitude", "high", 1, ((period, 0.5),)),
            ep.RankedNetwork("a", period, "plain", None, ())]


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "x"
