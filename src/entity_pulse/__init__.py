"""Entity-centric temporal analytics over sentiment-annotated text archives.

The public names below are imported from their modules on first use
(PEP 562), so that importing one module, as each ``epx`` query does, does
not import, and compile, the rest of the package.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULES = {
    "corpus": ("AnnotatedText", "Corpus", "CorpusStats", "Rejection",
               "ingest", "parse_record"),
    "files": ("IngestError",),
    "index": ("EntityIndex", "EntityPosting", "IndexFormatError", "build",
              "inspect_file", "load", "save"),
    "measures": ("MEASURES", "MeasurePoint", "RankedPeriods", "attitude",
                 "controversiality", "popularity_c", "popularity_cu",
                 "popularity_u", "sentimentality", "series",
                 "top_k_periods"),
    "relations": ("RankedNetwork", "connectedness_to_set",
                  "direct_connectedness", "indirect_connectedness",
                  "k_network", "signed_k_network"),
    "spam": ("NBModel", "classify", "filter_rows", "load_model",
             "save_model", "train"),
    "synth": ("ScenarioError", "ScenarioSpec", "SplitMix64", "generate",
              "generate_labeled_docs", "load_scenario", "scenario_from_json",
              "write_corpus"),
    "timeline": ("Granularity", "Period", "enumerate_periods", "period_of"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
