"""Entity-centric temporal analytics over sentiment-annotated text archives."""

from .corpus import (AnnotatedText, Corpus, CorpusStats, IngestError,
                     Rejection, ingest, parse_record)
from .index import (EntityIndex, EntityPosting, IndexFormatError, build,
                    inspect_file, load, save)
from .measures import (MEASURES, MeasurePoint, RankedPeriods, attitude,
                       controversiality, popularity_c, popularity_cu,
                       popularity_u, sentimentality, series, top_k_periods)
from .relations import (RankedNetwork, connectedness_to_set,
                        direct_connectedness, indirect_connectedness,
                        k_network, signed_k_network)
from .spam import NBModel, classify, filter_rows, load_model, save_model, train
from .synth import (ScenarioError, ScenarioSpec, SplitMix64, generate,
                    generate_labeled_docs, load_scenario, scenario_from_json,
                    write_corpus)
from .timeline import Granularity, Period, enumerate_periods, period_of

__version__ = "0.1.0"

__all__ = [
    "AnnotatedText", "Corpus", "CorpusStats", "EntityIndex", "EntityPosting",
    "Granularity", "IndexFormatError", "IngestError", "MEASURES",
    "MeasurePoint", "NBModel", "Period", "RankedNetwork", "RankedPeriods",
    "Rejection", "ScenarioError", "ScenarioSpec", "SplitMix64", "attitude",
    "build", "classify", "connectedness_to_set", "controversiality",
    "direct_connectedness", "enumerate_periods", "filter_rows", "generate",
    "generate_labeled_docs", "indirect_connectedness", "ingest",
    "inspect_file", "k_network", "load", "load_model", "load_scenario",
    "parse_record", "period_of", "popularity_c", "popularity_cu",
    "popularity_u", "save", "save_model", "scenario_from_json",
    "sentimentality", "series", "signed_k_network", "top_k_periods", "train",
    "write_corpus",
]
