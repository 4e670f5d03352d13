"""ragloop: simulate and measure the feedback loop between retrieval
systems and machine-generated text."""

# set before the submodules load: `remote` names it in its User-Agent
__version__ = "0.1.0"

from .config import ExperimentConfig, load_config, validate_config
from .corpus import (CorpusSnapshot, Document, SourceTag, add_documents,
                     ingest_seed_corpus)
from .retrieval import (InvertedIndex, RankedList, VectorIndex, search_bm25,
                        search_dense, tokenize)
from .runner import ExperimentRunner, emit_plot_series, run_experiment

__all__ = [
    "CorpusSnapshot", "Document", "ExperimentConfig", "ExperimentRunner",
    "InvertedIndex", "RankedList", "SourceTag", "VectorIndex",
    "add_documents", "emit_plot_series", "ingest_seed_corpus", "load_config",
    "run_experiment", "search_bm25", "search_dense",
    "tokenize", "validate_config", "__version__",
]
