"""Segment-batched token-wise beam search for sequence transducers."""

from .decoder import (
    UNBOUNDED_BEAM,
    DecodeConfig,
    DecodeTrace,
    NBestList,
    decode_utterance_standard,
    decode_utterance_tokenwise,
)
from .harness import (
    BenchmarkReport,
    Utterance,
    corpus_summary,
    generate_corpus,
    load_corpus,
    run_benchmark,
    save_corpus,
    verify,
)
from .logmath import LOG_ONE, LOG_ZERO, log_add
from .metrics import corpus_oracle_wer, corpus_wer, edit_distance
from .model import (
    EncoderOutput,
    JoinerCounters,
    PredictorState,
    SeededModel,
    TabularModel,
    TokenCapModel,
    TransducerModel,
    Vocabulary,
    load_model,
    load_model_file,
    read_model_spec,
)
from .oracle import exact_marginals, exact_nbest, exact_sequence_marginals

__version__ = "0.1.0"
