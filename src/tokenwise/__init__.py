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
    VerificationSummary,
    generate_corpus,
    load_corpus,
    run_benchmark,
    save_corpus,
    verify,
    verify_files,
)
from .logmath import LOG_ONE, LOG_ZERO, log_add, log_sum
from .metrics import (
    EfficiencyStats,
    ErrorCounts,
    corpus_oracle_wer,
    corpus_wer,
    edit_distance,
    efficiency_stats,
)
from .model import (
    EncoderOutput,
    JoinerCounters,
    ModelSpec,
    PredictorState,
    SeededModel,
    TabularModel,
    TokenCapModel,
    TransducerModel,
    Vocabulary,
    load_model,
    load_model_file,
    read_model_spec,
    write_model_spec,
)
from .oracle import (
    ExactMarginals,
    exact_marginals,
    exact_nbest,
    exact_sequence_marginal,
)

__version__ = "0.1.0"
