"""Financial text mining toolkit: sentiment and key-entity detection.

Three-stage pipeline over short financial texts:

1. sentiment classification with a small trainable transformer encoder,
2. coarse-grained key-entity detection as entity/text pair matching with a
   configurable decision threshold,
3. fine-grained key-entity extraction as question-conditioned span prediction.

Supporting machinery: deterministic hybrid character/word tokenizer, seeded
training loops with Adam, k-fold cross-validation, seed ensembles combined by
majority voting, classical baseline classifiers over frozen bag-of-feature
vectors, and entity-level precision/recall/F1 evaluation.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: E402,F401
    Document,
    Lexicon,
    MrcExample,
    PairExample,
    SentimentLabel,
    build_mrc_dataset,
    build_pair_dataset,
    clean_text,
    load_corpus,
    rule_match_entities,
    save_corpus,
)
from .encoder import EncoderConfig, EncoderParams, bow_encode, forward, init_params  # noqa: E402,F401
from .evaluation import (  # noqa: E402,F401
    EnsembleSpec,
    ensemble_train,
    run_pipeline,
    vote_sentiment,
)
from .tasks import (  # noqa: E402,F401
    EntityMetrics,
    FocalConfig,
    accuracy,
    build_question,
    entity_prf,
    extract_span,
    predict_sentiment,
    score_entity,
)
from .tokenizer import Vocab, build_vocab, encode_pair, encode_single, tokenize  # noqa: E402,F401
from .training import (  # noqa: E402,F401
    Checkpoint,
    TrainConfig,
    cross_validate,
    load_checkpoint,
    neighborhood_search,
    save_checkpoint,
    train,
)
