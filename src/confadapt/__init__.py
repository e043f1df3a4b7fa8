"""Cross-domain hyper-parameter adaptation of Conformer-style models.

A desk-scale toolkit: a weight-shared Conformer supernet whose block
hyper-parameters (feed-forward width, attention heads, head dim, conv
kernel) are selected by Gumbel-Softmax architecture weights with a
model-size penalty, plus the full two-stage pipeline from source-domain
pre-training to target-domain fine-tuning of the derived model.
"""

__version__ = "0.1.0"

from .tensor import Tensor, backward, no_grad
from .space import ArchSpace, DerivedArch, param_count, expected_param_count
from .supernet import ConformerSupernet, DerivedModel, one_hot_weights
from .search import (
    ArchLogits,
    alternating_step,
    expected_weights,
    extract,
    penalized_loss,
    sample_weights,
)
from .losses import (
    TokenSeq,
    attention_ce_loss,
    ctc_loss,
    greedy_decode,
    hybrid_loss,
)
from .data import Corpus, DomainSpec, Utterance, default_domain_pair, generate, median_split
from .checkpoint import Checkpoint
from .pipeline import (
    StageConfig,
    adapt_supernet,
    derive_model,
    parameter_finetune,
    pretrain_supernet,
    run_recipe,
)
from .report import stratified_eval, sweep

__all__ = [
    "Tensor", "backward", "no_grad",
    "ArchSpace", "DerivedArch", "param_count", "expected_param_count",
    "ConformerSupernet", "DerivedModel", "one_hot_weights",
    "ArchLogits", "alternating_step", "expected_weights", "extract",
    "penalized_loss", "sample_weights",
    "TokenSeq", "attention_ce_loss", "ctc_loss", "greedy_decode", "hybrid_loss",
    "Corpus", "DomainSpec", "Utterance", "default_domain_pair", "generate", "median_split",
    "Checkpoint",
    "StageConfig", "adapt_supernet", "derive_model", "parameter_finetune",
    "pretrain_supernet", "run_recipe",
    "stratified_eval", "sweep",
    "__version__",
]
