"""Graph encoder: model, weight persistence, contrastive training."""

from .model import (
    ACTIVATIONS,
    Embedding,
    EmbeddingOverflow,
    EmptySet,
    EncoderConfig,
    ShapeMismatch,
    embed_molecule,
    embed_molecules,
    embed_set,
    node_states,
    tag_layer,
)
from .training import (
    NonFiniteLoss,
    TrainingHyper,
    TrainingResult,
    contrastive_loss_and_grad,
    train_contrastive,
)
from .weights import (
    FormatError,
    GnnWeights,
    ShapeError,
    load_weights,
    random_init,
    save_weights,
)

__all__ = [
    "ACTIVATIONS",
    "Embedding",
    "EmbeddingOverflow",
    "EmptySet",
    "EncoderConfig",
    "FormatError",
    "GnnWeights",
    "NonFiniteLoss",
    "ShapeError",
    "ShapeMismatch",
    "TrainingHyper",
    "TrainingResult",
    "contrastive_loss_and_grad",
    "embed_molecule",
    "embed_molecules",
    "embed_set",
    "load_weights",
    "node_states",
    "random_init",
    "save_weights",
    "tag_layer",
    "train_contrastive",
]
