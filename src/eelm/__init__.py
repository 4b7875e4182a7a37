"""Single-hidden-layer feedforward networks, two ways.

``train_elm`` draws the hidden layer at random and solves the output
weights through an SVD pseudoinverse; ``train_eelm`` constructs the
hidden layer from the training samples (an order-preserving affine
embedding plus per-node gain/bias selection) so that the hidden-layer
output matrix is provably full column rank and the faster
normal-equation solve applies. A benchmark CLI (``eelm``) reproduces
the standard sinc and UCI-style comparison protocols.
"""

from .bench import (ExperimentConfig, run_dataset, run_node_sweep, run_sinc,
                    validate_report)
from .datasets import (CLASSIFICATION, REGRESSION, CsvSchema, Dataset,
                       classification_rate, gen_sinc, load_csv, minmax_scale,
                       rmse, split)
from .errors import (FormatError, NumericalFailure, NumericOverflowError,
                     PreconditionError, RankDeficientError, ShapeError)
from .models import (SlfnModel, TrainReport, load_model, predict, save_model,
                     train_eelm, train_elm)

__version__ = "0.1.0"

# The building blocks (the embedding, the selection, the pseudoinverse
# paths, CSV helpers) stay importable from their submodules.
__all__ = [
    # errors
    "FormatError", "NumericalFailure", "NumericOverflowError",
    "PreconditionError", "RankDeficientError", "ShapeError",
    # data
    "CLASSIFICATION", "REGRESSION", "CsvSchema", "Dataset",
    "classification_rate", "gen_sinc", "load_csv", "minmax_scale", "rmse",
    "split",
    # models
    "SlfnModel", "TrainReport", "load_model", "predict", "save_model",
    "train_eelm", "train_elm",
    # experiments
    "ExperimentConfig", "run_dataset", "run_node_sweep", "run_sinc",
    "validate_report",
]
