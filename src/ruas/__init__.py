"""Retinex-inspired unrolling with cooperative architecture search."""

from . import autodiff, diagnostics, io_metrics, scene, search, search_space, task, train
from .autodiff import Parameter, SGD, Tensor, backward, grad_check
from .config import SceneConfig, SearchConfig, TaskConfig, TrainConfig
from .errors import (
    ConfigError,
    ContractError,
    DataIOError,
    DomainError,
    NumericError,
    RuasError,
    ShapeError,
)
from .model import RuasModel, SearchModel, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
