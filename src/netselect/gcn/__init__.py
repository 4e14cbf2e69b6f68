from .layers import (
    ChebNetConfig,
    ChebNetParams,
    elu,
    forward_batch,
    init_params,
    leaky_relu,
    net_backward,
    pack_params,
    scale_laplacian,
    tensor_items,
    unpack_params,
)
from .train import NetReconstructor, TrainConfig, train_prediction_net
from .selection import (
    SensorScores,
    score_sensors,
    train_selection_dropout,
    train_selection_masking,
    write_scores_csv,
)

__all__ = [
    "ChebNetConfig",
    "ChebNetParams",
    "NetReconstructor",
    "TrainConfig",
    "SensorScores",
    "elu",
    "forward_batch",
    "init_params",
    "leaky_relu",
    "net_backward",
    "pack_params",
    "scale_laplacian",
    "score_sensors",
    "tensor_items",
    "train_prediction_net",
    "train_selection_dropout",
    "train_selection_masking",
    "unpack_params",
    "write_scores_csv",
]
