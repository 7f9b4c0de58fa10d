from .adam import AdamState, minibatch_epochs
from .layers import MLP, Linear, ResidualBlock, leaky_relu, leaky_relu_backward
from .lstm import BiLSTM, LSTMCell
from .params import Module, Param, uniform_init
from .pointnet import FEATURE_DIM, PointEncoder

__all__ = [
    "AdamState", "minibatch_epochs", "MLP", "Linear", "ResidualBlock", "leaky_relu",
    "leaky_relu_backward", "BiLSTM", "LSTMCell", "Module", "Param",
    "uniform_init", "FEATURE_DIM", "PointEncoder",
]
