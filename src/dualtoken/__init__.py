"""Dual-token vision transformer with position-aware global tokens, built on
a small numpy autodiff core. Everything runs in numpy, convolutions included;
they are dense or depthwise, the two groupings the model uses."""

from .tensor import (Tensor, GradTape, backward, count_macs, add, sub, mul,
                     scale, gelu, sigmoid, matmul, conv2d, avgpool2d,
                     layernorm, softmax, bilinear_resize)
from .gradcheck import grad_check
from .layers import Linear, LayerNorm, MultiHeadAttention, init_params
from .block import DualTokenBlock
from .container import CheckpointError
from .model import (ModelConfig, StageConfig, Model, build_model, preset,
                    PRESET_NAMES, save_checkpoint, load_checkpoint)
from .analysis import (CostReport, count_params, count_flops,
                       instrumented_macs, extract_attention_map,
                       export_heatmap, top_cells, TABLE_TARGETS)
from .data import SyntheticDataset, gen_synthetic, save_dataset, load_dataset
from .train import (cross_entropy, train_toy, train_step, evaluate,
                    TrainState, save_state, load_state, TrainingDiverged)

__version__ = "0.1.0"
