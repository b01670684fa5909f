"""Model zoo: wide residual networks and the PoE branched architecture."""

from .branched import BranchedSpecialistNet
from .flops import count_flops, count_params, frozen_param_count, profile
from .fused_head import FusedHeadBank, bank_share_nbytes
from .wrn import (
    BasicBlock,
    WideResNet,
    WRNGroup,
    WRNHead,
    WRNHeadBank,
    WRNTrunk,
    scaled_channels,
    wrn_group_widths,
)
from .zoo import EXPERIMENT_ARCHS, PAPER_ARCHS, WRNConfig, build_wrn, get_config

__all__ = [
    "WideResNet",
    "WRNTrunk",
    "WRNHead",
    "WRNHeadBank",
    "WRNGroup",
    "BasicBlock",
    "BranchedSpecialistNet",
    "FusedHeadBank",
    "bank_share_nbytes",
    "scaled_channels",
    "wrn_group_widths",
    "count_flops",
    "count_params",
    "frozen_param_count",
    "profile",
    "WRNConfig",
    "PAPER_ARCHS",
    "EXPERIMENT_ARCHS",
    "build_wrn",
    "get_config",
]
