"""Uplink coexistence simulator: one broadband device and many MTC devices
sharing a slot at a multi-antenna base station, under orthogonal
(time-sharing) and non-orthogonal (MRC-SIC) slicing."""

from .channel import ChannelRealization, SystemConfig, db_to_linear, draw_realization
from .embb_analysis import EmbbOperatingPoint, operating_point
from .monte_carlo import build_trial_table, build_trial_tables
from .numerics import RngStream
from .sic_decoder import DecodeOutcome, decode_non_orthogonal, decode_orthogonal, sic_order
from .slicing_search import (
    max_devices,
    max_mmtc_rate_nonorth,
    max_mmtc_rate_orth,
    nonorthogonal_region,
    orthogonal_region,
)

__version__ = "0.1.0"
