"""Uplink coexistence simulator: one broadband device and many MTC devices
sharing a slot at a multi-antenna base station, under orthogonal
(time-sharing) and non-orthogonal (MRC-SIC) slicing."""

from .channel import ChannelRealization, SystemConfig, db_to_linear, draw_realization
from .embb_analysis import (
    EmbbOperatingPoint,
    activation_probability,
    operating_point,
    outage_rate,
    power_inversion,
    target_snr,
    threshold_snr,
)
from .monte_carlo import OutageEstimate, build_trial_table
from .numerics import (
    RngStream,
    inv_reg_lower_gamma,
    sample_complex_gaussian_vector,
    upper_incomplete_gamma,
)
from .sic_decoder import DecodeOutcome, decode_non_orthogonal, decode_orthogonal, sic_order
from .slicing_search import (
    RatePoint,
    max_devices,
    max_mmtc_rate_nonorth,
    max_mmtc_rate_orth,
    nonorthogonal_region,
    orthogonal_region,
)

__version__ = "0.1.0"
