"""Uplink coexistence simulator: one broadband device and many MTC devices
sharing a slot at a multi-antenna base station, under orthogonal
(time-sharing) and non-orthogonal (MRC-SIC) slicing."""

__version__ = "0.1.0"
