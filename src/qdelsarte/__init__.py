"""Exact Delsarte-style LP bounds and explicit codes for quantum metric spaces."""

from .families import (CliffordEven, CliffordOdd, Family, MetricProfile,
                       QHamming, Semispinorial, Spinorial, Su2, SunExt,
                       SuqSym, profile, validate)
from .lp import LPOptions, dist2_bound, dist2_bound_pure, feasible, lp_bound, volume_bound
from .wtj import lambda_signature, wtj, wtj_matrix

__all__ = [
    "CliffordEven", "CliffordOdd", "Family", "MetricProfile", "QHamming",
    "Semispinorial", "Spinorial", "Su2", "SunExt", "SuqSym", "profile",
    "validate", "LPOptions", "dist2_bound", "dist2_bound_pure", "feasible",
    "lp_bound", "volume_bound", "lambda_signature", "wtj", "wtj_matrix",
]
