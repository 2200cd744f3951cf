"""ABC for growing mechanistic network models with extrapolated and
subsampled summary statistics."""

from .curvefit import CurveExtrapolator, LsFit, extrapolate, fit_series
from .gp import GpExtrapolator, KernelSpec, fit_map, kernel_value, predict
from .graph import Graph, er_seed, induced_triangles, sample_nodes
from .models import (
    DmcParams,
    GrowthPlan,
    PriceParams,
    dmc_step,
    grow_dmc,
    grow_price,
    preferential_sample,
)
from .rejection import (
    AbcPosterior,
    PriorBox,
    ReferenceTable,
    ReferenceTableEntry,
    accept_top_k_density,
    accept_top_k_distance,
    bivariate_density,
    draw_prior,
    posterior_stats,
    standardization_sds,
    std_euclidean,
)
from .summaries import SummarySpec, TrackedSeries, evaluate

__version__ = "0.1.0"

__all__ = [
    "AbcPosterior",
    "CurveExtrapolator",
    "DmcParams",
    "GpExtrapolator",
    "Graph",
    "GrowthPlan",
    "KernelSpec",
    "LsFit",
    "PriceParams",
    "PriorBox",
    "ReferenceTable",
    "ReferenceTableEntry",
    "SummarySpec",
    "TrackedSeries",
    "accept_top_k_density",
    "accept_top_k_distance",
    "bivariate_density",
    "dmc_step",
    "draw_prior",
    "er_seed",
    "evaluate",
    "extrapolate",
    "fit_map",
    "fit_series",
    "grow_dmc",
    "grow_price",
    "induced_triangles",
    "kernel_value",
    "posterior_stats",
    "predict",
    "preferential_sample",
    "sample_nodes",
    "standardization_sds",
    "std_euclidean",
]
