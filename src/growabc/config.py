"""Run configuration: a flat key=value text file mirroring the
RunConfig fields, plus command-line overrides.

This module alone decides which settings are valid: a key's type comes
from its RunConfig annotation (``none`` or an empty value only for an
Optional field), ``_CHOICES`` lists the values of the string-valued keys,
and ``RunConfig.validate`` refuses a config whose entries cannot be built.
"""

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Optional, get_args, get_type_hints

from . import curvefit, gp
from .errors import ConfigError
from .models import DmcParams, GrowthPlan, PriceParams
from .rejection import PriorBox
from .seeding import AUX_OFFSET, FILL_OFFSET, OBSERVED_OFFSET, REPLICATE_BLOCK
from .summaries import DIRECTED_KINDS, SAMPLED_KINDS, SummarySpec

METHODS = ("S", "LS", "GPa", "GPb", "GPc", "RE")
# methods whose table rows carry GP predictive variances and correlation
GP_METHODS = ("GPa", "GPb", "GPc")
# methods that accept by GP predictive density; the rest by distance
DENSITY_METHODS = ("GPa", "GPb")

# the allowed values of the string-valued keys
_CHOICES = {
    "model": ("dmc", "price"),
    "method": METHODS,
    "seed_type": ("er", "edgelist"),
    "kernel": gp.KERNEL_FAMILIES,
    "standardization": ("extrapolated", "auxiliary"),
}

# fields that never influence results, excluded from the config hash
_NON_SEMANTIC = ("workers", "timing_reps")


@dataclass
class RunConfig:
    model: str = "dmc"
    prior_low: tuple = (0.15, 0.1)
    prior_high: tuple = (0.35, 0.9)
    seed_type: str = "er"
    seed_n: int = 30
    seed_p: float = 0.2
    seed_rng: int = 1
    seed_path: Optional[str] = None
    seed_cutoff: Optional[int] = None
    n_s: int = 500
    n_o: int = 1000
    checkpoint_start: int = 35
    checkpoint_stop: int = 0          # 0 means n_s
    checkpoint_step: int = 5
    summaries: str = "avg_degree,triangle_count"
    n_star: int = 100
    replicates: int = 1
    method: str = "LS"
    kernel: str = "linear_plus_rbf"
    table_size: int = 1000
    accept_k: int = 50
    standardization: str = "extrapolated"
    aux_count: int = 1000
    master_seed: int = 0
    truths: str = "0.25:0.5"
    exp_replicates: int = 20
    inflate: float = 100.0
    out_cap: int = 610
    workers: int = 0
    timing_reps: int = 3

    def validate(self):
        """Raise ConfigError unless every entry of the run can be built.
        Only field values are read, so no network is grown first."""
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError("%s must be one of %s, not %r"
                                  % (name, allowed, getattr(self, name)))
        try:
            specs = self.summary_specs()
            kinds = {spec.kind for spec in specs}
            plan = self.entry_plan()
            if self.seed_type == "er":  # an edge-list seed is read later
                plan.validate(self.seed_n)
            self.prior_box()
            truths = self.truth_list()
            for theta in (self.prior_low, self.prior_high, *truths):
                self.growth_params(theta)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        sampled = bool(kinds & set(SAMPLED_KINDS))
        cps = plan.checkpoints
        # checkpoints a fit needs: one per parameter of an LS family
        if self.method == "S":
            need = 0
        elif self.method in GP_METHODS:
            need = gp.MIN_CHECKPOINTS
        else:
            need = max(len(curvefit.PARAM_NAMES[spec.family])
                       for spec in specs)
        # a sampled summary is first evaluated at the plan's first
        # checkpoint, or at its target; n_star must be no larger
        first = (cps or (plan.n_target,))[0]
        # each seeding role's stream indices stay below the next role's
        max_truths = (AUX_OFFSET - OBSERVED_OFFSET) // REPLICATE_BLOCK
        for bad, reason in (
                (self.n_s > self.n_o, "n_s must be <= n_o"),
                (not 1 <= self.table_size < OBSERVED_OFFSET,
                 "table_size must be >= 1 and < %d" % OBSERVED_OFFSET),
                (self.accept_k < 1, "accept_k must be >= 1"),
                (not 1 <= self.exp_replicates <= REPLICATE_BLOCK,
                 "exp_replicates must be >= 1 and <= %d" % REPLICATE_BLOCK),
                (len(truths) > max_truths,
                 "%d truths exceed the %d allowed"
                 % (len(truths), max_truths)),
                (len(kinds) < len(specs),
                 "summaries %r name a kind twice" % self.summaries),
                (self.method == "GPb" and not self.inflate > 0,
                 "method GPb needs inflate > 0"),
                (self.standardization == "auxiliary"
                 and not 2 <= self.aux_count <= FILL_OFFSET - AUX_OFFSET,
                 "standardization=auxiliary needs aux_count >= 2 and "
                 "<= %d" % (FILL_OFFSET - AUX_OFFSET)),
                # the sds of the table's extrapolated values
                (self.method not in DENSITY_METHODS
                 and self.standardization == "extrapolated"
                 and self.table_size < 2,
                 "method %s with standardization=extrapolated needs "
                 "table_size >= 2" % self.method),
                (self.method == "RE" and not sampled,
                 "method RE needs a sample_triangle_count summary"),
                # the density they accept by is bivariate
                (self.method in DENSITY_METHODS and len(specs) != 2,
                 "method %s needs exactly two summaries, not %d"
                 % (self.method, len(specs))),
                (self.model == "dmc" and kinds & set(DIRECTED_KINDS),
                 "in-degree summaries need model=price"),
                (self.seed_type == "edgelist" and not self.seed_path,
                 "seed_type=edgelist needs seed_path"),
                (len(cps) < need, "method %s needs at least %d checkpoints, "
                 "not %d" % (self.method, need, len(cps))),
                (sampled and self.n_star > first,
                 "n_star=%d exceeds the %d nodes where the sampled "
                 "summary is first evaluated" % (self.n_star, first))):
            if bad:
                raise ConfigError(reason)
        return self

    def theta_names(self):
        return ("q_m", "q_c") if self.model == "dmc" else ("k0", "p")

    def growth_params(self, theta):
        """Growth-model parameters for one parameter vector."""
        if self.model == "dmc":
            return DmcParams(*theta)
        return PriceParams(*theta, out_cap=self.out_cap)

    def prior_box(self):
        return PriorBox(tuple(self.prior_low), tuple(self.prior_high))

    def entry_plan(self):
        """The growth plan of a table entry: method S entries grow to
        n_o without checkpoints."""
        if self.method == "S":
            return GrowthPlan(self.n_o)
        return GrowthPlan(self.n_s, self.checkpoints(), self.summary_specs())

    def checkpoints(self):
        stop = min(self.checkpoint_stop or self.n_s, self.n_s)
        return tuple(range(self.checkpoint_start, stop + 1,
                           self.checkpoint_step))

    def summary_specs(self):
        kinds = [k.strip() for k in self.summaries.split(",") if k.strip()]
        if not kinds:
            raise ConfigError("no summaries configured")
        return tuple(SummarySpec(kind, n_star=self.n_star,
                                 replicates=self.replicates)
                     if kind in SAMPLED_KINDS else SummarySpec(kind)
                     for kind in kinds)

    def truth_list(self):
        chunks = [c.strip() for c in self.truths.split(";") if c.strip()]
        for chunk in chunks:
            if chunk.count(":") + 1 != len(self.prior_low):
                raise ConfigError("truth %r has wrong dimension" % (chunk,))
        return [tuple(float(p) for p in c.split(":")) for c in chunks]


_TYPES = get_type_hints(RunConfig)


def _coerce(name, raw):
    if name not in _TYPES:
        raise ConfigError("unknown config key %r" % (name,))
    kind, raw = _TYPES[name], raw.strip()
    optional = type(None) in get_args(kind)
    if raw.lower() in ("none", ""):
        if optional:
            return None
        raise ConfigError("%s needs a value" % (name,))
    if optional:
        kind = get_args(kind)[0]
    try:
        if kind is tuple:
            return tuple(float(v) for v in raw.split(","))
        return kind(raw)
    except ValueError as exc:
        raise ConfigError("bad value for %s: %r" % (name, raw)) from exc


def apply_overrides(cfg, overrides):
    """Apply ``key=value`` strings to a config; a later key wins."""
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError("%r is not key=value" % (item,))
        key, raw = item.split("=", 1)
        updates[key.strip()] = _coerce(key.strip(), raw)
    return replace(cfg, **updates) if updates else cfg


def parse_config_text(text):
    """A config from ``key = value`` lines; ``#`` starts a comment."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return apply_overrides(RunConfig(), [line for line in lines if line])


def load_config(path=None, overrides=()):
    """The config file at ``path`` (the defaults if None), then the
    ``key=value`` override strings."""
    text = ""
    if path is not None:
        with open(path) as fh:
            text = fh.read()
    return apply_overrides(parse_config_text(text), overrides)


def config_hash(cfg):
    """Stable hash of every result-relevant field."""
    parts = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        if f.name in _NON_SEMANTIC:
            continue
        parts.append("%s=%r" % (f.name, getattr(cfg, f.name)))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:16]
