"""Run configuration: a flat key=value text file mirroring the
RunConfig fields, plus command-line overrides."""

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Optional

from .errors import ConfigError
from .rejection import PriorBox
from .summaries import SummarySpec

METHODS = ("S", "LS", "GPa", "GPb", "GPc", "RE")
# methods whose table rows carry GP predictive variances and correlation
GP_METHODS = ("GPa", "GPb", "GPc")
# methods that accept by GP predictive density; the rest by distance
DENSITY_METHODS = ("GPa", "GPb")

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
        if self.model not in ("dmc", "price"):
            raise ConfigError("model must be dmc or price")
        if self.method not in METHODS:
            raise ConfigError("method must be one of %s" % (METHODS,))
        if self.n_s > self.n_o:
            raise ConfigError("n_s must be <= n_o")
        if len(self.prior_low) != len(self.prior_high):
            raise ConfigError("prior bounds differ in length")
        sampled = any(s.kind == "sample_triangle_count"
                      for s in self.summary_specs())
        if self.method == "RE" and not sampled:
            raise ConfigError(
                "method RE needs a sample_triangle_count summary")
        if not self.checkpoints() and self.method != "S":
            raise ConfigError("checkpoint grid is empty")
        # a sampled summary is first evaluated at n_o (method S) or at
        # the first checkpoint, and cannot sample more nodes than exist
        first = self.n_o if self.method == "S" else self.checkpoints()[0]
        if sampled and self.n_star > first:
            raise ConfigError(
                "n_star=%d exceeds the %d nodes where the sampled "
                "summary is first evaluated" % (self.n_star, first))
        return self

    def theta_names(self):
        return ("q_m", "q_c") if self.model == "dmc" else ("k0", "p")

    def prior_box(self):
        return PriorBox(tuple(self.prior_low), tuple(self.prior_high))

    def checkpoints(self):
        stop = self.checkpoint_stop or self.n_s
        stop = min(stop, self.n_s)
        return tuple(range(self.checkpoint_start, stop + 1,
                           self.checkpoint_step))

    def summary_specs(self):
        specs = []
        for kind in self.summaries.split(","):
            kind = kind.strip()
            if not kind:
                continue
            if kind == "sample_triangle_count":
                specs.append(SummarySpec(kind, n_star=self.n_star,
                                         replicates=self.replicates))
            else:
                specs.append(SummarySpec(kind))
        if not specs:
            raise ConfigError("no summaries configured")
        return tuple(specs)

    def truth_list(self):
        truths = []
        for chunk in self.truths.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) != len(self.prior_low):
                raise ConfigError("truth %r has wrong dimension" % (chunk,))
            truths.append(tuple(float(p) for p in parts))
        return truths


_TUPLE_KEYS = ("prior_low", "prior_high")
_INT_KEYS = (
    "seed_n", "seed_rng", "seed_cutoff", "n_s", "n_o", "checkpoint_start",
    "checkpoint_stop", "checkpoint_step", "n_star", "replicates",
    "table_size", "accept_k", "aux_count", "master_seed", "exp_replicates",
    "out_cap", "workers", "timing_reps",
)
_FLOAT_KEYS = ("seed_p", "inflate")
_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def _coerce(name, raw):
    if name not in _KNOWN_KEYS:
        raise ConfigError("unknown config key %r" % (name,))
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    try:
        if name in _TUPLE_KEYS:
            return tuple(float(v) for v in raw.split(","))
        if name in _INT_KEYS:
            return int(raw)
        if name in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError("bad value for %s: %r" % (name, raw)) from exc
    return raw


def parse_config_text(text):
    cfg = RunConfig()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, raw = line.split("=", 1)
        updates[key.strip()] = _coerce(key.strip(), raw)
    return replace(cfg, **updates)


def load_config(path, overrides=()):
    """Read a config file and apply ``key=value`` override strings."""
    with open(path) as fh:
        cfg = parse_config_text(fh.read())
    return apply_overrides(cfg, overrides)


def apply_overrides(cfg, overrides):
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override %r is not key=value" % (item,))
        key, raw = item.split("=", 1)
        updates[key.strip()] = _coerce(key.strip(), raw)
    return replace(cfg, **updates) if updates else cfg


def config_hash(cfg):
    """Stable hash of every result-relevant field."""
    parts = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        if f.name in _NON_SEMANTIC:
            continue
        parts.append("%s=%r" % (f.name, getattr(cfg, f.name)))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:16]
