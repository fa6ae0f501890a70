"""Run configuration: key=value files, validation, and round-trip serialization.

The format is UTF-8 ``key = value`` lines with ``#`` comments.  Scalar keys
name the family constants and initial scale factors (``gamma``, ``K``,
``lambda``, ``alpha``, ``xi``, ``mu``, ``a0``, ``a1``, ``b0``, ``b1``),
integration controls (``t_end``, ``rel_tol``, ``abs_tol``, ``max_steps``,
``eps_blow``, ``method``), grid axes (``grid.x = min:max:count``), output
times (``times = t1,t2,...``), verification controls (``verify.*``) and sweep
axes (``sweep.<param> = v1,v2,...``).  Command-line flags override file keys.
Every number must be finite.  The family constants and initial values (each
sweep value included) are valid when :class:`PhysParams` and the Emden state
accept them, the run options when :class:`emden.RunOptions` does, and
``eps_blow`` when ``RunOptions.floors`` accepts it for every start.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace

from .emden import MAX_STEPS, EmdenState2D, EmdenState3D, RunOptions
from .profiles import PhysParams

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_entries",
           "parse_entry", "parse_sweep_axis", "build_config", "serialize_config",
           "SWEEPABLE"]

SWEEPABLE = ("gamma", "K", "lambda", "alpha", "xi", "mu", "a0", "a1", "b0", "b1")


class ConfigError(Exception):
    """Configuration rejected; the message names the offending key or line."""


@dataclass
class RunConfig:
    mode: str = ""
    dim: int = 3
    K: float = 1.0
    gamma: float = 1.4
    lam: float = 0.0
    alpha: float = 1.0
    xi: float = 1.0
    mu: float = 0.0
    a0: float = 1.0
    a1: float = 0.0
    b0: float = 1.0
    b1: float = 0.0
    t_end: float = 10.0
    times: list[float] = field(default_factory=list)
    grid_x: tuple[float, float, int] | None = None
    grid_y: tuple[float, float, int] | None = None
    grid_z: tuple[float, float, int] | None = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = MAX_STEPS
    eps_blow: float | None = None  # None: the library's floor, 1e-10 * each initial value
    method: str = "RK45"
    out: str | None = None
    verify_points: int = 20
    verify_seed: int = 0
    verify_h: float = 1e-3
    verify_time: float = 0.0
    sweep: dict[str, list[float]] = field(default_factory=dict)
    sweep_t_end: float | None = None

    def params(self) -> PhysParams:
        """The solution family; raises ValueError for invalid constants."""
        return PhysParams(K=self.K, gamma=self.gamma, lam=self.lam,
                          alpha=self.alpha, xi=self.xi, mu=self.mu)

    def initial_state(self) -> EmdenState3D | EmdenState2D:
        """The Emden state at t = 0 from a0, a1 (and b0, b1 in 3D)."""
        if self.dim == 3:
            return EmdenState3D(0.0, self.a0, self.a1, self.b0, self.b1)
        return EmdenState2D(0.0, self.a0, self.a1)

    def run_options(self) -> dict:
        """The run options: the fields of :class:`emden.RunOptions`, as keywords."""
        return {f.name: getattr(self, f.name) for f in fields(RunOptions)}

    @property
    def horizon(self) -> float:
        """The lifespan horizon of 3D classify and sweep: sweep.t_end, else t_end."""
        return self.t_end if self.sweep_t_end is None else self.sweep_t_end

    def with_keys(self, values: dict[str, float]) -> RunConfig:
        """A copy with the given config keys (``lambda``, ``a0``, ...) set."""
        return replace(self, **{_SCHEMA[key][0]: v for key, v in values.items()})


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': malformed number {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': value must be finite, got {raw!r}")
    return value


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': malformed integer {raw!r}") from None


def _parse_times(key, raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return [_parse_float(key, p) for p in parts]


def _parse_grid(key, raw):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"key '{key}': expected min:max:count, got {raw!r}")
    lo, hi = (_parse_float(key, part.strip()) for part in parts[:2])
    return (lo, hi, _parse_int(key, parts[2].strip()))


def _parse_str(key, raw):
    return raw


# file key -> (RunConfig attribute, parser); the command line has one flag per
# key except mode, which is the subcommand
_SCHEMA = {
    "mode": ("mode", _parse_str),
    "dim": ("dim", _parse_int),
    "K": ("K", _parse_float),
    "gamma": ("gamma", _parse_float),
    "lambda": ("lam", _parse_float),
    "alpha": ("alpha", _parse_float),
    "xi": ("xi", _parse_float),
    "mu": ("mu", _parse_float),
    "a0": ("a0", _parse_float),
    "a1": ("a1", _parse_float),
    "b0": ("b0", _parse_float),
    "b1": ("b1", _parse_float),
    "t_end": ("t_end", _parse_float),
    "times": ("times", _parse_times),
    "grid.x": ("grid_x", _parse_grid),
    "grid.y": ("grid_y", _parse_grid),
    "grid.z": ("grid_z", _parse_grid),
    "rel_tol": ("rel_tol", _parse_float),
    "abs_tol": ("abs_tol", _parse_float),
    "max_steps": ("max_steps", _parse_int),
    "eps_blow": ("eps_blow", _parse_float),
    "method": ("method", _parse_str),
    "out": ("out", _parse_str),
    "verify.points": ("verify_points", _parse_int),
    "verify.seed": ("verify_seed", _parse_int),
    "verify.h": ("verify_h", _parse_float),
    "verify.time": ("verify_time", _parse_float),
    "sweep.t_end": ("sweep_t_end", _parse_float),
}


def parse_sweep_axis(entries: dict[str, object], param: str, raw: str) -> None:
    """Parse the values ``v1,v2,...`` of sweep axis ``param`` into ``entries``."""
    key = "sweep." + param
    if param not in SWEEPABLE:
        raise ConfigError(f"key '{key}': {param!r} is not sweepable "
                          f"(choose from {', '.join(SWEEPABLE)})")
    values = _parse_times(key, raw)
    if not values:
        raise ConfigError(f"key '{key}': empty value list")
    entries.setdefault("sweep", {})[param] = values


def parse_entry(entries: dict[str, object], key: str, raw: str) -> None:
    """Parse one ``key = raw`` entry into ``entries`` (attribute -> value)."""
    if key in _SCHEMA:
        attr, parser = _SCHEMA[key]
        entries[attr] = parser(key, raw)
    elif key.startswith("sweep."):
        parse_sweep_axis(entries, key[len("sweep."):], raw)
    else:
        raise ConfigError(f"unknown key '{key}'")


def parse_entries(text: str) -> dict[str, object]:
    """Parse key=value lines into an attribute -> value mapping.

    Raises :class:`ConfigError` with the line number and key for unknown keys,
    malformed numbers, or lines without '='.
    """
    entries: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {rawline.strip()!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        try:
            parse_entry(entries, key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return entries


# config key of each PhysParams or Emden state attribute named differently
_KEY_OF = {"lam": "lambda", "a": "a0", "a_dot": "a1", "b": "b0", "b_dot": "b1"}


def _check_family(cfg: RunConfig) -> None:
    """Build the family, initial state and run options; ConfigError names the key."""
    try:
        cfg.params()
        cfg.initial_state()
        RunOptions(**cfg.run_options())
    except ValueError as exc:
        # the library's messages begin with the attribute's name
        name, _, rule = str(exc).partition(" ")
        raise ConfigError(f"{_KEY_OF.get(name, name)} {rule}") from None


def build_config(entries: dict[str, object]) -> RunConfig:
    """Fill defaults, resolve derived defaults, and validate."""
    valid = {f.name for f in fields(RunConfig)}
    unknown = set(entries) - valid
    if unknown:
        raise ConfigError(f"unknown config attribute(s): {sorted(unknown)}")
    cfg = RunConfig(**entries)

    def err(msg):
        raise ConfigError(msg)

    if cfg.mode:
        # the mode table sits beside the runners; cli imports this module
        from .cli import MODES
        if cfg.mode not in MODES:
            err(f"mode must be one of {', '.join(MODES)}; got {cfg.mode!r}")
    if cfg.dim not in (2, 3):
        err(f"dim must be 2 or 3, got {cfg.dim}")
    _check_family(cfg)
    if cfg.verify_points < 1:
        err(f"verify.points must be >= 1, got {cfg.verify_points}")
    if not cfg.verify_h > 0:
        err(f"verify.h must be > 0, got {cfg.verify_h}")
    if cfg.verify_time < 0:
        err(f"verify.time must be >= 0, got {cfg.verify_time}")

    for name, axis in (("grid.x", cfg.grid_x), ("grid.y", cfg.grid_y), ("grid.z", cfg.grid_z)):
        if axis is None:
            continue
        lo, hi, count = axis
        if count < 2:
            err(f"{name}: count must be >= 2, got {count}")
        if not hi > lo:
            err(f"{name}: max must exceed min, got {lo}:{hi}")

    if cfg.times:
        if any(t < 0 for t in cfg.times):
            err("times must be >= 0")
        if any(t1 >= t2 for t1, t2 in zip(cfg.times, cfg.times[1:])):
            err("times must be strictly increasing")
        if "t_end" in entries:
            if cfg.times[-1] > cfg.t_end:
                err(f"times must lie within [0, t_end={cfg.t_end}]")
        elif cfg.times[-1] > cfg.t_end:
            cfg.t_end = cfg.times[-1]

    # checked here so a bad horizon fails before any table shortcut or output
    lifespan = cfg.mode == "sweep" or (cfg.mode == "classify" and cfg.dim == 3)
    if lifespan and not cfg.horizon > 0.0:
        key = "t_end" if cfg.sweep_t_end is None else "sweep.t_end"
        err(f"{key} (the lifespan horizon) must be > 0, got {cfg.horizon}")

    for param, values in cfg.sweep.items():
        for v in values:
            try:
                _check_family(cfg.with_keys({param: v}))
            except ConfigError as exc:
                raise ConfigError(f"sweep.{param}: invalid value {v} ({exc})") from None
    # the collapse floors, in every mode, of every start a run may begin from
    # (a, a'[, b, b']); the message names eps_blow and the start's value
    for cell in (cfg, *(cfg.with_keys({k: v}) for k, vs in cfg.sweep.items() for v in vs)):
        try:
            RunOptions(**cell.run_options()).floors(astuple(cell.initial_state())[1:])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse a config file into a fully-populated, validated RunConfig."""
    return build_config(parse_entries(text))


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Emit a config file that parses back to an equal RunConfig."""
    lines = []
    attr_to_key = {attr: key for key, (attr, _) in _SCHEMA.items()}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name == "sweep":
            for param, values in value.items():
                lines.append(f"sweep.{param} = {','.join(_fmt(v) for v in values)}")
            continue
        if value is None or value == [] or value == "":
            continue
        key = attr_to_key[f.name]
        if f.name == "times":
            lines.append(f"{key} = {','.join(_fmt(t) for t in value)}")
        elif f.name.startswith("grid_"):
            lo, hi, count = value
            lines.append(f"{key} = {_fmt(lo)}:{_fmt(hi)}:{count}")
        else:
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"
