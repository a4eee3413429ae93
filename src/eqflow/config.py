"""Run configuration: JSON schema, validation, and round-trip.

A configuration names the ambient space, the slab, the grid resolution,
the initial profile, and integrator settings.  Parsing validates the
whole document and reports every problem at once with dotted key paths,
so a config with three mistakes produces three messages, not one.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .ambient import CASES, AmbientSpace, make_space
from .curve import GraphProfile
from .flow import DtPolicy, FlowConfig
from .reference_cases import make_initial

INITIAL_KINDS = ("cylinder", "perturbed", "custom")


class ConfigError(ValueError):
    """Invalid configuration; carries one message per problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class InitialConfig:
    kind: str = "cylinder"
    radius: float | None = None
    amplitude: float = 0.0
    mode: int = 1
    radii: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RunConfig:
    case: str
    lam: float | None = None
    lam_h: float | None = None
    n: int = 2
    slab: tuple[float, float] = (0.0, 1.0)
    N: int = 400
    initial: InitialConfig = field(default_factory=InitialConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    out_dir: str | None = None
    snapshot_every: int = 0

    def build_space(self) -> AmbientSpace:
        return make_space(self.case, lam=self.lam, n=self.n, lam_h=self.lam_h)

    def build_initial(self, space: AmbientSpace) -> GraphProfile:
        ini = self.initial
        return make_initial(space, self.slab, self.N, kind=ini.kind,
                            radius=ini.radius, amplitude=ini.amplitude,
                            mode=ini.mode, radii=ini.radii)

    def to_json_dict(self) -> dict:
        ini: dict = {"kind": self.initial.kind}
        if self.initial.kind in ("cylinder", "perturbed"):
            ini["radius"] = self.initial.radius
        if self.initial.kind == "perturbed":
            ini["amplitude"] = self.initial.amplitude
            ini["mode"] = self.initial.mode
        if self.initial.kind == "custom":
            ini["radii"] = list(self.initial.radii or ())
        return {
            "space": {"case": self.case, "lambda": self.lam,
                      "lambda_h": self.lam_h, "n": self.n},
            "slab": {"a": self.slab[0], "b": self.slab[1]},
            "grid": {"N": self.N},
            "initial": ini,
            "flow": {
                "T_max": self.flow.T_max,
                "eps_cmc": self.flow.eps_cmc,
                "eps_axis": self.flow.eps_axis,
                "output_every": self.flow.output_every,
                "dt_policy": {
                    "dt_max": self.flow.dt.dt_max,
                    "dt_min": self.flow.dt.dt_min,
                },
            },
            "output": {"dir": self.out_dir,
                       "snapshot_every": self.snapshot_every},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _finite_number(val) -> bool:
    """True for a JSON number that converts to a finite float."""
    # abs(val) <= max also rules out NaN, infinities and huge ints
    return (not isinstance(val, bool) and isinstance(val, (int, float))
            and abs(val) <= sys.float_info.max)


class _Reader:
    """Pulls typed values out of nested dicts, accumulating errors."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def section(self, doc: dict, path: str, known: tuple[str, ...]) -> dict:
        sub = doc.get(path.rsplit(".", 1)[-1], {})
        if not isinstance(sub, dict):
            self.fail(path, "must be an object")
            return {}
        for key in sub:
            if key not in known:
                self.fail(f"{path}.{key}", "unknown key")
        return sub

    def number(self, sub: dict, path: str, key: str, default=None,
               required=False, allow_none=False):
        if key not in sub:
            if required:
                self.fail(f"{path}.{key}", "required")
            return default
        val = sub[key]
        if val is None and allow_none:
            return None
        if not _finite_number(val):
            self.fail(f"{path}.{key}", "must be a finite number")
            return default
        return float(val)

    def integer(self, sub: dict, path: str, key: str, default=None,
                minimum=None):
        if key not in sub:
            return default
        val = sub[key]
        if isinstance(val, bool) or not isinstance(val, int):
            self.fail(f"{path}.{key}", "must be an integer")
            return default
        if minimum is not None and val < minimum:
            self.fail(f"{path}.{key}", f"must be at least {minimum}")
            return default
        return val

    def choice(self, sub: dict, path: str, key: str, options, default=None,
               required=False):
        if key not in sub:
            if required:
                self.fail(f"{path}.{key}", "required")
            return default
        val = sub[key]
        if val not in options:
            self.fail(f"{path}.{key}",
                      f"must be one of {', '.join(options)}")
            return default
        return val


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Raises ConfigError listing every problem found; the returned config
    is guaranteed to build a valid space and initial profile.
    """
    rd = _Reader()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"json: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["root: must be an object"])
    for key in doc:
        if key not in ("space", "slab", "grid", "initial", "flow", "output"):
            rd.fail(key, "unknown key")

    sp = rd.section(doc, "space", ("case", "lambda", "lambda_h", "n"))
    case = rd.choice(sp, "space", "case", CASES, required=True)
    lam = rd.number(sp, "space", "lambda", allow_none=True)
    lam_h = rd.number(sp, "space", "lambda_h", allow_none=True)
    n = rd.integer(sp, "space", "n", default=2, minimum=2)

    sl = rd.section(doc, "slab", ("a", "b"))
    a = rd.number(sl, "slab", "a", required=True)
    b = rd.number(sl, "slab", "b", required=True)
    if a is not None and b is not None and not a < b:
        rd.fail("slab", "need a < b")

    gr = rd.section(doc, "grid", ("N",))
    N = rd.integer(gr, "grid", "N", default=400, minimum=8)

    ini_sub = rd.section(doc, "initial",
                         ("kind", "radius", "amplitude", "mode", "radii"))
    kind = rd.choice(ini_sub, "initial", "kind", INITIAL_KINDS,
                     default="cylinder")
    radius = rd.number(ini_sub, "initial", "radius", allow_none=True)
    amplitude = rd.number(ini_sub, "initial", "amplitude", default=0.0)
    mode = rd.integer(ini_sub, "initial", "mode", default=1, minimum=1)
    radii = None
    if "radii" in ini_sub:
        raw = ini_sub["radii"]
        if not isinstance(raw, list) or not all(map(_finite_number, raw)):
            rd.fail("initial.radii", "must be a list of finite numbers")
        else:
            radii = tuple(float(v) for v in raw)

    flow_d, dt_d = FlowConfig(), DtPolicy()
    fl = rd.section(doc, "flow", ("T_max", "eps_cmc", "eps_axis",
                                  "output_every", "dt_policy"))
    T_max = rd.number(fl, "flow", "T_max", default=flow_d.T_max)
    eps_cmc = rd.number(fl, "flow", "eps_cmc", default=flow_d.eps_cmc)
    eps_axis = rd.number(fl, "flow", "eps_axis", default=flow_d.eps_axis)
    output_every = rd.integer(fl, "flow", "output_every",
                              default=flow_d.output_every, minimum=1)
    dp = rd.section(fl, "flow.dt_policy", ("dt_max", "dt_min"))
    dt_max = rd.number(dp, "flow.dt_policy", "dt_max", default=dt_d.dt_max)
    dt_min = rd.number(dp, "flow.dt_policy", "dt_min", default=dt_d.dt_min)

    out = rd.section(doc, "output", ("dir", "snapshot_every"))
    out_dir = out.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        rd.fail("output.dir", "must be a string or null")
        out_dir = None
    snapshot_every = rd.integer(out, "output", "snapshot_every", default=0,
                                minimum=0)

    # flow values all have defaults, so these range checks run even after
    # other errors; each problem they raise starts with the field name
    dt_policy = dt_d
    try:
        dt_policy = DtPolicy(dt_max=dt_max, dt_min=dt_min)
    except ValueError as exc:
        rd.errors.extend(f"flow.dt_policy.{p}" for p in exc.args)
    try:
        flow_cfg = FlowConfig(T_max=T_max, eps_cmc=eps_cmc, eps_axis=eps_axis,
                              output_every=output_every, dt=dt_policy)
    except ValueError as exc:
        rd.errors.extend(f"flow.{p}" for p in exc.args)

    cfg = None
    if not rd.errors:
        cfg = RunConfig(case=case, lam=lam, lam_h=lam_h, n=n,
                        slab=(a, b), N=N,
                        initial=InitialConfig(kind=kind, radius=radius,
                                              amplitude=amplitude, mode=mode,
                                              radii=radii),
                        flow=flow_cfg, out_dir=out_dir,
                        snapshot_every=snapshot_every)
        try:
            space = cfg.build_space()
        except ValueError as exc:
            rd.fail("space", str(exc))
            space = None
        if space is not None:
            try:
                space.check_z([a, b])
            except ValueError as exc:
                rd.fail("slab", str(exc))
                space = None
        if space is not None:
            try:
                cfg.build_initial(space)
            except ValueError as exc:
                rd.fail("initial", str(exc))

    if rd.errors:
        raise ConfigError(rd.errors)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
