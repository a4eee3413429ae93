"""Configuration parsing: defaults, error collection, round-trip."""

import json

import numpy as np
import pytest

from eqflow.bounds import MONITOR_DT_MAX
from eqflow.cli import main as cli_main
from eqflow.config import (ConfigError, InitialConfig, RunConfig,
                           load_config, parse_config)

MINIMAL = """
{
  "space": {"case": "C1"},
  "slab": {"a": 0.0, "b": 1.0},
  "initial": {"kind": "cylinder", "radius": 1.0}
}
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.case == "C1"
    assert cfg.lam is None and cfg.lam_h is None
    assert cfg.n == 2
    assert cfg.slab == (0.0, 1.0)
    assert cfg.N == 400
    assert cfg.flow.eps_cmc == 1e-5
    assert cfg.flow.eps_axis == 1e-3
    assert cfg.flow.T_max == 2.0
    assert cfg.flow.dt.dt_max == MONITOR_DT_MAX == 1e-2
    assert cfg.out_dir is None and cfg.snapshot_every == 0
    space = cfg.build_space()
    prof = cfg.build_initial(space)
    assert prof.N == 400
    assert np.all(prof.r == 1.0)


def test_reversed_slab_names_the_slab():
    doc = json.loads(MINIMAL)
    doc["slab"] = {"a": 1.0, "b": 0.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(msg.startswith("slab") for msg in err.value.errors)
    assert "a < b" in "\n".join(err.value.errors)


def test_every_structural_error_is_collected():
    doc = {
        "space": {"case": "C9"},
        "slab": {"a": 1.0, "b": 0.0},
        "grid": {"N": 4},
        "flow": {"scheme": "leapfrog", "eps_cmc": -1.0,
                 "dt_policy": {"cfl_safety": 0.0}},
        "banana": {},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    joined = "\n".join(err.value.errors)
    assert len(err.value.errors) >= 7
    for needle in ("space.case", "slab", "grid.N", "flow.scheme", "banana",
                   "flow.eps_cmc", "flow.dt_policy.cfl_safety"):
        assert needle in joined


def test_unknown_nested_key_rejected():
    doc = json.loads(MINIMAL)
    doc["space"]["warp"] = 3.0
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("space.warp" in msg for msg in err.value.errors)


def test_semantic_errors_surface_after_parse():
    doc = json.loads(MINIMAL)
    doc["initial"] = {"kind": "perturbed", "radius": 1.0, "amplitude": 2.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(msg.startswith("initial") for msg in err.value.errors)

    doc = json.loads(MINIMAL)
    doc["space"] = {"case": "C3", "lambda": 1.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(msg.startswith("space") for msg in err.value.errors)


def test_slab_must_sit_inside_the_space_domain():
    doc = json.loads(MINIMAL)
    doc["space"] = {"case": "C6", "lambda": 1.0}
    doc["slab"] = {"a": -3.0, "b": 3.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(msg.startswith("slab") for msg in err.value.errors)


def test_dt_policy_validation_propagates():
    doc = json.loads(MINIMAL)
    doc["flow"] = {"dt_policy": {"dt_max": 1e-6, "dt_min": 1e-3}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("dt_min" in msg for msg in err.value.errors)


@pytest.mark.parametrize("section,key,value,path", [
    ("flow", "T_max", "NaN", "flow.T_max"),
    ("flow", "eps_cmc", "-1", "flow.eps_cmc"),
    ("flow", "eps_axis", "NaN", "flow.eps_axis"),
    ("flow.dt_policy", "cfl_safety", "-3", "flow.dt_policy.cfl_safety"),
    ("slab", "b", "Infinity", "slab.b"),
    ("flow", "avg_mode", '"geometric"', "flow.avg_mode"),
])
def test_bad_value_names_its_dotted_path(section, key, value, path):
    # JSON text, so that NaN and Infinity arrive the way a file gives them
    doc = json.loads(MINIMAL)
    sub = doc
    for part in section.split("."):
        sub = sub.setdefault(part, {})
    sub[key] = "@"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc).replace('"@"', value))
    assert [msg.split(":")[0] for msg in err.value.errors] == [path]


@pytest.mark.parametrize("section,key", [("flow", "scheme"),
                                         ("flow.dt_policy", "cfl_safety")])
def test_removed_integrator_keys_are_unknown(section, key, tmp_path, capsys):
    # the flow has one integrator, so its old selector and CFL factor
    # are rejected like any other key the schema does not know
    doc = json.loads(MINIMAL)
    sub = doc
    for part in section.split("."):
        sub = sub.setdefault(part, {})
    sub[key] = "imex" if key == "scheme" else 0.5
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [f"{section}.{key}: unknown key"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    assert f"{section}.{key}: unknown key" in capsys.readouterr().err


def test_invalid_json_reports_cleanly():
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert err.value.errors[0].startswith("json:")
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")


def test_round_trip_is_identity():
    doc = {
        "space": {"case": "C3", "lambda": -1.0, "lambda_h": -1.0, "n": 3},
        "slab": {"a": -0.5, "b": 0.75},
        "grid": {"N": 120},
        "initial": {"kind": "perturbed", "radius": 0.8,
                    "amplitude": 0.1, "mode": 2},
        "flow": {"T_max": 0.25, "eps_cmc": 1e-6,
                 "dt_policy": {"dt_max": 1e-5}},
        "output": {"dir": "out", "snapshot_every": 10},
    }
    cfg = parse_config(json.dumps(doc))
    again = parse_config(cfg.to_json())
    assert again == cfg
    assert again.flow.dt == cfg.flow.dt


def test_custom_radii_round_trip(tmp_path):
    radii = [1.0 + 0.01 * k for k in range(13)]
    doc = {
        "space": {"case": "C1"},
        "slab": {"a": 0.0, "b": 1.0},
        "grid": {"N": 12},
        "initial": {"kind": "custom", "radii": radii},
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.initial.radii == tuple(radii)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    again = load_config(path)
    assert again == cfg
    prof = again.build_initial(again.build_space())
    assert np.array_equal(prof.r, np.array(radii))


def test_radii_must_be_numbers():
    doc = {
        "space": {"case": "C1"},
        "slab": {"a": 0.0, "b": 1.0},
        "initial": {"kind": "custom", "radii": [1.0, "x", 3.0]},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("initial.radii" in msg for msg in err.value.errors)


@pytest.mark.parametrize("entry", ["1" + "0" * 400, "-1" + "0" * 400,
                                   "NaN", "Infinity", "-Infinity", "true"],
                         ids=["huge_int", "huge_negative_int", "nan",
                              "infinity", "negative_infinity", "bool"])
def test_radii_must_be_finite_numbers(entry, tmp_path, capsys):
    # JSON text, so that huge integers, NaN and Infinity arrive the way a
    # file gives them
    doc = {
        "space": {"case": "C1"},
        "slab": {"a": 0.0, "b": 1.0},
        "grid": {"N": 8},
        "initial": {"kind": "custom", "radii": [1.0] * 8 + ["@"]},
    }
    text = json.dumps(doc).replace('"@"', entry)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [msg.split(":")[0] for msg in err.value.errors] == ["initial.radii"]
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    assert "initial.radii" in capsys.readouterr().err


def test_direct_dataclass_construction():
    cfg = RunConfig(case="C2", slab=(0.5, 1.5), N=64,
                    initial=InitialConfig(kind="cylinder", radius=1.2))
    prof = cfg.build_initial(cfg.build_space())
    assert prof.a == 0.5 and prof.b == 1.5
    assert np.all(prof.r == 1.2)
