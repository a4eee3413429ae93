"""Command-line interface: exit codes, output files, reproducibility."""

import json
import math

import pytest

from eqflow.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SINGULAR, main)

STEADY_DOC = {
    "space": {"case": "C1"},
    "slab": {"a": 0.0, "b": 1.0},
    "grid": {"N": 50},
    "initial": {"kind": "cylinder", "radius": 1.0},
    "flow": {"T_max": 0.01},
}

PINCH_DOC = {
    "space": {"case": "C1"},
    "slab": {"a": 0.0, "b": 1.0},
    "grid": {"N": 100},
    "initial": {"kind": "perturbed", "radius": 0.25,
                "amplitude": 0.12, "mode": 1},
    "flow": {"T_max": 0.1},
}

SHORT_DOC = {
    "space": {"case": "C1"},
    "slab": {"a": 0.0, "b": 1.0},
    "grid": {"N": 80},
    "initial": {"kind": "perturbed", "radius": 1.0,
                "amplitude": 0.1, "mode": 1},
    "flow": {"T_max": 1e-4},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- run


def test_run_steady_cylinder(tmp_path, capsys):
    cfg = write_config(tmp_path, STEADY_DOC)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("steady t=0 steps=0")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "steady"
    assert summary["steps"] == 0
    assert summary["monitor_failures"] == {}
    assert (out / "record.csv").exists()
    assert (out / "final_profile.csv").exists()
    header = (out / "record.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["t", "dt", "area", "volume"]


def test_run_detects_pinching(tmp_path):
    cfg = write_config(tmp_path, PINCH_DOC)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == EXIT_SINGULAR
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "singular_axis"
    assert summary["singular_side"] == "axis_min"
    assert 0.0 < summary["final"]["r_min"] <= 1e-3 * 1.1


def test_run_snapshot_files(tmp_path):
    doc = dict(SHORT_DOC)
    doc["output"] = {"snapshot_every": 2}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    snaps = sorted(out.glob("profile_*.csv"))
    assert snaps and snaps[0].name == "profile_00000000.csv"
    body = snaps[0].read_text().splitlines()
    assert body[0] == "z,r"
    assert len(body) == 82


def test_run_record_is_reproducible(tmp_path):
    cfg = write_config(tmp_path, SHORT_DOC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "record.csv").read_bytes() \
        == (out2 / "record.csv").read_bytes()


def test_run_summary_has_step_stats_the_record_lacks(tmp_path):
    cfg = write_config(tmp_path, SHORT_DOC)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    stats = summary["stats"]
    assert set(stats) == {"attempts", "rejected", "dt_min", "dt_max",
                          "dt_mean", "err_ratio_max"}
    assert stats["attempts"] - stats["rejected"] == summary["steps"]
    assert 0.0 < stats["dt_min"] <= stats["dt_mean"] <= stats["dt_max"]
    assert 0.0 <= stats["err_ratio_max"] <= 1.0
    header = (out / "record.csv").read_text().splitlines()[0].split(",")
    assert not set(stats) & set(header)


def test_run_config_error_exit(tmp_path, capsys):
    doc = {"space": {"case": "C9"}, "slab": {"a": 0, "b": 1}}
    cfg = write_config(tmp_path, doc)
    code = main(["run", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "space.case" in capsys.readouterr().err


def test_run_missing_config_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_run_unwritable_out_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, STEADY_DOC)
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    code = main(["run", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == EXIT_IO


# ---------------------------------------------------------------- bounds


def test_bounds_reports_frozen_set(tmp_path, capsys):
    cfg = write_config(tmp_path, STEADY_DOC)
    assert main(["bounds", "--config", cfg]) == EXIT_OK
    bset = json.loads(capsys.readouterr().out)
    assert bset["n"] == 2
    assert bset["volume0"] == pytest.approx(math.pi, rel=1e-12)
    assert bset["r_volume"] == pytest.approx(1.0, rel=1e-12)
    # unit cylinder in flat space: area 2 pi over the unit sphere factor
    # on top of r_lo^2 gives the cap sqrt(1 + 2 r_lo^2 margin terms)
    assert bset["r_cap"] > bset["r_volume"]
    assert bset["avg_H_cap"] > 0.0
    assert isinstance(bset["longtime_ok"], bool)
    assert bset["slab_vol"] is None
    from eqflow.ambient import Rect, make_space, sup_norms
    from eqflow.bounds import avg_H_bound
    space = make_space("C1")
    want = avg_H_bound(space, sup_norms(
        space, Rect(0.0, 1.0, bset["r_lo"], bset["r_hi"])))
    assert bset["avg_H_cap"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("space", [{"case": "C1"},
                                   {"case": "C6", "lambda": 1.0}])
def test_bounds_prints_the_set_a_run_freezes(tmp_path, capsys, space):
    doc = dict(SHORT_DOC, space=space, slab={"a": -0.5, "b": 0.5})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["bounds", "--config", cfg]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    summary = json.loads((out / "summary.json").read_text())
    assert printed == summary["bound_set"]


# ---------------------------------------------------------------- appendix-b


def test_appendix_b_writes_report_and_curve(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["appendix-b", "--case", "C2", "--samples", "2000",
                 "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    on_disk = json.loads((out / "benchmark_C2.json").read_text())
    assert on_disk == report
    assert report["samples"] == 2000
    assert report["normalized_avg"] == pytest.approx(-1.5555315, rel=1e-4)
    assert report["cross_rel_diff"] <= 1e-6
    curve_lines = (out / "benchmark_C2_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "s,z,r"
    assert len(curve_lines) == 2001
    s0 = float(curve_lines[1].split(",")[0])
    assert s0 == pytest.approx(report["s_turn"][0], abs=1e-12)


# ---------------------------------------------------------------- verify


def test_verify_curvature_passes_on_space_form(capsys):
    code = main(["verify-curvature", "--case", "C3"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["max_deviation"] <= 1e-9
    assert out["lambda"] == -1.0
    assert out["samples"] == 1000


@pytest.mark.parametrize("case", ["C1", "C2", "C4", "C5", "C6"])
def test_verify_curvature_all_space_forms(case, capsys):
    assert main(["verify-curvature", "--case", case]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["max_deviation"] <= 1e-9


def test_verify_curvature_rejects_mismatched_scales(tmp_path, capsys):
    doc = {
        "space": {"case": "C3", "lambda": -1.0, "lambda_h": -2.0},
        "slab": {"a": -0.5, "b": 0.5},
        "initial": {"kind": "cylinder", "radius": 0.7},
    }
    cfg = write_config(tmp_path, doc)
    code = main(["verify-curvature", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "space form" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep


def test_sweep_writes_tree(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--samples", "800", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [e["lam"] for e in doc["results"]] \
        == [-2.0, -1.5, -1.0, -0.75, -0.5]
    top = json.loads((out / "sweep.json").read_text())
    assert top == doc
    sub = json.loads((out / "lam_-1" / "report.json").read_text())
    assert sub["lam"] == -1.0
    values = [abs(e["normalized_avg"]) for e in doc["results"]]
    assert values == sorted(values, reverse=True)


# ---------------------------------------------------------------- parser


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["run"])


@pytest.mark.parametrize("argv,message", [
    (["verify-curvature", "--samples", "0"], "must be at least 1, got 0"),
    (["verify-curvature", "--samples", "-3"], "must be at least 1, got -3"),
    (["appendix-b", "--samples", "15"], "must be at least 16, got 15"),
    (["sweep", "--samples", "2"], "must be at least 16, got 2"),
    (["sweep", "--samples", "abc"], "invalid int value: 'abc'"),
])
def test_out_of_range_samples_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --samples" in err and message in err
