"""The two scripts under scripts/: the heatmap script writes what `ptqsim run`
writes, and the curve script tabulates the model's two observables."""

import runpy
import sys
from pathlib import Path

import numpy as np

from ptqsim import cli
from ptqsim.model import PTParams, postselected_population, return_probability

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_reproduce_heatmaps_matches_ptqsim_run(tmp_path, monkeypatch):
    script_dir, run_dir = tmp_path / "script", tmp_path / "run"
    run_script(monkeypatch, "reproduce_heatmaps.py", "--seed", "2", "--outdir", str(script_dir))
    run_dir.mkdir()
    names = []
    for backend in ("theory", "ion", "transmon"):
        config = run_dir / f"{backend}.cfg"
        config.write_text(
            f"backend = {backend}\nseed = 2\n"
            f"output_csv = {run_dir / backend}.csv\noutput_pgm = {run_dir / backend}.pgm\n"
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        names += [f"{backend}.csv", f"{backend}.pgm"]
    for name in names:
        assert (script_dir / name).read_bytes() == (run_dir / name).read_bytes(), name
    assert sorted(p.name for p in script_dir.iterdir()) == sorted(names)


def test_phase_transition_curves_rows(tmp_path, monkeypatch, capsys):
    out = tmp_path / "curves.csv"
    rs, t_max, t_steps = (0.0, 0.5, 1.0, 1.2, 3.0), 7.5, 31
    run_script(
        monkeypatch,
        "phase_transition_curves.py",
        "--out", str(out),
        "--t-max", str(t_max),
        "--t-steps", str(t_steps),
        "--r", *map(str, rs),
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "r,t,return_prob,postselected"
    expected = []
    for r in rs:
        for t in np.linspace(0.0, t_max, t_steps).tolist():
            p = PTParams(r, t)
            expected.append(
                f"{r:.12g},{t:.12g},{return_probability(p):.12g},{postselected_population(p):.12g}"
            )
    assert lines[1:] == expected
    assert capsys.readouterr().out == f"wrote {out} ({len(expected)} rows)\n"
