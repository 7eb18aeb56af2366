"""Front-end behavior: config parsing, the three subcommands, exit codes,
and the CSV/PGM output contracts."""

import csv
import dataclasses
import errno
import math
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import mp_observables
from ptqsim import cli
from ptqsim.dilation import Dilation, NormTooLarge, qutrit_circuit
from ptqsim.experiment import (
    BackendConfig,
    BackendKind,
    SweepGrid,
    default_backend,
    load_confusion,
    sweep,
)
from ptqsim.gates import GateKind, equivalent, format_circuit, parse_circuit, rx
from ptqsim.model import PTParams, qutrit_populations, return_probability

HALF_PI = math.pi / 2.0


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_pgm(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    width, height = (int(x) for x in body[0].split())
    assert body[1] == "255"
    pixels = np.array([[int(v) for v in row.split()] for row in body[2:]])
    assert pixels.shape == (height, width)
    return pixels


def test_parse_config_defaults():
    cfg = cli.parse_config("")
    assert cfg.backend is BackendKind.THEORY
    assert cfg.shots is None and cli.build_backend(cfg).shots == 512
    assert cfg.grid == SweepGrid()
    assert cfg.observable is cli.Observable.RETURN_PROB
    assert cfg.output_csv == "sweep.csv" and cfg.output_pgm is None


def test_parse_config_backend_shot_defaults():
    def shots(text):
        return cli.build_backend(cli.parse_config(text)).shots

    assert shots("backend = ion\n") == 512
    assert shots("backend = transmon\n") == 8192
    assert shots("backend = transmon\nshots = 99\n") == 99


def test_parse_config_values_and_precedence():
    cfg = cli.parse_config(
        "# sweep setup\n"
        "backend = ion\n"
        "seed = 42\n"
        "r_min = 0.1\nr_max = 0.9\nr_steps = 5\n"
        "t_steps = 7\n"
        "observable = postselected\n"
        "ions = 3\n"
        "epsilon = 0.01, -0.02\n"
        "output_csv = a.csv\n"
        "output_csv = b.csv\n"
    )
    assert cfg.backend is BackendKind.ION and cfg.seed == 42
    assert (cfg.grid.r_min, cfg.grid.r_max, cfg.grid.r_steps) == (0.1, 0.9, 5)
    assert cfg.grid.t_steps == 7
    assert cfg.observable is cli.Observable.POSTSELECTED
    assert cfg.ions == 3 and cfg.epsilon == (0.01, -0.02)
    assert cfg.output_csv == "b.csv"  # last occurrence wins


def test_parse_config_errors():
    with pytest.raises(cli.ParseError, match="line 2"):
        cli.parse_config("backend = ion\nbogus_key = 3\n")
    with pytest.raises(cli.ParseError, match="line 1"):
        cli.parse_config("no equals sign here\n")
    with pytest.raises(cli.ParseError, match="line 1"):
        cli.parse_config("shots = twelve\n")
    with pytest.raises(cli.ParseError, match="line 1"):
        cli.parse_config("shots =\n")
    with pytest.raises(cli.ValidationError):
        cli.parse_config("shots = -3\n")
    with pytest.raises(cli.ValidationError):
        cli.parse_config("backend = laser\n")
    with pytest.raises(cli.ValidationError):
        cli.parse_config("observable = wigner\n")
    with pytest.raises(cli.ValidationError, match="grid"):
        cli.parse_config("r_steps = 0\n")
    with pytest.raises(cli.ValidationError):
        cli.parse_config(f"seed = {2**64}\n")
    with pytest.raises(cli.ParseError):
        cli.parse_config("epsilon = 0.01, huge\n")
    with pytest.raises(cli.ValidationError):
        cli.parse_config("epsilon = 0.7\n")
    # each line is checked as it is read, also when a later line sets the key again
    with pytest.raises(cli.ValidationError, match="line 1"):
        cli.parse_config("shots = 0\nshots = 5\n")


@pytest.mark.parametrize(
    "line",
    ["epsilon = nan", "epsilon = 0.01, nan", "epsilon = -inf", f"shots = {10**20}",
     f"shots = {2**63}"],
)
def test_run_rejects_nan_epsilon_and_oversized_shots(tmp_path, capsys, line):
    with pytest.raises(cli.ValidationError, match="line 1"):
        cli.parse_config(line + "\n")
    cfg = write_config(tmp_path, f"{line}\nbackend = ion\noutput_csv = {tmp_path}/out.csv\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: line 1: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    ("key", "field", "value"),
    [
        ("shots", "shots", 0),
        ("shots", "shots", 2**63),
        ("seed", "seed", 2**64),
        ("ions", "ion_count", 0),
        ("epsilon", "epsilon", (math.nan,)),
        ("epsilon", "epsilon", (0.7,)),
    ],
)
def test_backend_keys_take_backend_config_range_checks(tmp_path, capsys, key, field, value):
    with pytest.raises(ValueError) as rejected:
        BackendConfig(**{field: value})
    text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
    config = f"backend = ion\n{key} = {text}\nr_steps = 2\n"
    with pytest.raises(cli.ValidationError, match=r"line 2: "):
        cli.parse_config(config)
    cfg = write_config(
        tmp_path, f"{config}output_csv = {tmp_path}/out.csv\noutput_pgm = {tmp_path}/out.pgm\n"
    )
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: line 2: {rejected.value}\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    ("csv_name", "pgm_name"),
    [("c.pgm.mask", "c.pgm"), ("d.out", "d.out"), ("e.pgm", "sub/../e.pgm")],
)
def test_run_rejects_colliding_output_paths(tmp_path, capsys, monkeypatch, csv_name, pgm_name):
    def no_sweep(*args):
        raise AssertionError("colliding outputs reached the sweep")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path, f"r_steps = 2\nt_steps = 2\noutput_csv = {csv_name}\noutput_pgm = {pgm_name}\n"
    )
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: output_csv, output_pgm")
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key", ["output_csv", "output_pgm", "confusion_file"])
def test_run_rejects_nul_in_paths(tmp_path, capsys, monkeypatch, key):
    # a NUL once ran the whole sweep, then ended in a traceback at the write
    def no_sweep(*args):
        raise AssertionError("a NUL path reached the sweep")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    cfg = write_config(tmp_path, f"r_steps = 2\nt_steps = 2\n{key} = {tmp_path}/out\0.txt\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: line 3: a path may not hold a NUL byte\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_run_theory_applies_its_confusion_file(tmp_path, capsys):
    cm_file = tmp_path / "cal.txt"
    cm_file.write_text("0.9 0.05 0.02 0.06 0.9 0.08 0.04 0.05 0.9\n")
    confusion = load_confusion(cm_file.read_text()).entries
    csv_path, pgm_path = tmp_path / "out.csv", tmp_path / "out.pgm"
    cfg_path = write_config(
        tmp_path,
        f"r_steps = 2\nt_steps = 2\nr_max = 1.5\nt_max = 2.0\nconfusion_file = {cm_file}\n"
        f"output_csv = {csv_path}\noutput_pgm = {pgm_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg_path)]) == 0
    assert "confusion=cal.txt" in capsys.readouterr().out
    assert "confusion=cal.txt" in pgm_path.read_text().splitlines()[1]

    cfg = cli.parse_config(cfg_path.read_text())
    points = sweep(cfg.grid, cli.build_backend(cfg))
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == len(points) == 4
    for row, pt in zip(rows, points):
        want = confusion @ qutrit_populations(PTParams(pt.r, pt.t))
        assert pt.p_exact.tobytes() == want.tobytes()
        assert [row["p0"], row["p1"], row["p2"]] == [f"{x:.12g}" for x in want]
    assert any(pt.p_exact[0] != qutrit_populations(PTParams(pt.r, pt.t))[0] for pt in points)


def test_run_escapes_a_non_ascii_confusion_label_in_the_pgm(tmp_path, capsys):
    # the PGM comment stays ASCII; stdout shows the file name as it is
    cm_file = tmp_path / "cal_\u00e9\u20ac.txt"
    cm_file.write_text("1 0 0\n0 1 0\n0 0 1\n")
    pgm_path = tmp_path / "out.pgm"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"r_steps = 2\nt_steps = 2\nconfusion_file = {cm_file}\n"
        f"output_csv = {tmp_path / 'out.csv'}\noutput_pgm = {pgm_path}\n",
        encoding="utf-8",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert " confusion=cal_\u00e9\u20ac.txt " in capsys.readouterr().out
    comment = pgm_path.read_bytes().decode("ascii").splitlines()[1]
    assert " confusion=cal_\\xe9\\u20ac.txt " in comment


def test_readme_config_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### `ptqsim run`")[1].split("\n### ")[0]
    assert sorted(re.findall(r"^\| `(\w+)`", section, flags=re.M)) == sorted(cli._PARSERS)


def test_run_takes_the_largest_shot_count(tmp_path):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path, f"shots = {2**63 - 1}\nr_steps = 2\nt_steps = 2\noutput_csv = {csv_path}\n"
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 4 and {row["shots"] for row in rows} == {str(2**63 - 1)}


def test_build_backend_defaults_and_confusion_file(tmp_path):
    backend = cli.build_backend(cli.parse_config("backend = ion\n"))
    assert backend.kind is BackendKind.ION and backend.shots == 512
    assert backend.confusion is not None
    assert backend.confusion.label == "synthetic-ion-0.97"

    cm_file = tmp_path / "cal.txt"
    cm_file.write_text("0.9 0.05 0.05 0.05 0.9 0.05 0.05 0.05 0.9\n")
    cfg = cli.parse_config(f"backend = ion\nconfusion_file = {cm_file}\n")
    backend = cli.build_backend(cfg)
    assert backend.confusion.label == "cal.txt"

    for contents in (b"not a matrix\n", b"\xff\xfe not text\n"):
        cm_file.write_bytes(contents)
        with pytest.raises(cli.ValidationError):
            cli.build_backend(cfg)

    cfg = cli.parse_config("confusion_file = /nonexistent/cal.txt\n")
    with pytest.raises(OSError):
        cli.build_backend(cfg)


def run_cli(args):
    return cli.main(args)


def test_run_theory_small_grid(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        f"r_steps = 2\nt_steps = 2\nr_max = 1.0\nt_max = 1.0\noutput_csv = {csv_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "backend=theory" in out and "points=4" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r,t,backend,p0,p1,p2,p0_raw,p0_postselected,kept,shots,seed"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "theory"
    assert first[3] == "1"  # p0 at the origin

    before = csv_path.read_bytes()
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert csv_path.read_bytes() == before


def test_run_csv_round_trip(tmp_path):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        "backend = ion\nr_steps = 3\nt_steps = 4\nr_max = 1.2\nt_max = 3.0\n"
        f"output_csv = {csv_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].endswith(",ion")
    for line in lines[1:]:
        fields = line.split(",")
        for idx in (0, 1, 3, 4, 5, 6):
            assert f"{float(fields[idx]):.12g}" == fields[idx]
        if fields[7]:
            assert f"{float(fields[7]):.12g}" == fields[7]
        assert fields[2] == "ion"
        assert int(fields[9]) == 512


def test_run_ion_column_constant_assignment(tmp_path):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        "backend = ion\nr_steps = 4\nt_steps = 7\nr_max = 1.0\nt_max = 4.0\n"
        f"output_csv = {csv_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    for idx, fields in enumerate(rows):
        assert int(fields[11]) == (idx % 7) % 5


def test_run_writes_heatmap(tmp_path):
    csv_path = tmp_path / "out.csv"
    pgm_path = tmp_path / "out.pgm"
    cfg = write_config(
        tmp_path,
        "r_steps = 5\nt_steps = 7\nr_max = 1.2\nt_max = 5.0\n"
        f"output_csv = {csv_path}\noutput_pgm = {pgm_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    header = pgm_path.read_text().splitlines()
    assert header[0] == "P2"
    assert header[1].startswith("# backend=theory observable=return_prob")
    assert "rows=r_max..r_min" in header[1]
    pixels = read_pgm(pgm_path)
    # bottom row is r = 0, leftmost column is t = 0, where p0 = 1
    assert pixels[-1, 0] == 255
    grid = SweepGrid(r_min=0, r_max=1.2, r_steps=5, t_min=0, t_max=5, t_steps=7)
    rs, ts = grid.r_values(), grid.t_values()
    for i_r, r in enumerate(rs):
        for i_t, t in enumerate(ts):
            want = return_probability(PTParams(float(r), float(t)))
            got = pixels[len(rs) - 1 - i_r, i_t] / 255.0
            assert abs(got - want) <= 1.0 / 255.0 + 1e-12
    assert not (tmp_path / "out.pgm.mask").exists()


def test_run_removes_stale_mask(tmp_path):
    csv_path = tmp_path / "out.csv"
    pgm_path = tmp_path / "out.pgm"
    mask_path = tmp_path / "out.pgm.mask"
    cfg = write_config(
        tmp_path,
        "backend = transmon\nshots = 1\nobservable = postselected\n"
        "r_steps = 5\nt_steps = 6\n"
        f"output_csv = {csv_path}\noutput_pgm = {pgm_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert mask_path.read_text()  # single shots miss the (0,1) subspace somewhere
    assert run_cli(["run", "--config", str(cfg), "--backend", "theory"]) == 0
    assert not mask_path.exists()


def test_run_failed_write_keeps_earlier_outputs(tmp_path):
    csv_path = tmp_path / "out.csv"
    pgm_path = tmp_path / "out.pgm"
    mask_path = tmp_path / "out.pgm.mask"
    grid = "r_steps = 5\nt_steps = 6\n"
    cfg = write_config(
        tmp_path,
        f"backend = transmon\nshots = 1\nobservable = postselected\n{grid}"
        f"output_csv = {csv_path}\noutput_pgm = {pgm_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    before = {path: path.read_bytes() for path in (csv_path, pgm_path, mask_path)}
    names = sorted(tmp_path.iterdir())

    # the CSV is rendered first, but the PGM's directory is missing: no
    # artifact may be replaced and no temp file may stay behind
    bad = write_config(
        tmp_path,
        f"{grid}output_csv = {csv_path}\noutput_pgm = {tmp_path / 'absent' / 'out.pgm'}\n",
        name="bad.cfg",
    )
    assert run_cli(["run", "--config", str(bad)]) == 1
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(tmp_path.iterdir()) == sorted(names + [bad])


def reference_csv(points, backend):
    """The CSV rendered a record at a time with %.12g."""
    is_ion = backend.kind is BackendKind.ION
    header = "r,t,backend,p0,p1,p2,p0_raw,p0_postselected,kept,shots,seed"
    lines = [header + (",ion" if is_ion else "")]
    for pt in points:
        post = pt.p0_postselected
        fields = ["%.12g" % pt.r, "%.12g" % pt.t, backend.kind.value]
        fields += ["%.12g" % x for x in (*pt.p_exact, pt.p0_raw)]
        fields += ["" if post is None else "%.12g" % post, str(pt.postselect_kept)]
        fields += [str(backend.shots), str(backend.seed)]
        if is_ion:
            fields.append(str(pt.ion))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def reference_heatmap(points, grid, backend, observable):
    """(pixels, mask text) built a record at a time."""
    exact_like = backend.kind is BackendKind.THEORY or backend.exact
    pixels = np.zeros((grid.r_steps, grid.t_steps), dtype=int)
    mask = ""
    for i_r in range(grid.r_steps):
        for i_t in range(grid.t_steps):
            pt = points[i_r * grid.t_steps + i_t]
            p0, p1 = float(pt.p_exact[0]), float(pt.p_exact[1])
            if observable == "return_prob":
                value = p0 if exact_like else pt.p0_raw
            elif exact_like:
                value = p0 / (p0 + p1) if p0 + p1 > 0.0 else None
            else:
                value = pt.p0_postselected
            if value is None:
                mask += f"{i_r} {i_t}\n"
            else:
                level = round(255.0 * min(max(value, 0.0), 1.0))
                pixels[grid.r_steps - 1 - i_r, i_t] = level
    return pixels, mask


@pytest.mark.parametrize("block_rows", [1, 8, 34, 35, cli.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("backend", ["theory", "ion", "transmon"])
@pytest.mark.parametrize("observable", ["return_prob", "postselected"])
def test_run_streams_csv_blocks(tmp_path, monkeypatch, block_rows, backend, observable):
    # 35 points: blocks of 1, 8 (a short last block), 34, 35 and the default
    csv_path, pgm_path = tmp_path / "out.csv", tmp_path / "out.pgm"
    cfg_path = write_config(
        tmp_path,
        f"backend = {backend}\nshots = 2\nseed = 11\nobservable = {observable}\n"
        "r_steps = 5\nr_max = 1.8\nt_steps = 7\nt_max = 4.0\n"
        f"output_csv = {csv_path}\noutput_pgm = {pgm_path}\n",
    )
    writes = []
    real_write = cli._write_text

    def recorded(path, text, append=False):
        writes.append((path, text, append))
        real_write(path, text, append)

    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(cli, "_write_text", recorded)
    assert run_cli(["run", "--config", str(cfg_path)]) == 0

    cfg = cli.parse_config(cfg_path.read_text())
    backend_cfg = cli.build_backend(cfg)
    points = list(sweep(cfg.grid, backend_cfg))
    text = csv_path.read_text()
    assert text == reference_csv(points, backend_cfg)
    csv_writes = [(t, a) for p, t, a in writes if p.startswith(str(csv_path) + ".")]
    # one str per block, the first truncating the temp file; together the file
    assert [a for _, a in csv_writes] == [False] + [True] * (len(csv_writes) - 1)
    assert len(csv_writes) == -(-len(points) // block_rows)
    assert all(type(t) is str for t, _ in csv_writes)
    assert "".join(t for t, _ in csv_writes) == text

    pixels, mask = reference_heatmap(points, cfg.grid, backend_cfg, observable)
    assert np.array_equal(read_pgm(pgm_path), pixels)
    mask_path = tmp_path / "out.pgm.mask"
    assert (mask_path.read_text() if mask_path.exists() else "") == mask
    if backend == "transmon" and observable == "postselected":
        assert mask  # two shots miss the (0,1) subspace somewhere
    if backend != "theory":
        assert any(pt.p0_postselected is None for pt in points)


def test_render_csv_formats_repeated_coordinates_per_value():
    # a -0.0 coordinate, which no grid yields, keeps its own string beside
    # the 0.0 rows
    grid = SweepGrid(r_min=0.0, r_max=0.0, r_steps=3, t_min=0.0, t_max=2.5, t_steps=6)
    backend = default_backend(BackendKind.ION, seed=4)
    points = sweep(grid, backend)
    r = points.r.copy()
    r[-grid.t_steps:] = -0.0
    points = dataclasses.replace(points, r=r)
    text = cli.render_csv(points, backend, 0, len(points))
    assert text == reference_csv(list(points), backend)
    assert text.count("\n-0,") == grid.t_steps
    assert cli.render_csv(points, backend, 5, 14) == "".join(text.splitlines(True)[6:15])
    # the template holds shots and seed as literals, up to their largest values
    big = dataclasses.replace(backend, shots=2**63 - 1, seed=2**64 - 1)
    big_text = cli.render_csv(points, big, 0, len(points))
    assert big_text == reference_csv(list(points), big)
    assert big_text.splitlines()[1].endswith(",9223372036854775807,18446744073709551615,0")


def test_run_writes_no_negative_zero_coordinate(tmp_path):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        f"r_min = 0\nr_max = -0\nr_steps = 2\nt_max = -0.0\nt_steps = 2\noutput_csv = {csv_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 4 and {(r, t) for r, t, *_ in rows} == {("0", "0")}


def test_run_deep_broken_phase(tmp_path):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        "r_min = 1.5\nr_max = 1.5\nr_steps = 1\n"
        "t_min = 1000\nt_max = 1000\nt_steps = 1\n"
        f"output_csv = {csv_path}\n",
    )
    for backend in ("theory", "ion", "transmon"):
        assert run_cli(["run", "--config", str(cfg), "--backend", backend]) == 0, backend
        (row,) = csv.DictReader(csv_path.read_text().splitlines())
        if backend == "theory":
            assert float(row["p0"]) == pytest.approx(mp_observables(1.5, 1000.0)[0], abs=1e-12)


def test_run_grid_up_to_the_float_maximum(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        f"r_max = 1.7976931348623157e308\nr_steps = 7\nt_steps = 3\noutput_csv = {csv_path}\n",
    )
    for backend in ("theory", "ion", "transmon"):
        assert run_cli(["run", "--config", str(cfg), "--backend", backend]) == 0, backend
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert len(rows) == 21 and rows[-1]["r"] == "1.79769313486e+308"


def test_run_flag_overrides(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path,
        f"r_steps = 2\nt_steps = 2\nseed = 1\noutput_csv = {csv_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg), "--backend", "transmon", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "backend=transmon" in out and "seed=9" in out and "shots=8192" in out
    before = csv_path.read_bytes()
    for seed in (-1, 2**64):
        assert run_cli(["run", "--config", str(cfg), "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == "config error: seed must fit in 64 unsigned bits\n"
    assert csv_path.read_bytes() == before


def test_run_exit_codes(tmp_path):
    assert run_cli(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    bad = write_config(tmp_path, "bogus = 1\n", name="bad.cfg")
    assert run_cli(["run", "--config", str(bad)]) == 2
    unwritable = write_config(
        tmp_path,
        f"r_steps = 1\nt_steps = 1\noutput_csv = {tmp_path}/no/dir/out.csv\n",
        name="unwritable.cfg",
    )
    assert run_cli(["run", "--config", str(unwritable)]) == 1
    missing_confusion = write_config(
        tmp_path,
        "confusion_file = /nonexistent/cal.txt\n",
        name="noconf.cfg",
    )
    assert run_cli(["run", "--config", str(missing_confusion)]) == 1
    assert run_cli(["run", "--config", str(tmp_path / "absent.cfg"), "--workers", "0"]) == 2


def test_run_rejects_undecodable_inputs(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    not_utf8 = b"\xff\xfe"
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(not_utf8 + f"output_csv = {csv_path}\n".encode("utf-16-le"))
    cal = tmp_path / "cal.txt"
    cal.write_bytes(not_utf8 + b"1 0 0 0 1 0 0 0 1\n")
    conf_cfg = write_config(
        tmp_path, f"confusion_file = {cal}\noutput_csv = {csv_path}\n", name="conf.cfg"
    )
    for path in (cfg, conf_cfg):
        assert run_cli(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'utf-8' codec can't decode" in err
    assert not csv_path.exists()


def test_run_rejects_oversized_grid(tmp_path, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("an oversized grid reached the sweep")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    cfg = write_config(tmp_path, "r_steps = 10000\nt_steps = 10000\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: grid: ")


def test_run_workers_byte_identical(tmp_path):
    csv_path = tmp_path / "out.csv"
    pgm_path = tmp_path / "out.pgm"
    cfg = write_config(
        tmp_path,
        "backend = ion\nr_steps = 4\nt_steps = 5\nr_max = 1.2\nt_max = 3.0\n"
        f"output_csv = {csv_path}\noutput_pgm = {pgm_path}\n",
    )
    assert run_cli(["run", "--config", str(cfg), "--workers", "1"]) == 0
    csv_one, pgm_one = csv_path.read_bytes(), pgm_path.read_bytes()
    assert run_cli(["run", "--config", str(cfg), "--workers", "4"]) == 0
    assert csv_path.read_bytes() == csv_one
    assert pgm_path.read_bytes() == pgm_one


def test_transpile_ion_and_transmon(tmp_path, capsys):
    src = tmp_path / "circ.txt"
    src.write_text(format_circuit(qutrit_circuit(PTParams(0.5, 1.0))))
    out = tmp_path / "ion.txt"
    assert run_cli(["transpile", "--target", "ion", str(src), str(out)]) == 0
    assert capsys.readouterr().out.strip() == "physical=5 virtual=0"
    parsed = parse_circuit(out.read_text())
    assert len(parsed) == 5

    out2 = tmp_path / "tm.txt"
    assert run_cli(["transpile", "--target", "transmon", str(src), str(out2)]) == 0
    assert capsys.readouterr().out.strip() == "physical=6 virtual=19"
    parsed = parse_circuit(out2.read_text())
    for g in parsed:
        if g.kind is GateKind.RX:
            assert g.angles[0] == HALF_PI


def test_transpile_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    out = tmp_path / "out.txt"
    assert run_cli(["transpile", "--target", "ion", str(src), str(out)]) == 0
    assert capsys.readouterr().out.strip() == "physical=0 virtual=0"
    assert out.read_text() == ""


def test_transpile_error_exit_codes(tmp_path):
    missing = tmp_path / "missing.txt"
    out = tmp_path / "out.txt"
    assert run_cli(["transpile", "--target", "ion", str(missing), str(out)]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("RX 0 1 not-a-number\n")
    assert run_cli(["transpile", "--target", "ion", str(bad), str(out)]) == 2
    foreign = tmp_path / "foreign.txt"
    foreign.write_text(format_circuit(parse_circuit("RZ 0 1 0.4\n")))
    assert run_cli(["transpile", "--target", "ion", str(foreign), str(out)]) == 2
    ok = tmp_path / "ok.txt"
    ok.write_text(format_circuit(qutrit_circuit(PTParams(0.3, 0.8))))
    assert run_cli(
        ["transpile", "--target", "ion", str(ok), str(tmp_path / "no/dir/x.txt")]
    ) == 1


@pytest.mark.parametrize(
    "text",
    [
        "RX 0 1 1.7976931348623157e308\n" * 3,
        "RX 0 1 1e10\n",
        "RX 0 1 1e17\n",
        "RX 0 1 1e300\nRX 1 2 -1.7976931348623157e308\nRX 0 1 -1e17\nRX 0 1 0.5\n",
    ],
    ids=["three-max-floats", "1e10", "1e17", "mixed"],
)
def test_transpile_transmon_large_angles(tmp_path, capsys, text):
    # a sum of the raw half-angles overflows or loses the phase
    src = tmp_path / "circ.txt"
    src.write_text(text)
    out = tmp_path / "out.txt"
    assert run_cli(["transpile", "--target", "transmon", str(src), str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert equivalent(parse_circuit(out.read_text()), parse_circuit(text), 1e-10)
    assert sorted(tmp_path.iterdir()) == [src, out]


@pytest.mark.parametrize("line", ["RY 0 1 0.5", "PHASE2 1 2 0.3"])
def test_transpile_rejects_kinds_outside_the_format(tmp_path, capsys, line):
    # the format holds the RX, RZ and RION kinds only
    src = tmp_path / "circ.txt"
    src.write_text(line + "\nRX 0 1 0.5\n")
    out = tmp_path / "out.txt"
    out.write_text("earlier run\n")
    for target in ("ion", "transmon"):
        assert run_cli(["transpile", "--target", target, str(src), str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: line 1: ")
        assert out.read_text() == "earlier run\n"
    assert sorted(tmp_path.iterdir()) == [src, out]


def test_transpile_rejects_undecodable_circuit(tmp_path, capsys):
    src = tmp_path / "circ.txt"
    src.write_bytes(b"\xff\xfe" + "RX 0 1 0.5\n".encode("utf-16-le"))
    out = tmp_path / "out.txt"
    assert run_cli(["transpile", "--target", "ion", str(src), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'utf-8' codec can't decode" in err
    assert sorted(tmp_path.iterdir()) == [src]


def test_transpile_failed_write_keeps_earlier_output(tmp_path, monkeypatch):
    src = tmp_path / "circ.txt"
    src.write_text(format_circuit(qutrit_circuit(PTParams(0.5, 1.0))))
    out = tmp_path / "out.txt"
    out.write_text("earlier run\n")

    def file_too_large(path, text, append=False):
        # opened for writing, then past the file-size limit
        open(path, "a" if append else "w").close()
        raise OSError(errno.EFBIG, "File too large", path)

    monkeypatch.setattr(cli, "_write_text", file_too_large)
    assert run_cli(["transpile", "--target", "ion", str(src), str(out)]) == 1
    assert out.read_text() == "earlier run\n"
    assert sorted(tmp_path.iterdir()) == [src, out]


def test_dilation_check_subcommand(capsys):
    assert run_cli(
        ["dilation-check", "--n", "2", "--m", "1", "--trials", "50", "--seed", "7"]
    ) == 0
    out = capsys.readouterr().out
    assert "max unitarity defect" in out and "max block defect" in out
    assert run_cli(["dilation-check", "--n", "1", "--m", "1", "--trials", "10"]) == 0
    capsys.readouterr()
    assert run_cli(["dilation-check", "--n", "4", "--m", "0", "--trials", "5"]) == 0
    capsys.readouterr()
    assert run_cli(["dilation-check", "--n", "12", "--m", "12", "--trials", "1"]) == 2
    assert run_cli(["dilation-check", "--trials", "1", "--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()
    for seed in (-1, 2**64):
        assert run_cli(["dilation-check", "--trials", "1", "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == "config error: --seed must fit in 64 unsigned bits\n"


def test_transpile_exits_3_when_the_transpiled_circuit_differs(tmp_path, capsys, monkeypatch):
    src = tmp_path / "circ.txt"
    src.write_text(format_circuit(qutrit_circuit(PTParams(0.5, 1.0))))
    out = tmp_path / "out.txt"
    out.write_text("earlier run\n")
    monkeypatch.setattr(cli, "transpile_ion", lambda circuit: (rx(0, 1, 0.5),))
    assert run_cli(["transpile", "--target", "ion", str(src), str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transpiled circuit does not reproduce the input unitary\n"
    assert out.read_text() == "earlier run\n"
    assert sorted(tmp_path.iterdir()) == [src, out]


def test_dilation_check_exits_4_on_a_dilation_error(capsys, monkeypatch):
    def too_large(a, m):
        raise NormTooLarge("largest singular value 1.5 exceeds 1")

    monkeypatch.setattr(cli, "general_dilation", too_large)
    assert run_cli(["dilation-check", "--trials", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "trial 0: NormTooLarge: largest singular value 1.5 exceeds 1\n"
    assert captured.err == ""


def test_dilation_check_exits_4_on_a_defective_unitary(capsys, monkeypatch):
    # u = 2.I: unitarity defect 3, block defect at least 1
    monkeypatch.setattr(cli, "general_dilation", lambda a, m: Dilation(u=2.0 * np.eye(len(a) + m)))
    assert run_cli(["dilation-check", "--trials", "3", "--seed", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == [
        "trials=3 n=2 m=1 seed=5",
        "max unitarity defect = 3.000e+00",
    ]
    assert captured.err == "defect overflow: threshold 1e-9 exceeded\n"


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("ptqsim")
    if exe is None:
        pytest.skip("console script not installed")
    csv_path = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path, f"r_steps = 1\nt_steps = 2\nt_max = 1.0\noutput_csv = {csv_path}\n"
    )
    proc = subprocess.run(
        [exe, "run", "--config", str(cfg)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert csv_path.exists()


# values the config fuzz draws for each key, the valid ones first, then
# extreme, non-finite and unparsable ones
FUZZ_FLOATS = ("0", "-0", "0.5", "1", "3", "1e-320", "1e3", "1.7976931348623157e308", "inf", "-1", "nan", "abc")
FUZZ_VALUES = {
    "backend": ("theory", "ion", "transmon", "ION", "qubit"),
    "observable": ("return_prob", "postselected", "POSTSELECTED", "both"),
    "epsilon": ("0.01", "0.02, -0.015, 0.01", "0.49,-0.49", "-0", "0.5", "nan", "-inf", "1e308", "0.1,"),
    # a grid stays within 5 x 5 points or is refused
    **dict.fromkeys(("r_steps", "t_steps"), ("1", "2", "5", "0", "-1", "2.0", "10000001", str(2**64))),
    "shots": ("1", "3", "512", str(2**63 - 1), "0", "2.5", str(2**63), "1e3"),
    "seed": ("0", "3", str(2**64 - 1), "-1", str(2**64), "2.5", "0x10"),
    "ions": ("1", "3", str(2**64), "0", "-1", "2.5"),
    **dict.fromkeys(("r_min", "r_max", "t_min", "t_max"), FUZZ_FLOATS),
    # a path holding a NUL is refused; the run's own output paths come first
    # in the config, so a drawn one would win
    **dict.fromkeys(("output_csv", "output_pgm", "confusion_file"), ("out\0.csv",)),
}
FUZZ_CONFUSION = {
    "identity": b"1 0 0\n0 1 0\n0 0 1\n",
    "leaky": b"0.9 0.05 0\n0.1 0.9 0.1\n0 0.05 0.9\n",
    "short": b"1 0 0\n",
    "negative": b"1.1 0 0\n-0.1 1 0\n0 0 1\n",
    "undecodable": b"\xff\xfe 1 0 0\n",
    "cal_\u00e9.txt": b"1 0 0\n0 1 0\n0 0 1\n",
}
fuzz_config_lines = st.lists(
    st.sampled_from(sorted(FUZZ_VALUES)).flatmap(
        lambda key: st.sampled_from(FUZZ_VALUES[key]).map(f"{key} = {{}}".format)
    ),
    max_size=5,
)


@settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=fuzz_config_lines,
    junk=st.sampled_from((None, None, "# comment", "", "shots", "= 5", "unknown = 1", "seed = 1 = 2")),
    junk_at=st.integers(0, 5),
    confusion=st.sampled_from((None, None, "missing", *FUZZ_CONFUSION)),
    undecodable=st.sampled_from((False, False, False, True)),
    flags=st.sampled_from(([], [], ["--backend", "ion"], ["--seed", str(2**64)], ["--workers", "2"])),
)
def test_run_fuzzed_configs(tmp_path, lines, junk, junk_at, confusion, undecodable, flags):
    # any config ends with exit 0, 1 or 2 and no exception; a failed run
    # leaves an earlier run's outputs as they were, and no run leaves a temp file
    for name, data in FUZZ_CONFUSION.items():
        (tmp_path / name).write_bytes(data)
    outputs = {tmp_path / name: b"earlier run\n" for name in ("out.csv", "out.pgm", "out.pgm.mask")}
    for path, data in outputs.items():
        path.write_bytes(data)
    if junk is not None:
        lines.insert(junk_at, junk)
    text = f"r_steps = 2\nt_steps = 3\noutput_csv = {tmp_path / 'out.csv'}\noutput_pgm = {tmp_path / 'out.pgm'}\n"
    text += "".join(f"{line}\n" for line in lines)
    if confusion is not None:
        text += f"confusion_file = {tmp_path / confusion}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes((b"\xff" if undecodable else b"") + text.encode())
    code = run_cli(["run", "--config", str(cfg), *flags])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 0:
        assert (tmp_path / "out.csv").read_text().startswith("r,t,backend,")
    else:
        assert {path: path.read_bytes() for path in outputs} == outputs
    assert not list(tmp_path.glob("*.tmp"))


FUZZ_ANGLES = (
    "0", "-0", "1.5707963267948966", "3.141592653589793", "-7.5", "1e17", "1e300",
    "1.7976931348623157e308", "-1.7976931348623157e308", "5e-324",
)
# a circuit of abstract rotations, which both targets take, with at most one
# line that may be malformed
fuzz_rotations = st.lists(
    st.tuples(st.sampled_from(("RX", "rx")), st.sampled_from(("0 1", "1 2")), st.sampled_from(FUZZ_ANGLES)),
    max_size=6,
)
fuzz_gate_junk = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(("RX", "RZ", "RION", "RY", "")),
        st.sampled_from(("0 1", "1 2", "0 2", "1 0", "2 3", "1", "a b")),
        st.lists(st.sampled_from(FUZZ_ANGLES + ("inf", "nan", "x")), max_size=3).map(" ".join),
    ),
    st.sampled_from((("#", "comment", ""), ("", "", ""), ("RX", "0 1", "1 # note"))),
)


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=fuzz_rotations,
    junk=fuzz_gate_junk,
    junk_at=st.integers(0, 6),
    undecodable=st.sampled_from((False, False, False, True)),
    target=st.sampled_from(("ion", "transmon")),
)
def test_transpile_fuzzed_circuits(tmp_path, capsys, lines, junk, junk_at, undecodable, target):
    # any circuit text is transpiled or refused with exit 2, never a traceback
    if junk is not None:
        lines.insert(junk_at, junk)
    text = "".join(" ".join(line) + "\n" for line in lines)
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_bytes((b"\xfe" if undecodable else b"") + text.encode())
    code = run_cli(["transpile", "--target", target, str(src), str(out)])
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert equivalent(parse_circuit(src.read_text()), parse_circuit(out.read_text()), 1e-10)
    assert not list(tmp_path.glob("*.tmp"))
