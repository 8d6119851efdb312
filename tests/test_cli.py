"""End-to-end command-line tests (subprocess, real exit codes and files), and
the byte contract of the table writer they produce."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from rqbm import _options, cli
from rqbm.cli import _write_table
from rqbm.errors import InputError
from rqbm.evolve import EvolutionConfig, evolve_field, gaussian_packet, particle_branch_project
from rqbm.grid import ComplexField, Grid1D
from rqbm.madelung import decompose, quantum_potential, residuals
from rqbm.units import Model, ModelParams

DISPERSION_HEADER = (
    "model,k,re_w1,im_w1,re_w2,im_w2,re_w3,im_w3,re_w4,im_w4,"
    "res1,res2,res3,res4,branch1,branch2,branch3,branch4,asym_low_re,asym_low_im"
)


def run(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rqbm", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


def read_csv_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def csv_footer(lines):
    return {l[2:].split(" = ")[0]: l.split(" = ")[1] for l in lines if l.startswith("# ")}


def csv_columns(lines):
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:] if not l.startswith("# ")]
    return {h: [float(r[j]) for r in rows] for j, h in enumerate(header)}


def json_columns(doc):
    return {h: [r[h] for r in doc["rows"]] for h in doc["rows"][0]}


class TestDispersionCommand:
    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "roots.csv"
        r = run("dispersion", "--model", "collisional", "--gamma", "1.0",
                "--out", out, "--k-steps", "7", "--k-min", "0.5", "--k-max", "2.0")
        assert r.returncode == 0, r.stderr
        lines = read_csv_lines(out)
        assert lines[0] == DISPERSION_HEADER
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "collisional"
        assert float(first[1]) == pytest.approx(0.5)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("dispersion", "--model", "phase-diffusion", "--diffusion", "1.0",
                "--k-steps", "25")
        assert run(*args, "--out", a).returncode == 0
        assert run(*args, "--out", b).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "roots.json"
        r = run("dispersion", "--model", "conservative", "--out", out,
                "--format", "json", "--k-steps", "3", "--k-min", "0.5",
                "--k-max", "2.0")
        assert r.returncode == 0, r.stderr
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 3
        row = doc["rows"][0]
        assert row["model"] == "conservative"
        assert row["re_w3"] is None  # quadratic model: two branches only
        assert row["branch1"] in ("hydrodynamic", "zitterbewegung-gapped", "other")

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(
            "model: collisional\ngamma: 0.5\nk-steps: 12\nk-scale: linear\n"
            "k-min: 0.0\nk-max: 2.0\n"
        )
        out = tmp_path / "roots.csv"
        r = run("dispersion", "--config", cfgfile, "--out", out, "--k-steps", "5")
        assert r.returncode == 0, r.stderr
        lines = read_csv_lines(out)
        assert len(lines) == 6  # flag value 5 beats the config's 12
        assert float(lines[1].split(",")[1]) == 0.0  # config k-min survives

    def test_unknown_config_key_is_input_error(self, tmp_path):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text("model: conservative\nk-stepz: 9\n")
        r = run("dispersion", "--config", cfgfile, "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "k-stepz" in r.stderr

    def test_seed_is_not_an_option(self, tmp_path):
        r = run("dispersion", "--model", "conservative", "--out", tmp_path / "x.csv",
                "--seed", "7")
        assert r.returncode == 2
        assert "unrecognized arguments: --seed 7" in r.stderr
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text("model: conservative\nseed: 7\n")
        r = run("dispersion", "--config", cfgfile, "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "unknown config key 'seed'" in r.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_mismatched_rate_is_input_error(self, tmp_path):
        r = run("dispersion", "--model", "radiative", "--tau", "1.0",
                "--gamma", "0.3", "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "input error" in r.stderr

    def test_unknown_model_is_input_error(self, tmp_path):
        r = run("dispersion", "--model", "frictional", "--out", tmp_path / "x.csv")
        assert r.returncode == 2

    def test_missing_model_is_input_error(self, tmp_path):
        r = run("dispersion", "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "--model" in r.stderr

    def test_run_log_echoes_defaults(self, tmp_path):
        r = run("dispersion", "--model", "conservative", "--out", tmp_path / "x.csv",
                env_extra={"RQBM_LOG": "INFO"})
        assert r.returncode == 0
        assert "default k-max = 10.0" in r.stderr
        assert "wrote 200 rows" in r.stderr


    @pytest.mark.parametrize("sweep", [
        ("--model", "dalembert-diffusion", "--diffusion", "2", "--k-max", "75", "--k-steps", "50"),
        ("--model", "collisional", "--gamma", "0.001", "--k-max", "20", "--k-steps", "20"),
        ("--model", "radiative", "--tau", "0.001", "--k-max", "40", "--k-steps", "20"),
    ])
    def test_ambiguous_steps_are_bisected(self, tmp_path, sweep):
        out = tmp_path / "roots.csv"
        r = run("dispersion", *sweep, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = read_csv_lines(out)
        k = [float(line.split(",")[1]) for line in lines[1:]]
        assert k == list(np.geomspace(0.01, float(sweep[5]), int(sweep[7])))

    def test_critically_damped_low_k_sweep_certifies(self, tmp_path):
        # at D = 1 the phase-diffusion hydrodynamic pair is split by ~1e-9 at
        # k = 1e-3, far inside the clustering width
        out = tmp_path / "roots.csv"
        r = run("dispersion", "--model", "phase-diffusion", "--diffusion", "1",
                "--k-min", "0.001", "--k-max", "1", "--k-steps", "20", "--out", out)
        assert r.returncode == 0, r.stderr
        lines = read_csv_lines(out)
        cols = lines[0].split(",")
        res = [[float(line.split(",")[cols.index(f"res{j}")]) for j in range(1, 5)]
               for line in lines[1:]]
        assert len(res) == 20 and max(map(max, res)) <= 1e-10

    def test_overflowing_certificate_fails_with_one_line(self, tmp_path):
        # sum_j |c_j| |w|^j overflows at tau = 1e200: no root is certified, and
        # the run says so without a numpy warning
        r = run("dispersion", "--model", "radiative", "--tau", "1e200", "--k-min", "0.1",
                "--k-max", "1", "--k-steps", "3", "--out", tmp_path / "x.csv")
        assert r.returncode == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        assert lines[0].startswith("rqbm: numerical failure: root certification failed at k=0.1")

    @pytest.mark.parametrize("argv,k", [
        (["dispersion", "--model", "collisional", "--gamma", "1e308", "--k-steps", "3"], "0.01"),
        (["evolve", "--density", "--model", "radiative", "--tau", "1e308"], "0.1"),
    ], ids=["dispersion", "density"])
    def test_overflowing_companion_fails_with_one_line(self, tmp_path, argv, k):
        # a rate near the float limit overflows c_j / c_4 in the companion
        # matrix: the row's roots are not certified, and no numpy warning
        # or LinAlgError reaches the user
        r = run(*argv, "--out", tmp_path / "out")
        assert r.returncode == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        assert lines[0].startswith(f"rqbm: numerical failure: root certification failed at k={k}:")


@pytest.fixture
def no_child_left():
    """After the test, this process has no child left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEvolveCommand:
    def test_gaussian_run_writes_snapshots_and_charges(self, tmp_path):
        out = tmp_path / "run"
        r = run("evolve", "--out", out, "--dt", "0.01", "--steps", "2")
        assert r.returncode == 0, r.stderr
        names = sorted(p.name for p in out.iterdir())
        assert names == ["snap_0.01.csv", "snap_0.02.csv", "snap_0.csv", "traj.csv"]
        traj = read_csv_lines(out / "traj.csv")
        assert traj[0] == "t,N,N_mod,E,continuity_residual,hj_residual"
        assert len(traj) == 4
        for line in traj[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[1] == pytest.approx(1.0, abs=1e-9)  # unit-norm packet
            assert vals[4] < 1e-3 and vals[5] < 1e-3

    def test_plane_wave_energy_column_is_constant(self, tmp_path):
        out = tmp_path / "run"
        r = run("evolve", "--out", out, "--init", "plane-wave", "--mode-k", "1.0",
                "--n", "64", "--length", str(8.0 * np.pi), "--dt", "0.05",
                "--steps", "40", "--snapshot-stride", "10")
        assert r.returncode == 0, r.stderr
        traj = [l.split(",") for l in read_csv_lines(out / "traj.csv")[1:]]
        e = np.array([float(row[3]) for row in traj])
        assert np.max(np.abs(e - e[0])) < 1e-8 * abs(e[0])
        assert max(float(row[5]) for row in traj) < 1e-6

    def test_zero_init_run_is_identically_zero(self, tmp_path):
        out = tmp_path / "run"
        r = run("evolve", "--out", out, "--init", "zero", "--dt", "0.1", "--steps", "1")
        assert r.returncode == 0, r.stderr
        snap = read_csv_lines(out / "snap_0.csv")
        assert snap[0] == "x,re_psi,im_psi,rho,S,Q"
        for line in snap[1:]:
            assert [float(v) for v in line.split(",")][1:] == [0.0] * 5

    def test_density_mode_table(self, tmp_path):
        out = tmp_path / "run"
        r = run("evolve", "--out", out, "--model", "dalembert-diffusion",
                "--diffusion", "1.0", "--density", "--k", "0.5",
                "--dt", "0.5", "--steps", "10", "--snapshot-stride", "5")
        assert r.returncode == 0, r.stderr
        lines = read_csv_lines(out / "density.csv")
        assert lines[0] == "t,k,re_rho,im_rho"
        assert len(lines) == 4
        rho_abs = [abs(complex(*map(float, l.split(",")[2:]))) for l in lines[1:]]
        assert rho_abs[0] == 1.0 and rho_abs[-1] < 1.0  # fully damped model

    def test_density_needs_dissipative_model(self, tmp_path):
        r = run("evolve", "--out", tmp_path / "run", "--density", "--k", "0.5")
        assert r.returncode == 2

    def test_field_run_needs_conservative_model(self, tmp_path):
        r = run("evolve", "--out", tmp_path / "run", "--model", "collisional",
                "--gamma", "1.0")
        assert r.returncode == 2
        assert "--density" in r.stderr

    def test_density_overflow_is_numerical_failure(self, tmp_path):
        r = run("evolve", "--out", tmp_path / "run", "--model", "radiative",
                "--tau", "100", "--density", "--k", "0.1",
                "--dt", "1.0", "--steps", "400", "--snapshot-stride", "400")
        assert r.returncode == 3
        # the overflow itself prints no numpy warning
        assert r.stderr.splitlines() == [
            "rqbm: warning: model radiative has growing modes at k=0.1 (Im omega < 0); "
            "the run may diverge",
            "rqbm: numerical failure: density modes overflowed during evolution by t=400.0 "
            "(model radiative); growing characteristic roots",
        ]

    @pytest.mark.usefixtures("no_child_left")
    def test_diverging_run_is_numerical_failure(self, tmp_path):
        # |psi| grows without bound; by t = 1.4 the residual norms of a
        # window overflow, and the run stops there with one line and no
        # numpy warning
        out = tmp_path / "run"
        r = run("evolve", "--method", "stepper", "--potential", "harmonic",
                "--omega0", "10", "--n", "256", "--length", "100", "--dt", "0.05",
                "--steps", "400", "--snapshot-stride", "1", "--out", out)
        assert r.returncode == 3, r.stderr
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        assert lines[0].startswith("rqbm: numerical failure: field overflowed near t=")
        assert not list(out.glob("traj.*"))
        # the snapshots written before the failing window stay on disk
        assert list(out.glob("snap_*.csv"))

    @pytest.mark.parametrize("argv,message", [
        (["--density", "--model", "collisional", "--gamma", "1"],
         "model collisional has growing modes at k=0.1 (Im omega < 0); the run may diverge"),
        (["--sigma", "20", "--length", "100", "--steps", "2"],
         "packet sigma=20.0 has under 6 sigma of clearance in a box of length 100.0; "
         "wrap-around will contaminate the tails"),
    ], ids=["growing-modes", "packet-clearance"])
    def test_warning_is_one_line_in_the_cli_voice(self, tmp_path, argv, message):
        r = run("evolve", "--out", tmp_path / "run", *argv)
        assert r.returncode == 0, r.stderr
        assert r.stderr == f"rqbm: warning: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["--init", "plane-wave", "--mode-k", "nan"], "plane-wave k must be finite, got nan"),
        (["--init", "plane-wave", "--mode-k", "inf"], "plane-wave k must be finite, got inf"),
        (["--init", "plane-wave", "--mode-k", "1e300"],
         "mode index 1.59155e+301 exceeds the resolvable band for n=256"),
        (["--init", "plane-wave", "--mode-k", "0", "--amplitude", "nan"],
         "plane-wave amplitude must be finite, got nan"),
        (["--init", "plane-wave", "--mode-k", "0", "--amplitude", "inf"],
         "plane-wave amplitude must be finite, got inf"),
        (["--sigma", "1e-300"],
         "packet width sigma 1e-300 is too fine: its square underflows to 0"),
    ], ids=["k-nan", "k-inf", "k-1e300", "amplitude-nan", "amplitude-inf", "sigma-1e-300"])
    def test_bad_initial_field_is_one_input_error_line(self, tmp_path, argv, message):
        r = run("evolve", "--out", tmp_path / "run", *argv)
        assert (r.returncode, r.stderr) == (2, f"rqbm: input error: {message}\n")


def evolve_in_process(out, *argv) -> None:
    assert cli.main(["evolve", "--out", str(out), *map(str, argv)]) == 0


STRIDE_1 = ["--n", "256", "--length", "100", "--dt", "0.05"]


class TestEvolveStream:
    """In-process `rqbm evolve` runs that watch how the windows are consumed."""

    @pytest.mark.parametrize("method,calls", [("stepper", 40 + 2), ("exact-mode", 40 + 2)])
    def test_each_shared_level_is_decomposed_once(self, tmp_path, monkeypatch, method, calls):
        # both methods share the levels of neighbouring windows at stride 1
        counted = []

        def decompose_counted(*args, **kwargs):
            counted.append(kwargs["t"])
            return decompose(*args, **kwargs)

        monkeypatch.setattr(cli, "decompose", decompose_counted)
        evolve_in_process(tmp_path / "run", "--method", method, "--steps", 39, *STRIDE_1)
        assert len(counted) == calls

    def test_shared_levels_give_the_bytes_of_fresh_decompositions(self, tmp_path):
        evolve_in_process(tmp_path / "run", "--method", "stepper", "--steps", 30, *STRIDE_1)
        grid, dt = Grid1D(256, 100.0), 0.05
        state = particle_branch_project(gaussian_packet(grid, 8.0, 0.0))
        prior, rows = None, []
        for s, prev, nxt in evolve_field(state, EvolutionConfig(dt, 30, "stepper")):
            # each level carries the time of its snapshot file name
            t0, t1, t2 = (float(f"{t:.12g}") for t in (s.t - dt, s.t, s.t + dt))
            f0 = decompose(ComplexField(grid, prev), prior_S=prior, t=t0)
            f1 = decompose(s.psi, prior_S=f0.S, t=t1)
            f2 = decompose(ComplexField(grid, nxt), prior_S=f1.S, t=t2)
            prior = f1.S
            d = residuals((f0, f1, f2), ModelParams(Model.CONSERVATIVE))
            rows.append([s.t, d.N, d.N_mod, d.E, d.continuity_residual, d.hj_residual])
        traj = read_csv_lines(tmp_path / "run" / "traj.csv")[1:]
        assert [[float(v) for v in line.split(",")] for line in traj] == rows
        snap = csv_columns(read_csv_lines(tmp_path / "run" / "snap_1.5.csv"))
        np.testing.assert_array_equal(snap["S"], f1.S)
        np.testing.assert_array_equal(snap["Q"], quantum_potential(
            grid, (f0.rho, f1.rho, f2.rho), t1 - t0))

    @pytest.mark.parametrize("method", ["stepper", "exact-mode"])
    def test_traced_peak_does_not_grow_with_the_run(self, tmp_path, method):
        def peak(steps: int) -> int:
            tracemalloc.start()
            try:
                evolve_in_process(tmp_path / f"run{steps}", "--method", method,
                                  "--steps", steps, *STRIDE_1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)  # first-call allocations that later runs reuse
        short, long = peak(25), peak(200)
        assert long <= 1.5 * short, (short, long)


DIVERGING = ["--method", "stepper", "--potential", "harmonic", "--omega0", "10",
             "--steps", "400", *STRIDE_1]


@pytest.mark.usefixtures("no_child_left")
class TestSnapshotWriter:
    """A field run forks one child, which writes every other snapshot file."""

    @staticmethod
    def evolve(out, capsys, *argv):
        """Exit code, stderr and {name: bytes} of one in-process `rqbm evolve`."""
        rc = cli.main(["evolve", "--out", str(out), *map(str, argv)])
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return rc, capsys.readouterr().err, files

    @pytest.mark.parametrize("argv", [["--method", "exact-mode", "--format", "csv"],
                                      ["--method", "stepper", "--format", "json"]])
    def test_forked_run_writes_the_bytes_of_a_serial_run(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        forked = self.evolve(tmp_path / "forked", capsys, "--steps", 30, *STRIDE_1, *argv)
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        serial = self.evolve(tmp_path / "serial", capsys, "--steps", 30, *STRIDE_1, *argv)
        assert forked[:2] == (0, "") and len(forked[2]) == 31 + 1
        assert forked == serial

    # the child writes t = 0, 2 dt, 4 dt, ...; this process t = dt, 3 dt, ...
    @pytest.mark.parametrize("failing", ["snap_0.1.csv", "snap_0.05.csv"],
                             ids=["child", "parent"])
    def test_failed_write_is_one_line_and_no_traj(self, tmp_path, capsys, monkeypatch,
                                                  failing):
        write = cli._write_table

        def write_or_fail(path, *args, **kwargs):
            if os.path.basename(path) == failing:
                raise OSError(f"no space left for {failing}")
            write(path, *args, **kwargs)

        monkeypatch.setattr(cli, "_write_table", write_or_fail)
        rc, err, files = self.evolve(tmp_path / "run", capsys, "--steps", 30, *STRIDE_1)
        assert rc == 3
        assert err == f"rqbm: unexpected failure: OSError: no space left for {failing}\n"
        assert "snap_0.csv" in files
        assert failing not in files and "traj.csv" not in files

    def test_diverging_run_leaves_the_files_of_a_serial_run(self, tmp_path, capsys,
                                                            monkeypatch):
        forked = self.evolve(tmp_path / "forked", capsys, *DIVERGING)
        monkeypatch.delattr(os, "fork")
        serial = self.evolve(tmp_path / "serial", capsys, *DIVERGING)
        assert forked[0] == 3 and "snap_0.csv" in forked[2]
        assert not [name for name in forked[2] if name.startswith("traj")]
        assert forked == serial

    def test_interrupted_run_reaps_its_child(self, tmp_path, monkeypatch):
        window = cli._window

        def window_or_interrupt(grid, levels, times, *args, **kwargs):
            if times[1] == 0.5:
                raise KeyboardInterrupt
            return window(grid, levels, times, *args, **kwargs)

        monkeypatch.setattr(cli, "_window", window_or_interrupt)
        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            cli.main(["evolve", "--out", str(out), "--steps", "30", *STRIDE_1])
        # the files of the ten windows before t = 0.5, from both processes
        assert sorted(p.name for p in out.iterdir()) == sorted(
            cli._snap_name(m * 0.05, "csv") for m in range(10))


class TestMadelungCommand:
    @pytest.mark.parametrize("method,steps,every,extra", [
        ("exact-mode", 30, 1, ()),
        ("stepper", 30, 1, ()),
        # the packet's S drifts by 2 pi over this run, and from centre 274 on
        # a decomposition without the run's phase lands on another branch
        ("exact-mode", 300, 7, ("--kbar", 1)),
    ], ids=["exact-mode", "stepper", "exact-mode-kbar-1"])
    def test_traj_rows_equal_the_madelung_footers(self, tmp_path, method, steps, every, extra):
        # both commands take a window's diagnostics the same way, from levels
        # stamped with the times in the snapshot file names; at dt 0.04,
        # j dt - dt and (j - 1) dt differ in their last bit at some centres
        rundir, dt = tmp_path / "run", 0.04
        evolve_in_process(rundir, "--method", method, "--n", 256, "--length", 100,
                          "--dt", dt, "--steps", steps, *extra)
        traj = read_csv_lines(rundir / "traj.csv")
        header = traj[0].split(",")
        keys = ("N", "N_mod", "E", "continuity_residual", "hj_residual")
        for j in range(1, steps, every):
            snaps = [str(rundir / cli._snap_name((j + i) * dt, "csv")) for i in (-1, 0, 1)]
            out = tmp_path / "fluid.csv"
            assert cli.main(["madelung", "--out", str(out), "--snapshots", *snaps]) == 0
            lines = read_csv_lines(out)
            row = dict(zip(header, traj[1 + j].split(",")))
            assert {k: csv_footer(lines)[k] for k in keys} == {k: row[k] for k in keys}, j
            # and the madelung Q column is the centre snapshot's, bit for bit
            q = [line.split(",")[-1] for line in lines[1:] if not line.startswith("# ")]
            assert q == [line.split(",")[-1] for line in read_csv_lines(snaps[1])[1:]], j

    def test_snapshots_without_a_phase_column_decompose_without_prior(self, tmp_path):
        rundir = tmp_path / "run"
        evolve_in_process(rundir, "--format", "json", "--dt", 0.01, "--steps", 2)
        snaps = [rundir / f"snap_{t}.json" for t in ("0", "0.01", "0.02")]
        outs = [tmp_path / "with-S.json", tmp_path / "without-S.json"]
        argv = ["madelung", "--snapshots", *map(str, snaps), "--out"]
        assert cli.main([*argv, str(outs[0])]) == 0
        for path in snaps:
            doc = json.loads(path.read_text())
            for row in doc["rows"]:
                del row["S"]
            path.write_text(json.dumps(doc))
        assert cli.main([*argv, str(outs[1])]) == 0
        # this packet's S has not drifted, so both anchors pick the same branch
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_round_trip_from_evolve_output(self, tmp_path):
        rundir = tmp_path / "run"
        assert run("evolve", "--out", rundir, "--dt", "0.01", "--steps", "2").returncode == 0
        out = tmp_path / "fluid.csv"
        r = run("madelung", "--out", out,
                "--snapshots", rundir / "snap_0.csv", rundir / "snap_0.01.csv",
                rundir / "snap_0.02.csv")
        assert r.returncode == 0, r.stderr
        lines = read_csv_lines(out)
        assert lines[0] == "x,rho,S,Q"
        footer = csv_footer(lines)
        assert set(footer) == {
            "t", "N", "N_mod", "E", "continuity_residual", "hj_residual",
            "excluded_fraction", "reconstruction_error",
        }
        assert float(footer["N"]) == pytest.approx(1.0, abs=1e-9)
        assert float(footer["hj_residual"]) < 1e-3
        assert float(footer["reconstruction_error"]) < 1e-12

    def test_csv_and_json_round_trips_agree_exactly(self, tmp_path):
        # %.17g and repr both round-trip a double, so the two formats must
        # carry identical values through evolve -> madelung
        snaps, fluid = {}, {}
        for fmt in ("csv", "json"):
            rundir = tmp_path / fmt
            r = run("evolve", "--out", rundir, "--format", fmt, "--n", "64",
                    "--length", "40", "--sigma", "3", "--dt", "0.01", "--steps", "2")
            assert r.returncode == 0, r.stderr
            out = tmp_path / f"fluid.{fmt}"
            r = run("madelung", "--out", out, "--format", fmt, "--snapshots",
                    *(rundir / f"snap_{t}.{fmt}" for t in ("0", "0.01", "0.02")))
            assert r.returncode == 0, r.stderr
            if fmt == "csv":
                snaps[fmt] = csv_columns(read_csv_lines(rundir / "snap_0.01.csv"))
                lines = read_csv_lines(out)
                fluid[fmt] = (csv_columns(lines),
                              {k: float(v) for k, v in csv_footer(lines).items()})
            else:
                snaps[fmt] = json_columns(json.loads((rundir / "snap_0.01.json").read_text()))
                doc = json.loads(out.read_text())
                fluid[fmt] = (json_columns(doc), doc["diagnostics"])
        assert snaps["csv"] == snaps["json"]
        cols_csv, foot_csv = fluid["csv"]
        cols_json, foot_json = fluid["json"]
        assert foot_csv == foot_json
        for name in ("x", "rho", "S", "Q"):
            assert cols_csv[name] == cols_json[name], name

    @pytest.mark.parametrize("fault", ["null-cell", "null-x", "list-document"])
    def test_malformed_json_snapshot_is_input_error(self, tmp_path, fault):
        rows = [{"x": float(x), "re_psi": 1.0, "im_psi": 0.0} for x in range(16)]
        snaps = [tmp_path / f"snap_{t}.json" for t in ("0", "0.01", "0.02")]
        for path in snaps:
            path.write_text(json.dumps({"rows": rows}))
        if fault.startswith("null-"):
            key = "x" if fault == "null-x" else "re_psi"
            bad = {"rows": rows[:3] + [dict(rows[3], **{key: None})] + rows[4:]}
        else:
            bad = rows
        snaps[1].write_text(json.dumps(bad))
        r = run("madelung", "--out", tmp_path / "fluid.json", "--snapshots", *snaps)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith(f"rqbm: input error: snapshot {snaps[1]} is malformed: ")

    def test_inconsistent_snapshot_times_rejected(self, tmp_path):
        rundir = tmp_path / "run"
        assert run("evolve", "--out", rundir, "--dt", "0.01", "--steps", "4",
                   "--snapshot-stride", "2").returncode == 0
        r = run("madelung", "--out", tmp_path / "fluid.csv",
                "--snapshots", rundir / "snap_0.csv", rundir / "snap_0.02.csv",
                rundir / "snap_0.02.csv")
        assert r.returncode == 2


class TestSpectrumCommand:
    def test_harmonic_levels_csv(self, tmp_path):
        out = tmp_path / "levels.csv"
        r = run("spectrum", "--potential", "harmonic", "--omega0", "0.5",
                "--out", out, "--n", "256", "--length", "40", "--levels", "4",
                "--richardson")
        assert r.returncode == 0, r.stderr
        lines = read_csv_lines(out)
        assert lines[0] == "n,epsilon,E,E_series,rel_gap"
        assert len(lines) == 5
        eps = np.array([float(l.split(",")[1]) for l in lines[1:]])
        np.testing.assert_allclose(eps, [0.25, 0.75, 1.25, 1.75], rtol=1e-5)
        e = np.array([float(l.split(",")[2]) for l in lines[1:]])
        np.testing.assert_allclose(e, np.sqrt(1.0 + 2.0 * eps), rtol=1e-12)

    def test_missing_potential_parameter(self, tmp_path):
        r = run("spectrum", "--potential", "harmonic", "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "--omega0" in r.stderr

    @pytest.mark.parametrize("command", ["spectrum", "evolve"])
    @pytest.mark.parametrize("omega0", ["1e200", "1e152"])
    def test_overflowing_harmonic_potential_is_input_error(self, tmp_path, command, omega0):
        # 1e200 overflows omega0**2, 1e152 only its product with x^2 near the walls
        r = run(command, "--potential", "harmonic", "--omega0", omega0, "--n", "256",
                "--length", "1e6", "--out", tmp_path / "out")
        assert r.returncode == 2
        assert r.stderr == (f"rqbm: input error: omega0 = {float(omega0)!r} overflows the "
                            "harmonic potential omega0^2 x^2 / 2 on this grid\n")

    def test_closed_form_levels_need_no_scipy(self, tmp_path):
        # a None entry in sys.modules makes every `import scipy...` fail; no
        # spectrum needs scipy, also where the tridiagonal eigensolver runs
        table = tmp_path / "u.txt"
        np.savetxt(table, 0.02 * np.linspace(-20, 20, 256) ** 2 + 0.1)
        runs = [
            ["--potential", "box", "--width", "10", "--n", "4096", "--levels", "8"],
            ["--potential", "box", "--width", "10", "--n", "4096", "--levels", "8",
             "--richardson"],
            ["--potential", "free", "--n", "256", "--levels", "8"],
            ["--potential", "harmonic", "--omega0", "0.5", "--n", "256", "--length", "40"],
            ["--potential", "harmonic", "--omega0", "0.5", "--n", "256", "--length", "40",
             "--richardson"],
            ["--potential", "tabulated", "--potential-file", str(table), "--n", "256",
             "--length", "40"],
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from rqbm import cli\n"
            f"for j, argv in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + f'/levels{{j}}.csv'\n"
            "    print(cli.main(['spectrum', *argv, '--out', out]))\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.stdout.split() == ["0"] * len(runs), r.stderr
        # the block works: importing scipy fails in that process
        r = subprocess.run([sys.executable, "-c", "import sys; sys.modules['scipy'] = None; "
                            "import scipy.linalg"], capture_output=True, text=True)
        assert "ModuleNotFoundError" in r.stderr

    def test_extreme_scales_exit_cleanly(self, tmp_path):
        # 1/h^2 is 4e283, beyond what stebz could square; the solver scales T first
        # (E_series = 1 + eps - eps^2/2 overflows to -inf from the lowest level,
        # and the run names that level once)
        out = tmp_path / "levels.csv"
        r = run("spectrum", "--potential", "harmonic", "--omega0", "1e150", "--n", "64",
                "--length", "1e-140", "--out", out)
        assert r.returncode == 0, r.stderr
        eps = np.array(csv_columns(read_csv_lines(out))["epsilon"])
        assert r.stderr.splitlines() == [
            f"rqbm: warning: E_series overflows from level 0 (epsilon = {float(eps[0])!r}); "
            "written as -inf"]
        g = Grid1D(64, 1e-140)
        diag = 1.0 / g.dx**2 + 0.5e300 * g.x**2
        off = np.full(63, -0.5 / g.dx**2)
        norm = np.max(np.abs(diag)) + 2 * abs(off[0])
        s = 2.0 ** -np.frexp(norm)[1]
        ref = eigh_tridiagonal(diag * s, off * s, select="i", select_range=(0, 7),
                               eigvals_only=True) / s
        assert np.max(np.abs(eps - ref)) <= np.finfo(float).eps * norm


USAGE = "usage: rqbm [-h] [--version] {dispersion,evolve,madelung,spectrum} ...\n"


def subcommand_help(capsys, command):
    """What `rqbm <command> --help` prints, from this process's parser."""
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    return capsys.readouterr().out


class TestTopLevel:
    def test_version_flag(self):
        r = run("--version")
        assert r.returncode == 0
        assert r.stdout.strip().startswith("rqbm ")

    @pytest.mark.parametrize("argv", [
        ["--version"], ["--help"], ["dispersion", "--help"], ["--no-such-flag"],
    ], ids=["version", "help", "dispersion-help", "usage-error"])
    def test_front_end_exits_without_numpy(self, capsys, monkeypatch, argv):
        # a None entry in sys.modules makes every `import numpy` fail
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "sys.argv[0] = 'rqbm'\n"
                "from rqbm.__main__ import run\n"
                "run()\n")
        r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                           text=True, env=buffered_env())
        monkeypatch.setenv("COLUMNS", "80")
        if argv == ["--version"]:
            want = (0, "rqbm 0.1.0\n", "")
        elif argv == ["--help"]:
            want = (0, cli.build_parser().format_help(), "")
        elif argv == ["dispersion", "--help"]:
            want = (0, subcommand_help(capsys, "dispersion"), "")
            assert want[1].startswith("usage: rqbm dispersion [-h]")
        else:
            want = (2, "", USAGE + "rqbm: error: the following arguments are required: command\n")
        assert (r.returncode, r.stdout, r.stderr) == want

    def test_cli_import_leaves_scipy_unloaded(self):
        r = subprocess.run(
            [sys.executable, "-c", "import sys, rqbm.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_cli_import_leaves_the_eigensolver_unloaded(self):
        # only a nonzero-potential spectrum imports it, so no other process compiles it
        r = subprocess.run(
            [sys.executable, "-c", "import sys, rqbm.cli; print('rqbm._tridiagonal' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_cli_import_leaves_yaml_unloaded(self):
        r = subprocess.run(
            [sys.executable, "-c", "import sys, rqbm.cli; print('yaml' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"


def computing_fails(*args, **kwargs):
    raise AssertionError("the run computed before checking --out")


class TestOutputPath:
    """An --out the run cannot write to is an input error (exit 2), found
    before anything is computed, in a message that names the user's path."""

    @pytest.mark.parametrize("argv,compute", [
        (["dispersion", "--model", "collisional", "--gamma", "1"], "track_branches"),
        (["spectrum", "--potential", "harmonic", "--omega0", "0.01"], "nonrel_eigen"),
        (["madelung"], "_window"),
    ], ids=["dispersion", "spectrum", "madelung"])
    def test_missing_output_directory(self, tmp_path, capsys, monkeypatch, argv, compute):
        if argv == ["madelung"]:
            evolve_in_process(tmp_path / "run", "--steps", 2, *STRIDE_1)
            argv = argv + ["--snapshots", *(str(tmp_path / "run" / cli._snap_name(t, "csv"))
                                            for t in (0, 0.05, 0.1))]
        monkeypatch.setattr(cli, compute, computing_fails)
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"rqbm: input error: --out {out}: directory "
                                           f"{out.parent} does not exist\n")
        assert not (tmp_path / "missing").exists()

    def test_output_file_that_is_a_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "track_branches", computing_fails)
        argv = ["dispersion", "--model", "conservative", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"rqbm: input error: --out {tmp_path} is a directory\n"

    def test_evolve_output_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "evolve_field", computing_fails)
        out = tmp_path / "run"
        out.write_text("kept")
        assert cli.main(["evolve", "--out", str(out), *STRIDE_1]) == 2
        assert capsys.readouterr().err == (f"rqbm: input error: --out {out} is a file; "
                                           "evolve writes a directory\n")
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("argv,message", [
        (["--density"], "--density needs a dissipative model"),
        (["--model", "collisional", "--gamma", "1"], "use --density"),
        (["--init", "plane-wave"], "--init plane-wave requires --mode-k"),
        (["--method", "stepper", "--dt", "0.2"], "stepper needs dt <"),
    ], ids=["density-conservative", "field-dissipative", "plane-wave-no-mode", "stepper-dt"])
    def test_evolve_input_error_makes_no_directory(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run"
        assert cli.main(["evolve", "--out", str(out), *argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        # an existing directory is kept as it was
        out.mkdir()
        (out / "kept.txt").write_text("kept")
        assert cli.main(["evolve", "--out", str(out), *argv]) == 2
        assert [p.name for p in out.iterdir()] == ["kept.txt"]


def buffered_env(**extra):
    """This environment with Python's stdout block-buffered, as it is by default
    when not a terminal, so that output left unflushed at exit would be lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "COLUMNS": "80", **extra}


class TestProcessEntry:
    """`python -m rqbm` runs `cli.main` and then ends through `os._exit`."""

    def run_to_file(self, tmp_path, *argv, **env_extra):
        out = tmp_path / "stdout.txt"
        with open(out, "w") as f:
            r = subprocess.run([sys.executable, "-m", "rqbm", *map(str, argv)], stdout=f,
                               stderr=subprocess.PIPE, text=True, env=buffered_env(**env_extra))
        return r, out.read_text()

    def test_help_and_version_reach_a_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        r, text = self.run_to_file(tmp_path, "--help")
        assert (r.returncode, r.stderr) == (0, "")
        assert text == cli.build_parser().format_help()
        r, text = self.run_to_file(tmp_path, "--version")
        assert (r.returncode, r.stderr, text) == (0, "", "rqbm 0.1.0\n")

    def test_run_log_keeps_its_last_line(self, tmp_path):
        out = tmp_path / "box.csv"
        r, _ = self.run_to_file(tmp_path, "spectrum", "--potential", "box", "--width", "10",
                                "--n", "4096", "--levels", "8", "--out", out, RQBM_LOG="INFO")
        assert r.returncode == 0
        assert r.stderr.endswith(f"INFO rqbm.cli: wrote 8 levels to {out}\n")

    def run_both(self, argv, **kwargs):
        """`python -m rqbm argv`, and the same through `cli.main` and a normal exit."""
        normal = "import sys; from rqbm import cli; sys.exit(cli.main(sys.argv[1:]))"
        return [subprocess.run(head + argv, text=True, env=buffered_env(), **kwargs)
                for head in ([sys.executable, "-m", "rqbm"], [sys.executable, "-c", normal])]

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0),
        (["--no-such-flag"], 2),
        (["dispersion", "--out", "x.csv"], 2),
        (["evolve", "--out", "run", "--model", "radiative", "--tau", "100", "--density",
          "--k", "0.1", "--dt", "1.0", "--steps", "400", "--snapshot-stride", "400"], 3),
    ])
    def test_exit_codes_match_a_normal_exit(self, tmp_path, argv, code):
        entry, normal = self.run_both(argv, cwd=tmp_path, capture_output=True)
        assert entry.returncode == code
        assert (entry.returncode, entry.stdout, entry.stderr) == \
            (normal.returncode, normal.stdout, normal.stderr)

    def test_run_skips_interpreter_teardown(self):
        code = ("import atexit, sys\n"
                "atexit.register(print, 'atexit ran')\n"
                "sys.argv = ['rqbm', '--version']\n"
                "from rqbm.__main__ import run\n"
                "run()\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=buffered_env())
        assert (r.returncode, r.stdout, r.stderr) == (0, "rqbm 0.1.0\n", "")

    def test_closed_stdout_takes_the_normal_exit(self):
        # the flush fails, so run() returns and the interpreter reports it on exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            entry, normal = self.run_both(["--help"], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert entry.returncode != 0 and "BrokenPipeError" in entry.stderr
        assert (entry.returncode, entry.stderr) == (normal.returncode, normal.stderr)

    def test_importing_runs_nothing(self, tmp_path):
        code = ("import gc, sys\n"
                "import rqbm.__main__\n"
                "loaded = 'rqbm.cli' in sys.modules or 'rqbm._options' in sys.modules\n"
                "import rqbm.cli\n"
                "print(loaded, gc.isenabled(), gc.get_freeze_count())\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (r.returncode, r.stdout, r.stderr) == (0, "False True 0\n", "")
        # the process runs with the cyclic GC off and nothing frozen; a
        # library call of cli.main leaves the GC as the caller set it
        argv = ["dispersion", "--model", "conservative", "--k-steps", "2", "--out", "x.csv"]
        entry = ("import gc, sys\n"
                 "import rqbm.dispersion as d\n"
                 "track = d.track_branches\n"
                 "def traced(*args):\n"
                 "    print('rqbm.cli' in sys.modules, gc.isenabled(), gc.get_freeze_count())\n"
                 "    return track(*args)\n"
                 "d.track_branches = traced\n"
                 "sys.argv[0] = 'rqbm'\n"
                 "from rqbm.__main__ import run\n"
                 "run()\n")
        library = ("import gc, sys\n"
                   "from rqbm import cli\n"
                   "assert cli.main(sys.argv[1:]) == 0\n"
                   "print(gc.isenabled(), gc.get_freeze_count())\n")
        got = [subprocess.run([sys.executable, "-c", c, *argv], capture_output=True, text=True,
                              cwd=tmp_path, env=buffered_env())
               for c in (entry, library)]
        assert [(r.returncode, r.stdout, r.stderr) for r in got] == [
            (0, "True False 0\n", ""), (0, "True 0\n", "")]


def env_with_blas_threads(threads):
    """This environment with OPENBLAS_NUM_THREADS set to `threads`, or unset
    for None (importing rqbm.cli above has set it in this process)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
class TestBlasThreads:
    def run_code(self, code, threads):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env_with_blas_threads(threads))
        assert r.returncode == 0, r.stderr
        return r.stdout.split()

    def spectrum_code(self, tmp_path):
        # the harmonic levels run the tridiagonal eigensolver, which needs no scipy
        argv = ["spectrum", "--potential", "harmonic", "--omega0", "1", "--n", "256",
                "--out", str(tmp_path / "levels.csv")]
        return (
            "import os, sys\n"
            "from rqbm import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'scipy' not in sys.modules\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
        )

    def test_cli_process_runs_one_thread(self, tmp_path):
        assert self.run_code(self.spectrum_code(tmp_path), None) == ["1", "1"]

    def test_user_setting_is_kept(self, tmp_path):
        assert self.run_code(self.spectrum_code(tmp_path), "2")[1] == "2"

    def test_compute_modules_leave_the_environment_alone(self):
        code = (
            "import os\n"
            "before = dict(os.environ)\n"
            "import rqbm.dispersion, rqbm.evolve, rqbm.grid, rqbm.madelung, rqbm.spectrum\n"
            "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
        )
        assert self.run_code(code, None) == ["True", "False"]


def test_blas_thread_count_does_not_move_bytes(tmp_path):
    runs = [
        ["dispersion", "--model", "collisional", "--gamma", "1", "--k-steps", "200",
         "--out", "sweep.csv"],
        ["evolve", "--density", "--model", "collisional", "--gamma", "1", "--k", "0.3",
         "--out", "density"],
        ["spectrum", "--potential", "harmonic", "--omega0", "1", "--n", "2048",
         "--out", "levels.csv"],
    ]
    trees = []
    for threads in (None, "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        for argv in runs:
            r = subprocess.run([sys.executable, "-m", "rqbm", *argv], cwd=out,
                               capture_output=True, text=True,
                               env=env_with_blas_threads(threads))
            assert r.returncode == 0, r.stderr
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) >= 3
    assert trees[0] == trees[1]


DISPERSION_CONFIG = "model: collisional\ngamma: 1.0\n"
CONFIG_ERRORS = [
    ("dispersion", DISPERSION_CONFIG + "k-steps: true\n",
     "--k-steps expects an integer, got True"),
    ("evolve", 'n: "+-64"\n', "--n expects an integer, got '+-64'"),
    ("evolve", 'n: "\\u00b2"\n', "--n expects an integer, got '\u00b2'"),
    ("dispersion", DISPERSION_CONFIG + "k-min: small\n",
     "--k-min expects a number, got 'small'"),
    ("dispersion", DISPERSION_CONFIG + "k-scale: cubic\n",
     "--k-scale must be one of log, linear; got 'cubic'"),
    ("dispersion", "model: null\n", "missing required option --model"),
    ("evolve", "dt: -1\n", "--dt must be positive, got -1.0"),
    ("dispersion", DISPERSION_CONFIG + "k-min: null\n", "--k-min expects a value, got null"),
    ("dispersion", DISPERSION_CONFIG + "format: null\n", "--format expects a value, got null"),
    ("evolve", 'density: "no"\n', "--density expects true or false, got 'no'"),
    ("spectrum", 'potential: box\nrichardson: "yes"\n',
     "--richardson expects true or false, got 'yes'"),
    ("dispersion", "model: 5\n", "--model expects a string, got 5"),
    ("dispersion", "model: [collisional]\n", "--model expects a string, got ['collisional']"),
    ("spectrum", "potential: tabulated\npotential-file: 5\n",
     "--potential-file expects a string, got 5"),
]


COERCE_ERRORS = [
    ("n", int, 256, None, "--n expects a value, got null"),
    ("density", _options.SWITCH, False, "no", "--density expects true or false, got 'no'"),
    ("density", _options.SWITCH, False, 1, "--density expects true or false, got 1"),
    ("n", int, 256, True, "--n expects an integer, got True"),
    ("n", int, 256, "+-64", "--n expects an integer, got '+-64'"),
    ("n", int, 256, 1.5, "--n expects an integer, got 1.5"),
    ("n", int, 256, "64.0", "--n expects an integer, got '64.0'"),
    ("format", ("csv", "json"), "csv", "xml", "--format must be one of csv, json; got 'xml'"),
    ("snapshots", _options.PATHS, _options.REQUIRED, ["a", "b"],
     "--snapshots takes exactly three paths"),
    ("k-min", float, 0.01, "small", "--k-min expects a number, got 'small'"),
    ("k-min", float, 0.01, [1.0], "--k-min expects a number, got [1.0]"),
    ("dt", _options.POSITIVE, 0.01, -1, "--dt must be positive, got -1.0"),
    ("dt", _options.POSITIVE, 0.01, 0, "--dt must be positive, got 0.0"),
    ("dt", _options.POSITIVE, 0.01, "inf", "--dt must be positive, got inf"),
    ("dt", _options.POSITIVE, 0.01, "nan", "--dt must be positive, got nan"),
    ("out", str, _options.REQUIRED, 5, "--out expects a string, got 5"),
    ("out", str, _options.REQUIRED, ["a"], "--out expects a string, got ['a']"),
    ("potential-file", str, None, 5.0, "--potential-file expects a string, got 5.0"),
]


class TestOptionTables:
    @pytest.mark.parametrize("name,kind,default,val,message", COERCE_ERRORS)
    def test_coerce_messages(self, name, kind, default, val, message):
        with pytest.raises(InputError) as exc:
            _options._coerce(name, kind, default, val)
        assert str(exc.value) == message

    def test_numpy_values_coerce_without_numpy_checks(self):
        n = _options._coerce("n", int, 256, np.int64(5))
        assert (n, type(n)) == (5, int)
        assert _options._coerce("dt", _options.POSITIVE, 0.01, np.float64(0.5)) == 0.5
        for val in (np.bool_(True), np.float64(2.0)):
            with pytest.raises(InputError, match="^--n expects an integer, got "):
                _options._coerce("n", int, 256, val)

    @pytest.mark.parametrize("command,config,message", CONFIG_ERRORS)
    def test_bad_config_value_is_input_error(self, tmp_path, command, config, message):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(config)
        r = run(command, "--config", cfgfile, "--out", tmp_path / "out")
        assert r.returncode == 2
        assert f"input error: {message}" in r.stderr

    @pytest.mark.parametrize("out,shown", [("5", "5"), ("[a]", "['a']")])
    def test_out_from_config_must_be_a_string(self, tmp_path, out, shown):
        # the table above passes --out, which overrides the config's value
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(f"model: conservative\nout: {out}\n")
        r = run("dispersion", "--config", cfgfile)
        assert (r.returncode, r.stderr) == (2, f"rqbm: input error: --out expects a string, "
                                               f"got {shown}\n")

    def test_option_the_run_ignores_is_still_checked(self, tmp_path):
        r = run("evolve", "--out", tmp_path / "run", "--omega0", "-1", "--potential", "none")
        assert r.returncode == 2
        assert "--omega0 must be positive" in r.stderr

    @pytest.mark.parametrize("argv,message", [
        (["dispersion", "--model", "radiative", "--tau", "1", "--k-max", "1e100"],
         "overflows the radiative dispersion polynomial"),
        (["dispersion", "--model", "phase-diffusion", "--diffusion", "1e300",
          "--k-min", "1e10", "--k-max", "1e11"],
         "k = 10000000000.0 overflows the phase-diffusion dispersion polynomial"),
        (["evolve", "--density", "--model", "collisional", "--gamma", "1", "--k", "1e200"],
         "k = 1e+200 overflows the collisional dispersion polynomial"),
        (["spectrum", "--potential", "box", "--width", "1e-160"],
         "mesh spacing 9.75609756097561e-164 is too fine: its square underflows to 0"),
        (["spectrum", "--potential", "harmonic", "--omega0", "1", "--length", "1e-300"],
         "mesh spacing 9.765625e-304 is too fine: its square underflows to 0"),
        (["spectrum", "--potential", "harmonic", "--omega0", "1", "--n", "64",
          "--length", "1e-155"],
         "mesh spacing 1.5625e-157 is too fine: 1/h^2 overflows"),
        # 4 k^2 overflows from 6.7e153 (those roots are found) and 2 k^2, which
        # the certificates sum, from 9.5e153
        (["dispersion", "--model", "conservative", "--k-min", "1e153", "--k-max", "1.3e154",
          "--k-steps", "5"],
         "k = 1.3e+154 overflows the conservative dispersion polynomial"),
    ], ids=["k4-overflow", "diffusion-overflow", "density-k", "box-width", "harmonic-length",
            "harmonic-inverse-square", "conservative-sweep"])
    def test_value_beyond_the_float_range_is_input_error(self, tmp_path, argv, message):
        r = run(*argv, "--out", tmp_path / "out")
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("rqbm: input error: ") and message in r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr

    @pytest.mark.parametrize("command", ["dispersion", "evolve", "madelung", "spectrum"])
    def test_help_flags_are_the_config_keys(self, tmp_path, command):
        shown = run(command, "--help")
        assert shown.returncode == 0, shown.stderr
        flags = set(re.findall(r"--([a-z][a-z0-9-]*)", shown.stdout)) - {"help"}
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text("no-such-key: 1\n")
        r = run(command, "--config", cfgfile, "--out", tmp_path / "out")
        assert r.returncode == 2
        assert flags == set(r.stderr.split("valid keys: ")[1].strip().split(", "))
        # every option shows its default, or that it is required
        text = " ".join(shown.stdout.split())
        assert text.count("(default: ") + text.count("(required)") == len(flags)


def expected_csv(header, columns, footer):
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return "%.17g" % float(v)

    lines = [",".join(header)]
    lines += [",".join(cell(col[i]) for col in columns) for i in range(len(columns[0]))]
    lines += [f"# {k} = {cell(v)}" for k, v in footer.items()]
    return "\n".join(lines) + "\n"


def expected_json(header, columns, footer):
    def value(v):
        if isinstance(v, np.integer):
            return int(v)
        return None if isinstance(v, float) and math.isnan(v) else v

    rows = [{h: value(col[i]) for h, col in zip(header, columns)}
            for i in range(len(columns[0]))]
    doc = {"rows": rows}
    if footer:
        doc["diagnostics"] = {k: value(v) for k, v in footer.items()}
    return json.dumps(doc, indent=2) + "\n"


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-17]
FINITE = [-0.0, 5e-324, 1e300, 0.1, -2.5e-17, 1.0, 2.2250738585072014e-308, 1 / 3]
WRITER_HEADER = ["x", "finite", "mixed", "rel%s", "label", "n"]
WRITER_COLUMNS = [
    np.array(SPECIALS),
    np.array(FINITE),
    [None, 1.5, math.nan, 7, -0.0, math.inf, np.float64(1e300), None],
    np.array(SPECIALS[::-1]) * 3.0,
    ["a", "", 'say "hi"', "\u00e9", "b", "c", "d", "e"],
    list(range(8)),
]
WRITER_FOOTER = {"t": 0.25, "bad": math.nan, "count": 3, "note": "ok", "huge": -math.inf}
B = cli._ROWS


def block_table(n):
    """A table of n rows whose cells cycle through specials of every kind."""
    def cycle(cells):
        return [cells[i % len(cells)] for i in range(n)]

    return WRITER_HEADER + ["i64"], [
        np.resize(np.array(SPECIALS), n),
        np.resize(np.array(FINITE), n) * np.arange(1, n + 1),
        cycle(WRITER_COLUMNS[2]),
        -np.resize(np.array(SPECIALS), n)[::-1],
        cycle(WRITER_COLUMNS[4] + [None]),
        cycle(list(range(-4, 5))),
        np.arange(n, dtype=np.int64) - 2**62,
    ]


def record_writes(monkeypatch) -> list:
    """The text of every write call to a file `_write_table` opens."""
    writes, fdopen = [], os.fdopen

    class Recorder:
        def __init__(self, f):
            self.f = f

        def write(self, text):
            writes.append(text)
            return self.f.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

    monkeypatch.setattr(cli.os, "fdopen", lambda *args, **kwargs: Recorder(fdopen(*args, **kwargs)))
    return writes


class TestWriterByteContract:
    @pytest.mark.parametrize("footer", [None, WRITER_FOOTER])
    def test_csv_bytes(self, tmp_path, footer):
        columns = WRITER_COLUMNS + [np.arange(8, dtype=np.int64)]
        header = WRITER_HEADER + ["i64"]
        path = tmp_path / "t.csv"
        _write_table(str(path), "csv", header, columns, footer=footer)
        assert path.read_text() == expected_csv(header, columns, footer or {})

    @pytest.mark.parametrize("footer", [None, WRITER_FOOTER])
    def test_json_bytes(self, tmp_path, footer):
        path = tmp_path / "t.json"
        _write_table(str(path), "json", WRITER_HEADER, WRITER_COLUMNS, footer=footer)
        assert path.read_text() == expected_json(WRITER_HEADER, WRITER_COLUMNS, footer)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("footer", [None, {"N": math.nan}])
    def test_empty_table(self, tmp_path, fmt, footer):
        header = ["x", "y"]
        columns = [np.array([]), []]
        path = tmp_path / f"t.{fmt}"
        _write_table(str(path), fmt, header, columns, footer=footer)
        expect = expected_csv if fmt == "csv" else expected_json
        assert path.read_text() == expect(header, columns, footer or {})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("footer", [None, WRITER_FOOTER])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 1])
    def test_block_boundaries(self, tmp_path, fmt, footer, n):
        header, columns = block_table(n)
        path = tmp_path / f"t.{fmt}"
        _write_table(str(path), fmt, header, columns, footer=footer)
        expect = expected_csv if fmt == "csv" else expected_json
        assert path.read_text() == expect(header, columns, footer or {})

    @pytest.mark.parametrize("fmt,row", [("csv", "\n"), ("json", "    {\n")])
    def test_no_write_holds_more_than_one_block(self, tmp_path, monkeypatch, fmt, row):
        writes = record_writes(monkeypatch)
        header, columns = block_table(10_000)
        path = tmp_path / f"t.{fmt}"
        _write_table(str(path), fmt, header, columns, footer=WRITER_FOOTER)
        assert "".join(writes) == path.read_text()
        assert max(w.count(row) for w in writes) == B

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("short", [0, 1])
    def test_unequal_columns_rejected(self, tmp_path, fmt, short):
        columns = [np.zeros(3 * B), [1.0] * (3 * B)]
        columns[short] = columns[short][:-1]
        with pytest.raises(ValueError):
            _write_table(str(tmp_path / f"t.{fmt}"), fmt, ["a", "b"], columns)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt,row", [("csv", "\n"), ("json", "    {\n")])
    def test_failed_cell_leaves_the_old_file(self, tmp_path, monkeypatch, fmt, row):
        writes = record_writes(monkeypatch)
        path = tmp_path / f"t.{fmt}"
        path.write_text("old")
        cells = [1.0] * (2 * B)
        cells[B + 5] = object()  # no cell format takes it
        with pytest.raises(TypeError):
            _write_table(str(path), fmt, ["x", "y"], [np.zeros(2 * B), cells])
        assert sum(w.count(row) for w in writes) >= B  # the first block was written
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_text() == "old"
