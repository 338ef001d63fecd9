import ctypes
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gradetwo import cli, meshes

SOLVE_CFG = """
[problem]
mesh = {mesh}
nu = 1.0
alpha = 0.1
variant = P_II

[data]
f_x = 0.2*sin(pi*y)
f_y = 0
g_x = 1
g_y = 0
h = sin(pi*y)
curl_f = -0.2*pi*cos(pi*y)

[output]
dir = {out}
"""

ZERO_CFG = """
[problem]
mesh = {mesh}
nu = 1.0
alpha = 0.3

[output]
dir = {out}
"""


@pytest.fixture()
def square_mesh_file(tmp_path):
    path = tmp_path / "square.m2d"
    meshes.save_mesh(meshes.unit_square_mesh(12), str(path))
    return str(path)


def write_cfg(tmp_path, text, name="run.cfg", **kw):
    path = tmp_path / name
    path.write_text(text.format(**kw))
    return str(path)


def read_minimal_vtk(path):
    """Structural check of a legacy VTK file; returns parsed sections."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    i = 4
    assert lines[i].startswith("POINTS")
    npts = int(lines[i].split()[1])
    points = [tuple(float(v) for v in lines[i + 1 + k].split())
              for k in range(npts)]
    i += 1 + npts
    assert lines[i].startswith("CELLS")
    ncells = int(lines[i].split()[1])
    cells = []
    for k in range(ncells):
        parts = [int(v) for v in lines[i + 1 + k].split()]
        assert parts[0] == 3 and len(parts) == 4
        assert all(0 <= v < npts for v in parts[1:])
        cells.append(tuple(parts[1:]))
    i += 1 + ncells
    assert lines[i].startswith("CELL_TYPES")
    assert all(lines[i + 1 + k] == "5" for k in range(ncells))
    i += 1 + ncells
    data = {}
    while i < len(lines):
        if lines[i].startswith(("POINT_DATA", "CELL_DATA", "LOOKUP_TABLE")):
            i += 1
            continue
        if lines[i].startswith("VECTORS"):
            name = lines[i].split()[1]
            vals = [tuple(float(v) for v in lines[i + 1 + k].split())
                    for k in range(npts)]
            data[name] = vals
            i += 1 + npts
            continue
        if lines[i].startswith("SCALARS"):
            name = lines[i].split()[1]
            count = npts if name == "pressure" else ncells
            vals = [float(lines[i + 2 + k]) for k in range(count)]
            data[name] = vals
            i += 2 + count
            continue
        raise AssertionError(f"unexpected VTK line: {lines[i]!r}")
    for vals in data.values():
        arr = np.asarray(vals, dtype=float)
        assert np.all(np.isfinite(arr))
    return points, cells, data


def test_solve_zero_data(tmp_path, square_mesh_file):
    cfg = write_cfg(tmp_path, ZERO_CFG, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 0
    _, _, data = read_minimal_vtk(str(tmp_path / "out" / "fields.vtk"))
    assert max(abs(v) for vec in data["velocity"] for v in vec) == 0.0
    assert max(abs(v) for v in data["pressure"]) == 0.0
    assert max(abs(v) for v in data["vorticity"]) == 0.0


def test_solve_trig_like_case(tmp_path, square_mesh_file, capsys):
    cfg = write_cfg(tmp_path, SOLVE_CFG, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 0
    iters_csv = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert iters_csv[0].startswith("# gradetwo-csv v1 iterations")
    assert iters_csv[1].split(",")[0] == "iter"
    diag = dict(
        line.split(",", 1)
        for line in (tmp_path / "out" / "diagnostics.csv").read_text()
        .splitlines()[2:])
    n_iter = int(diag["iterations"])
    assert len(iters_csv) - 2 == n_iter
    assert diag["stopping_reason"] == "converged"
    assert float(diag["beta"]) == pytest.approx(1.0)
    read_minimal_vtk(str(tmp_path / "out" / "fields.vtk"))


def test_diagnostics_keys(tmp_path, square_mesh_file):
    cfg = write_cfg(tmp_path, SOLVE_CFG, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert lines[1] == "key,value"
    assert [line.split(",", 1)[0] for line in lines[2:]] == [
        "u_l2", "u_h1", "u_linf_dof", "p_l2", "z_l2", "z_h1_broken",
        "energy_viscous", "energy_forcing", "energy_balance_gap",
        "div_weak_l2", "div_broken_l2", "sign_interior_jumps",
        "sign_outflow", "sign_inflow", "sign_central_flux", "sign_total",
        "green_residual", "beta", "degenerate_points", "junctions",
        "iterations", "stopping_reason"]


def test_solve_reproducible_bytes(tmp_path, square_mesh_file):
    cfg = write_cfg(tmp_path, SOLVE_CFG, mesh=square_mesh_file,
                    out=str(tmp_path / "out1"))
    assert cli.main(["solve", "--config", cfg]) == 0
    assert cli.main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out2")]) == 0
    for name in ("fields.vtk", "iterations.csv", "diagnostics.csv"):
        b1 = (tmp_path / "out1" / name).read_bytes()
        b2 = (tmp_path / "out2" / name).read_bytes()
        assert b1 == b2, name


def test_solve_flux_incompatible_exit1(tmp_path, square_mesh_file, capsys):
    text = ZERO_CFG.replace("[output]", "[data]\ng_x = x\ng_y = y\n\n[output]")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "net flux" in err and "divergence-free" in err


def test_solve_not_converged_exit2(tmp_path, square_mesh_file, capsys):
    text = """
[problem]
mesh = {mesh}
nu = 0.2
alpha = 20.0

[data]
f_x = 0.5*sin(pi*y)
f_y = 0.5*cos(pi*x)

[solver]
max_iter = 30

[output]
dir = {out}
"""
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 2
    # the partial iteration history is still exported
    assert (tmp_path / "out" / "iterations.csv").exists()


def test_missing_mesh_exit1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_CFG, mesh="nowhere.m2d",
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 1
    assert "mesh file not found" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ("g_x = x + * y", "offset 4"),
    # x = 0 is a velocity node, where f is interpolated for its curl
    ("f_x = 1/x", "error: [data] f (x component): division by zero"),
    # the left edge is the inflow part of g = (1, 0)
    ("g_x = 1\nh = sqrt(x-2)", "error: [data] h: sqrt of negative number"),
], ids=["syntax", "division_by_zero", "negative_sqrt"])
def test_bad_expression_exit1(tmp_path, square_mesh_file, capsys, data,
                              message):
    text = ZERO_CFG.replace("[output]", f"[data]\n{data}\n\n[output]")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


def test_unknown_config_key_exit1(tmp_path, square_mesh_file, capsys):
    text = ZERO_CFG + "\n[solver]\nturbo = yes\n"
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 1
    assert "unknown key" in capsys.readouterr().err


MMS_CFG = """
[problem]
nu = 1.0
alpha = 0.1

[mms]
case = trig
levels = 4,8,16
mode = stokes

[output]
dir = {out}
"""


def test_mms_table_shape(tmp_path):
    cfg = write_cfg(tmp_path, MMS_CFG, out=str(tmp_path / "out"))
    assert cli.main(["mms", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0].startswith("# gradetwo-csv v1 convergence")
    kinds = [ln.split(",")[0] for ln in lines[2:]]
    assert kinds.count("level") == 3
    assert kinds.count("order") == 2


def test_mms_unknown_case_exit1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MMS_CFG.replace("case = trig", "case = nope"),
                    out=str(tmp_path / "out"))
    assert cli.main(["mms", "--config", cfg]) == 1
    assert "unknown manufactured case" in capsys.readouterr().err


def test_mms_reproducible_bytes(tmp_path):
    cfg = write_cfg(tmp_path, MMS_CFG, out=str(tmp_path / "o1"))
    assert cli.main(["mms", "--config", cfg]) == 0
    assert cli.main(["mms", "--config", cfg, "--out",
                     str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o1" / "convergence.csv").read_bytes() == \
        (tmp_path / "o2" / "convergence.csv").read_bytes()


CHECK_CFG = """
[problem]
mesh = {mesh}
nu = 1.0
alpha = {alpha}

[data]
g_x = {gx}
g_y = 0
"""


def test_check_boundary_uniform_flow(tmp_path, square_mesh_file, capsys):
    cfg = write_cfg(tmp_path, CHECK_CFG, mesh=square_mesh_file, alpha="1.0",
                    gx="1")
    assert cli.main(["check-boundary", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "markers [4]" in out
    assert "beta: 1.0" in out
    assert "flux[component 0] = " in out


def test_check_boundary_creates_no_output_dir(tmp_path, square_mesh_file,
                                             monkeypatch):
    # check-boundary writes no file, so the default [output] dir "out"
    # must not appear in the working directory
    cfg = write_cfg(tmp_path, CHECK_CFG, mesh=square_mesh_file, alpha="1.0",
                    gx="1")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check-boundary", "--config", cfg]) == 0
    assert not (tmp_path / "out").exists()


def test_check_boundary_alpha_zero_notice(tmp_path, square_mesh_file, capsys):
    cfg = write_cfg(tmp_path, CHECK_CFG, mesh=square_mesh_file, alpha="0.0",
                    gx="1")
    assert cli.main(["check-boundary", "--config", cfg]) == 0
    assert "gamma_minus: empty" in capsys.readouterr().out


def test_check_boundary_degenerate_warning(tmp_path, capsys):
    path = tmp_path / "m16.m2d"
    meshes.save_mesh(meshes.unit_square_mesh(16), str(path))
    cfg = write_cfg(tmp_path, CHECK_CFG, mesh=str(path), alpha="1.0",
                    gx="(y-0.5)^2")
    assert cli.main(["check-boundary", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "warning: g.n degenerates at vertices" in out
    assert "strictly inside" in out


# g.n = -(y - 1/2)^2 on the left edge vanishes at its midpoint, vertex 8
DEGENERATE_CFG = """
[problem]
mesh = {mesh}
alpha = 1.0
variant = P_II

[data]
g_x = (y-0.5)^2
g_y = 0
h = 1

[transport]
u_x = (y-0.5)^2
u_y = 0
rhs = 0
{solver}
[output]
dir = {out}
"""


@pytest.mark.parametrize("command", ["solve", "transport"])
def test_strict_degenerate_inflow_exit1(tmp_path, capsys, command):
    path = tmp_path / "m16.m2d"
    meshes.save_mesh(meshes.unit_square_mesh(16), str(path))
    cfg = write_cfg(tmp_path, DEGENERATE_CFG, mesh=str(path), solver="",
                    out=str(tmp_path / "out"))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "strictly inside" in err
    assert "vertices [8]" in err
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("command,output", [("solve", "diagnostics.csv"),
                                            ("transport", "transport.csv")])
def test_relaxed_degenerate_inflow_warns(tmp_path, command, output):
    path = tmp_path / "m16.m2d"
    meshes.save_mesh(meshes.unit_square_mesh(16), str(path))
    cfg = write_cfg(tmp_path, DEGENERATE_CFG, mesh=str(path),
                    solver="[solver]\nstrict = false\n",
                    out=str(tmp_path / "out"))
    with pytest.warns(UserWarning, match=r"strictly inside .* vertices \[8\]"):
        assert cli.main([command, "--config", cfg]) == 0
    assert (tmp_path / "out" / output).exists()


TRANSPORT_CFG = """
[problem]
mesh = {mesh}
nu = 1.0
alpha = 1.0
variant = P_II

[data]
h = sin(pi*y)

[transport]
u_x = 1
u_y = 0
rhs = 0

[output]
dir = {out}
"""


def test_transport_command_exponential_case(tmp_path, square_mesh_file):
    cfg = write_cfg(tmp_path, TRANSPORT_CFG, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["transport", "--config", cfg]) == 0
    rows = dict(
        line.split(",", 1)
        for line in (tmp_path / "out" / "transport.csv").read_text()
        .splitlines()[2:])
    # ||exp(-x) sin(pi y)||_L2 = sqrt((1 - e^-2)/4)
    exact = math.sqrt((1.0 - math.exp(-2.0)) / 4.0)
    assert float(rows["z_l2"]) == pytest.approx(exact, abs=5e-3)
    assert float(rows["sign_total"]) >= 0.0
    read_minimal_vtk(str(tmp_path / "out" / "transport.vtk"))



@pytest.mark.parametrize("command", ["solve", "transport"])
def test_nonfinite_alpha_exit1(tmp_path, square_mesh_file, capsys, command):
    if command == "solve":
        text = ZERO_CFG.replace("alpha = 0.3", "alpha = inf")
    else:
        text = TRANSPORT_CFG.replace("alpha = 1.0", "alpha = inf")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[problem] alpha" in err


@pytest.mark.parametrize("section,key,value", [
    ("problem", "alpha", "nan"),
    ("problem", "nu", "abc"),
    ("problem", "nu", "inf"),
    ("problem", "alpha", "-inf"),
    ("problem", "alpha", "fast"),
])
def test_bad_constant_names_key(tmp_path, square_mesh_file, capsys,
                                section, key, value):
    text = TRANSPORT_CFG.replace(f"{key} = 1.0", f"{key} = {value}")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["transport", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"[{section}] {key}" in err
    assert not (tmp_path / "out").exists()

@pytest.mark.parametrize("key,value", [
    ("eps_n", "nan"), ("fp_tol", "inf"), ("flux_tol", "inf"),
    ("div_tol", "nan"), ("div_tol", "0"), ("relaxation", "2"),
    ("max_iter", "0"), ("eps_n", "-1")])
def test_bad_solver_tolerance_names_key(tmp_path, square_mesh_file, capsys,
                                        key, value):
    cfg = write_cfg(tmp_path, SOLVE_CFG + f"\n[solver]\n{key} = {value}\n",
                    mesh=square_mesh_file, out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"[solver] {key}" in err


def test_unknown_variant_names_key(tmp_path, square_mesh_file, capsys):
    text = SOLVE_CFG.replace("variant = P_II", "variant = P_III")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [problem] variant must be P_I or P_II")
    assert not (tmp_path / "out").exists()


def test_mms_unknown_variant_exit1(tmp_path, capsys):
    text = MMS_CFG.replace("alpha = 0.1", "alpha = 0.1\nvariant = P_III")
    cfg = write_cfg(tmp_path, text, out=str(tmp_path / "out"))
    assert cli.main(["mms", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [problem] variant must be P_I or P_II")
    assert not (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize("command,key", [
    ("mms", "variant"), ("transport", "nu"), ("transport", "alpha")])
def test_mirrored_keys_unknown(tmp_path, square_mesh_file, capsys, command,
                               key):
    # [problem] holds nu, alpha and variant for every command
    if command == "mms":
        text = MMS_CFG.replace("mode = stokes", "mode = stokes\nvariant = P_I")
    else:
        text = TRANSPORT_CFG.replace("rhs = 0", f"rhs = 0\n{key} = 1.0")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"unknown key {key!r} in section [{command}]" in err


def test_mms_honours_solver_max_iter(tmp_path):
    text = MMS_CFG.replace("mode = stokes", "mode = coupled") + \
        "\n[solver]\nmax_iter = 1\n"
    cfg = write_cfg(tmp_path, text, out=str(tmp_path / "out"))
    # failed levels exit 2, as a solve that does not converge, and the
    # table is still written
    assert cli.main(["mms", "--config", cfg]) == 2
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    levels = [ln.split(",") for ln in lines[2:] if ln.startswith("level,")]
    assert [row[1] for row in levels] == ["4", "8", "16"]
    assert all(row[8] == "True" and row[9].startswith("NotConverged")
               for row in levels)


def test_mms_honours_solver_div_tol(tmp_path):
    # the P2 interpolant of poly's velocity is not discretely divergence
    # free: its weak divergence is above the default div_tol at every
    # level (1.0e-4 at n = 8) and below 1e-3
    text = MMS_CFG.replace("case = trig", "case = poly").replace(
        "mode = stokes", "mode = transport")
    for solver, expected in (("", 3), ("[solver]\ndiv_tol = 1e-3\n", 0)):
        cfg = write_cfg(tmp_path, text + solver, out=str(tmp_path / "out"))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.main(["mms", "--config", cfg]) == 0
        assert [issubclass(w.category, UserWarning) and "divergence" in
                str(w.message) for w in seen] == [True] * expected


def test_transport_alpha_zero_division(tmp_path, square_mesh_file):
    text = TRANSPORT_CFG.replace("rhs = 0", "rhs = 2").replace(
        "alpha = 1.0", "alpha = 0.0").replace("nu = 1.0", "nu = 2.0")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["transport", "--config", cfg]) == 0
    rows = dict(
        line.split(",", 1)
        for line in (tmp_path / "out" / "transport.csv").read_text()
        .splitlines()[2:])
    assert float(rows["z_l2"]) == pytest.approx(1.0, rel=1e-12)


def test_transport_constant_profile(tmp_path, square_mesh_file):
    # u=(1,0), rhs = nu*c, q = c: constants transport to themselves
    text = TRANSPORT_CFG.replace("h = sin(pi*y)", "h = 2.5").replace(
        "rhs = 0", "rhs = 2.5")
    cfg = write_cfg(tmp_path, text, mesh=square_mesh_file,
                    out=str(tmp_path / "out"))
    assert cli.main(["transport", "--config", cfg]) == 0
    rows = dict(
        line.split(",", 1)
        for line in (tmp_path / "out" / "transport.csv").read_text()
        .splitlines()[2:])
    assert float(rows["z_l2"]) == pytest.approx(2.5, rel=1e-12)
    assert float(rows["z_linf_dof"]) == pytest.approx(2.5, rel=1e-12)
    assert float(rows["z_h1_broken"]) == pytest.approx(0.0, abs=1e-10)


def test_demo_inflow_script_runs(tmp_path):
    """The README's first run: ``scripts/demo_inflow.py`` writes its mesh
    and config under ``demo/`` in the working directory and solves it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "demo_inflow.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "converged in" in done.stdout
    assert (tmp_path / "demo" / "out" / "diagnostics.csv").exists()


THREAD_PROBE = """
import json, os, sys
seen = {}
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in sys.argv[1:]})
        return None
assert "numpy" not in sys.modules
sys.meta_path.insert(0, Probe())
import gradetwo.cli
print(json.dumps(seen))
"""


def test_thread_cap_env():
    """GRADE2_THREADS is in the BLAS variables when numpy first loads."""
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["GRADE2_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", THREAD_PROBE, *names],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {name: "1" for name in names}


MALLOC_PROBE = """
import ctypes, sys
import gradetwo.cli
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = [ctypes.c_void_p]
assert gradetwo.cli.main(["check-boundary", "--config", sys.argv[1]]) == 0
# a dynamic mmap threshold would rise to 16 MiB when this block is freed
libc.free(libc.malloc(16 << 20))
before = libc.mallinfo2().hblkhd
block = libc.malloc(2 << 20)
print(libc.mallinfo2().hblkhd - before)
libc.free(block)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="needs glibc 2.33 or later")
def test_malloc_thresholds_fixed(tmp_path, square_mesh_file):
    """After ``main``, a 2 MiB block is still mapped on its own, even after
    a 16 MiB block was freed."""
    cfg = write_cfg(tmp_path, CHECK_CFG, mesh=square_mesh_file, alpha="1.0",
                    gx="1")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", MALLOC_PROBE, cfg],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.splitlines()[-1]) >= 2 << 20
