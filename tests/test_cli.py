import ctypes
import json
import math
import os
import subprocess
import sys

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


TRANSPORT_CFG = """
[problem]
mesh = {mesh}
variant = P_II

[data]
h = sin(pi*y)

[transport]
u_x = 1
u_y = 0
rhs = 0
nu = 1.0
alpha = 1.0

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
