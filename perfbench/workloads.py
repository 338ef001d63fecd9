"""The benchmark workloads: seeded inputs, one round of program work, and
checks of the outputs against closed forms computed here.

A workload is a list of operations (one solve each).  A round runs each
operation in turn: its set-up, its solve and its post-processing; the
checks run after the round and are not timed.  Every
closed form below is derived in this file and does not come from the
program (``gradetwo.manufactured`` is not used).

The data callables accept scalars or numpy arrays, so they stay valid if
the program starts evaluating user data in batches.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import sys

import numpy as np

from gradetwo import cli, driver, meshes, transport
from gradetwo import spaces as fes

# Interior vertices move by at most this fraction of h in each coordinate.
# A quarter of h would be enough to fold a cell of the structured mesh.
PERTURB = 0.1

PI = np.pi


class OperationFailed(Exception):
    """The program reported a failure other than by raising (an exit code)."""


def seeded_square(n, seed):
    """Arrays of the n-by-n unit-square mesh with seeded interior vertices.

    Interior vertices are moved by a uniform draw of at most ``PERTURB * h``
    per coordinate; boundary vertices stay fixed, so every inflow partition
    below is the same for every seed.  The same (seed, n) gives the same
    arrays.  Returns the four arguments of :class:`gradetwo.meshes.Mesh`.
    """
    base = meshes.unit_square_mesh(n)
    vertices = base.vertices.copy()
    rng = np.random.default_rng([seed % 2 ** 63, n])
    shift = rng.uniform(-PERTURB / n, PERTURB / n, size=vertices.shape)
    interior = np.ones(len(vertices), dtype=bool)
    interior[base.boundary_edges.ravel()] = False
    vertices[interior] += shift[interior]
    return (vertices, base.triangles.copy(), base.boundary_edges.copy(),
            base.boundary_markers.copy())


def observed_order(err_coarse, err_fine, n_coarse, n_fine):
    """Convergence order between two levels with h = 1/n."""
    if not (err_coarse > 0.0 and err_fine > 0.0):
        return float("nan")
    return math.log(err_coarse / err_fine) / math.log(n_fine / n_coarse)


def _order_messages(label, errors, levels, minimum):
    """Check every error's order between the two levels against ``minimum``."""
    coarse, fine = levels
    out = []
    for key, low in minimum.items():
        order = observed_order(errors[coarse][key], errors[fine][key],
                               coarse, fine)
        if not order >= low:
            out.append(f"{label}: {key} order {order:.3f} between n={coarse} "
                       f"and n={fine} is below {low}")
    return out


# ---- coupled-trig: the manufactured trigonometric crossflow -----------------
#
# u = (sin(pi x) cos(pi y) + cos(pi x) sin(pi y)/pi + 1,
#      -cos(pi x) sin(pi y) - sin(pi x) cos(pi y)/pi)
# p = sin(pi x) cos(pi y)
# w = curl u = 2 pi sin(pi x) sin(pi y) - 2 cos(pi x) cos(pi y)
# lap w = -2 pi^2 w
# z = curl(u - alpha lap u) = (1 + 2 alpha pi^2) w
# f = -nu lap u + z x u + grad p  with  z x u = (-z u2, z u1)
# curl f = -nu lap w + div(z u) = 2 nu pi^2 w + u . grad z
# On the unit square g.n = -1 - sin(pi y)/pi on the left edge (the inflow
# part for alpha > 0) and zero on the top and bottom edges.

class TrigCase:
    """Closed forms of the trigonometric crossflow for given nu, alpha."""

    def __init__(self, nu, alpha):
        self.nu = nu
        self.k = 1.0 + 2.0 * alpha * PI ** 2

    @staticmethod
    def _trig(x, y):
        return np.sin(PI * x), np.cos(PI * x), np.sin(PI * y), np.cos(PI * y)

    def u(self, x, y):
        sx, cx, sy, cy = self._trig(x, y)
        return (sx * cy + cx * sy / PI + 1.0, -cx * sy - sx * cy / PI)

    def grad_u(self, x, y):
        sx, cx, sy, cy = self._trig(x, y)
        return ((PI * cx * cy - sx * sy, cx * cy - PI * sx * sy),
                (PI * sx * sy - cx * cy, sx * sy - PI * cx * cy))

    def p(self, x, y):
        return np.sin(PI * x) * np.cos(PI * y)

    def z(self, x, y):
        sx, cx, sy, cy = self._trig(x, y)
        return self.k * (2.0 * PI * sx * sy - 2.0 * cx * cy)

    def f(self, x, y):
        sx, cx, sy, cy = self._trig(x, y)
        u1 = sx * cy + cx * sy / PI + 1.0
        u2 = -cx * sy - sx * cy / PI
        lap1 = -2.0 * PI ** 2 * sx * cy - 2.0 * PI * cx * sy
        lap2 = 2.0 * PI ** 2 * cx * sy + 2.0 * PI * sx * cy
        z = self.k * (2.0 * PI * sx * sy - 2.0 * cx * cy)
        return (-self.nu * lap1 - z * u2 + PI * cx * cy,
                -self.nu * lap2 + z * u1 - PI * sx * sy)

    def curl_f(self, x, y):
        sx, cx, sy, cy = self._trig(x, y)
        u1 = sx * cy + cx * sy / PI + 1.0
        u2 = -cx * sy - sx * cy / PI
        w = 2.0 * PI * sx * sy - 2.0 * cx * cy
        zx = self.k * (2.0 * PI ** 2 * cx * sy + 2.0 * PI * sx * cy)
        zy = self.k * (2.0 * PI ** 2 * sx * cy + 2.0 * PI * cx * sy)
        return 2.0 * self.nu * PI ** 2 * w + u1 * zx + u2 * zy


class CoupledTrig:
    """``fixed_point_solve`` on the trig case, coarse and measured level."""

    name = "coupled-trig"
    entry = (driver, "fixed_point_solve")
    LEVELS = (16, 32)
    NU, ALPHA = 1.0, 0.1
    # all four fall at order two (upwind DG-P1 z caps u L2 below the
    # Taylor-Hood three); 1.5 leaves room for the seeded meshes
    MIN_ORDER = {"err_u_l2": 1.5, "err_u_h1": 1.5, "err_p_l2": 1.5,
                 "err_z_l2": 1.5}
    MAX_ITERATIONS = 50

    def __init__(self, seed, workdir, data):
        self.ops = self.LEVELS
        self.arrays = {n: seeded_square(n, seed) for n in self.LEVELS}
        case = TrigCase(self.NU, self.ALPHA)
        self.data = {name: data(getattr(case, name))
                     for name in ("u", "grad_u", "p", "z", "f", "curl_f")}

    def label(self, n):
        return f"{self.name} n={n}"

    def setup(self, n):
        d = self.data
        return driver.ProblemSpec(
            mesh=meshes.Mesh(*self.arrays[n]), nu=self.NU, alpha=self.ALPHA,
            f=d["f"], g=d["u"], h=d["z"], curl_f=d["curl_f"],
            variant="P_II", fp_tol=1e-8)

    def solve(self, n, spec):
        return driver.fixed_point_solve(spec)

    def post(self, n, solution):
        u, p, z, report = solution
        d = self.data
        return {"err_u_l2": fes.error_l2(u, d["u"]),
                "err_u_h1": fes.error_h1(u, d["grad_u"]),
                "err_p_l2": fes.error_l2(p, d["p"]),
                "err_z_l2": fes.error_l2(z, d["z"]),
                "iterations": report.iterations,
                "converged": report.converged}

    def check(self, records):
        """Failure messages per operation; an empty list means correct."""
        out = {n: [] for n in self.LEVELS}
        for n in self.LEVELS:
            rec = records[n]
            if not rec["converged"]:
                out[n].append(f"n={n}: coupling did not converge")
            if rec["iterations"] > self.MAX_ITERATIONS:
                out[n].append(f"n={n}: {rec['iterations']} iterations")
        out[self.LEVELS[-1]] += _order_messages(
            self.name, records, self.LEVELS, self.MIN_ORDER)
        return out


# ---- cli-cavity: Taylor-Green cell through `gradetwo solve` -----------------
#
# psi = sin(pi x) sin(pi y)/pi,  u = (d psi/dy, -d psi/dx)
#     = (sin(pi x) cos(pi y), -cos(pi x) sin(pi y)),   lap u = -2 pi^2 u
# z = curl(u - alpha lap u) = 2 pi (1 + 2 alpha pi^2) sin(pi x) sin(pi y)
#   = c psi  with  c = 2 pi^2 (1 + 2 alpha pi^2)
# f = 2 nu pi^2 u balances the viscous term, so grad p = -(z x u)
#     = (z u2, -z u1) = -c psi grad psi  and  p = -c psi^2/2 + c/(8 pi^2)
#     (zero mean: the mean of psi^2 is 1/(4 pi^2))
# curl f = 2 nu pi^2 curl u = 4 nu pi^3 sin(pi x) sin(pi y)
# u.n = 0 on the whole boundary, so the inflow set is empty.

def taylor_green_exact(x, y, alpha):
    """Exact (u1, u2, p) of the Taylor-Green cell at arrays of points."""
    sx, cx = np.sin(PI * x), np.cos(PI * x)
    sy, cy = np.sin(PI * y), np.cos(PI * y)
    c = 2.0 * PI ** 2 * (1.0 + 2.0 * alpha * PI ** 2)
    psi = sx * sy / PI
    return sx * cy, -cx * sy, -0.5 * c * psi ** 2 + c / (8.0 * PI ** 2)


def taylor_green_config(mesh_file, nu, alpha):
    """Run configuration whose [data] is the exact Taylor-Green cell."""
    a = 2.0 * nu
    b = 4.0 * nu
    return "\n".join([
        "[problem]",
        f"mesh = {mesh_file}",
        f"nu = {nu!r}",
        f"alpha = {alpha!r}",
        "variant = P_II",
        "",
        "[data]",
        f"f_x = {a!r}*pi^2*sin(pi*x)*cos(pi*y)",
        f"f_y = -{a!r}*pi^2*cos(pi*x)*sin(pi*y)",
        "g_x = sin(pi*x)*cos(pi*y)",
        "g_y = -cos(pi*x)*sin(pi*y)",
        "h = 0",
        f"curl_f = {b!r}*pi^3*sin(pi*x)*sin(pi*y)",
        "",
        "[solver]",
        "fp_tol = 1e-8",
        "",
        "[output]",
        "dir = out",
        "formats = vtk,csv",
        "",
    ])


OUTPUT_FILES = ("fields.vtk", "iterations.csv", "diagnostics.csv")


def read_vtk_point_data(path):
    """Vertices, vertex velocity and pressure from a legacy ASCII VTK file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def block(header_prefix, count, skip=0):
        start = next(i for i, line in enumerate(lines)
                     if line.startswith(header_prefix)) + 1 + skip
        return np.array([[float(v) for v in line.split()]
                         for line in lines[start:start + count]])

    nv = int(next(line for line in lines
                  if line.startswith("POINTS ")).split()[1])
    points = block("POINTS ", nv)
    velocity = block("VECTORS velocity", nv)
    pressure = block("SCALARS pressure", nv, skip=1)[:, 0]
    return points[:, :2], velocity[:, :2], pressure


class CliCavity:
    """``gradetwo solve`` on the Taylor-Green cell, coarse and fine level."""

    name = "cli-cavity"
    entry = (cli, "cmd_solve")
    LEVELS = (12, 24)
    NU, ALPHA = 1.0, 0.1
    # nodal errors of P2 velocity and P1 pressure fall at order two; the
    # fine level must be at least 2^1.5 better than the coarse one
    MIN_ORDER = {"err_u_max": 1.5, "err_p_max": 1.5}

    def __init__(self, seed, workdir, data):
        self.ops = self.LEVELS
        self.dirs = {}
        for n in self.LEVELS:
            run_dir = os.path.join(workdir, f"n{n}")
            os.makedirs(run_dir, exist_ok=True)
            meshes.save_mesh(meshes.Mesh(*seeded_square(n, seed)),
                             os.path.join(run_dir, "mesh.m2d"))
            with open(os.path.join(run_dir, "run.cfg"), "w",
                      encoding="utf-8") as fh:
                fh.write(taylor_green_config("mesh.m2d", self.NU, self.ALPHA))
            self.dirs[n] = run_dir
        self.first_digests = {}

    def label(self, n):
        return f"{self.name} n={n}"

    def setup(self, n):
        run_dir = self.dirs[n]
        return ["solve", "--config", os.path.join(run_dir, "run.cfg"),
                "--out", os.path.join(run_dir, "out")]

    def solve(self, n, argv):
        # the command reports on stdout, which carries the benchmark's result
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"gradetwo solve exited with code {code}")
        return argv[-1]

    def post(self, n, out_dir):
        return {"out_dir": out_dir,
                "output_bytes": sum(os.path.getsize(os.path.join(out_dir, f))
                                    for f in OUTPUT_FILES)}

    def errors(self, out_dir):
        pts, vel, pres = read_vtk_point_data(
            os.path.join(out_dir, "fields.vtk"))
        u1, u2, p = taylor_green_exact(pts[:, 0], pts[:, 1], self.ALPHA)
        return {"err_u_max": float(np.abs(vel - np.stack([u1, u2], 1)).max()),
                "err_p_max": float(np.abs(pres - p).max())}

    @staticmethod
    def digests(out_dir):
        out = {}
        for name in OUTPUT_FILES:
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def check(self, records):
        out = {n: [] for n in self.LEVELS}
        errors = {n: self.errors(records[n]["out_dir"]) for n in self.LEVELS}
        out[self.LEVELS[-1]] += _order_messages(
            self.name, errors, self.LEVELS, self.MIN_ORDER)
        for n in self.LEVELS:
            digests = self.digests(records[n]["out_dir"])
            first = self.first_digests.setdefault(n, digests)
            for name, digest in digests.items():
                if digest != first[name]:
                    out[n].append(f"n={n}: {name} differs from the first run")
        return out


# ---- transport-only: prescribed velocities, two flows -----------------------
#
# crossflow: u = (1, 0), nu = alpha = 1, rhs = 0, datum sin(pi y) on the left
#   edge; z = exp(-x) sin(pi y) solves z + dz/dx = 0.  The flow graph of the
#   upwind DG cells is acyclic.
# rotation:  u = (1/2 - y, x - 1/2), nu = alpha = 1; z = cos(2 pi r^2) with
#   r = |x - (1/2, 1/2)| is constant along the circular streamlines, so
#   u . grad z = 0 and rhs = z; the datum is z itself on the inflow halves of
#   the four edges.  Streamlines inside the inscribed circle close.

def _cross_u(x, y):
    return (1.0, 0.0)


def _cross_z(x, y):
    return np.exp(-x) * np.sin(PI * y)


def _cross_datum(x, y):
    return np.sin(PI * y)


def _zero(x, y):
    return 0.0


def _rot_u(x, y):
    return (0.5 - y, x - 0.5)


def _rot_z(x, y):
    return np.cos(2.0 * PI * ((x - 0.5) ** 2 + (y - 0.5) ** 2))


FLOWS = {
    # name: (velocity, rhs, inflow datum, exact z)
    "crossflow": (_cross_u, _zero, _cross_datum, _cross_z),
    "rotation": (_rot_u, _rot_z, _rot_z, _rot_z),
}


class TransportOnly:
    """``solve_transport`` for two prescribed flows at two levels each."""

    name = "transport-only"
    entry = (transport, "solve_transport")
    LEVELS = (64, 128)
    NU, ALPHA = 1.0, 1.0
    MIN_ORDER = {"err_z_l2": 1.5}

    def __init__(self, seed, workdir, data):
        self.ops = [(flow, n) for flow in FLOWS for n in self.LEVELS]
        self.arrays = {n: seeded_square(n, seed) for n in self.LEVELS}
        self.flows = {name: tuple(data(fn) for fn in fns)
                      for name, fns in FLOWS.items()}

    def label(self, key):
        return f"{self.name} {key[0]} n={key[1]}"

    def setup(self, key):
        flow, n = key
        velocity, rhs, datum, _ = self.flows[flow]
        mesh = meshes.Mesh(*self.arrays[n])
        spaces_ = fes.build_spaces(mesh)
        u = fes.interpolate(velocity, spaces_.velocity)
        part = meshes.classify_boundary(mesh, velocity, self.ALPHA)
        inflow = transport.build_inflow_datum(mesh, "P_II", datum, velocity,
                                              part)
        f = fes.interpolate(rhs, spaces_.vorticity)
        return u, self.NU, self.ALPHA, f, inflow, part

    def solve(self, key, inputs):
        return transport.solve_transport(*inputs)

    def post(self, key, z):
        return {"err_z_l2": fes.error_l2(z, self.flows[key[0]][3])}

    def check(self, records):
        out = {key: [] for key in self.ops}
        for flow in FLOWS:
            errors = {n: records[(flow, n)] for n in self.LEVELS}
            out[(flow, self.LEVELS[-1])] += _order_messages(
                f"{self.name} {flow}", errors, self.LEVELS, self.MIN_ORDER)
        return out


WORKLOADS = {wl.name: wl for wl in (CoupledTrig, CliCavity, TransportOnly)}
