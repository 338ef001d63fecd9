"""Memory of the shared tabulation, the transport solve and the Stokes
set-up, per mesh size.

For each n, in a fresh process with glibc's malloc thresholds fixed as the
``gradetwo`` commands fix them, prints the bytes of the ``FeContext`` arrays
(the P1 mass CSR's included), the build times of the ``Mesh`` and of the
``FeContext`` and the time of one ``velocity_corner_gradients`` evaluation,
which rebuilds the P2 basis gradients at the corners (each best of three,
timed last), and the peak resident set ``VmHWM`` on the unit square after
each step: ``build_spaces``; then the steps of a transport solve for the
rotation u = (1/2 - y, x - 1/2), nu = alpha = 1 (the divergence check, the
assembly of the upwind DG matrix and its factorisation); then, with the
transport objects freed, ``prepare_generalized_stokes`` (nu = 1, g = 0,
f = (1, 0)).  The rise of ``VmHWM`` from one step to the next is that
step's budget.

Usage: python scripts/context_memory.py [n ...]     (default: 64 128 256)
"""

import subprocess
import sys
import time

import numpy as np

from gradetwo import cli, meshes, spaces, stokes, transport


def vm_hwm_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM"))
    return int(line.split()[1]) / 1024.0


def measure(n):
    cli._fix_malloc_thresholds()
    mesh = meshes.unit_square_mesh(n)
    spaces_ = spaces.build_spaces(mesh)
    after_spaces = vm_hwm_mb()
    rotation = lambda x, y: (0.5 - y, x - 0.5)  # noqa: E731
    u = spaces.interpolate(rotation, spaces_.velocity)
    part = meshes.classify_boundary(mesh, rotation, 1.0)
    transport._check_divergence(u, None)
    steps = [vm_hwm_mb()]
    K, _ = transport._assemble_operator(u, 1.0, 1.0, part.eps_n)
    steps.append(vm_hwm_mb())
    solve = transport._factorise(K)
    steps.append(vm_hwm_mb())
    del u, K, solve
    f = lambda x, y: (1.0 + 0.0 * x, 0.0 * y)  # noqa: E731
    g = lambda x, y: (0.0 * x, 0.0 * y)  # noqa: E731
    stokes.prepare_generalized_stokes(spaces_, 1.0, f, g)
    after_prepare = vm_hwm_mb()
    mesh_times, times = [], []
    args = (mesh.vertices, mesh.triangles, mesh.boundary_edges,
            mesh.boundary_markers)
    for _ in range(3):
        start = time.perf_counter()
        built = meshes.Mesh(*args)
        mid = time.perf_counter()
        ctx = spaces.FeContext(built)
        mesh_times.append(mid - start)
        times.append(time.perf_counter() - mid)
    u = spaces.interpolate(rotation, spaces_.velocity)
    grad_times = []
    for _ in range(3):
        start = time.perf_counter()
        spaces.velocity_corner_gradients(u)
        grad_times.append(time.perf_counter() - start)
    M = ctx.p1_mass
    arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    nbytes = sum(a.nbytes for a in arrays + [M.data, M.indices, M.indptr])
    print(f"n={n:4d}  Mesh build {min(mesh_times) * 1e3:5.0f} ms;  FeContext "
          f"{nbytes / 2**20:6.1f} MiB ({nbytes / mesh.num_triangles:4.0f} "
          f"B/cell), build {min(times) * 1e3:5.0f} ms;  corner gradients "
          f"{min(grad_times) * 1e3:5.1f} ms;\n        VmHWM after "
          f"build_spaces {after_spaces:6.0f} MB, after prepare "
          f"{after_prepare:6.0f} MB\n"
          f"        transport (rotation): VmHWM after divergence check "
          f"{steps[0]:6.0f} MB, assembly {steps[1]:6.0f} MB, factorisation "
          f"{steps[2]:6.0f} MB", flush=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        measure(int(sys.argv[2]))
    else:
        for n in sys.argv[1:] or ["64", "128", "256"]:
            subprocess.run([sys.executable, __file__, "--one", n], check=True)
