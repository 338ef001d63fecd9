"""Memory of the shared tabulation and of the Stokes set-up, per mesh size.

For each n, in a fresh process with glibc's malloc thresholds fixed as the
``gradetwo`` commands fix them, prints the bytes of the ``FeContext`` arrays
(the P1 mass CSR's included) and its build time (best of three, timed
last), and the peak resident set ``VmHWM`` after ``build_spaces`` and after
``prepare_generalized_stokes`` on the unit square (nu = 1, g = 0, f = (1, 0)).

Usage: python scripts/context_memory.py [n ...]     (default: 64 128 256)
"""

import subprocess
import sys
import time

import numpy as np

from gradetwo import cli, meshes, spaces, stokes


def vm_hwm_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM"))
    return int(line.split()[1]) / 1024.0


def measure(n):
    cli._fix_malloc_thresholds()
    mesh = meshes.unit_square_mesh(n)
    spaces_ = spaces.build_spaces(mesh)
    after_spaces = vm_hwm_mb()
    f = lambda x, y: (1.0 + 0.0 * x, 0.0 * y)  # noqa: E731
    g = lambda x, y: (0.0 * x, 0.0 * y)  # noqa: E731
    stokes.prepare_generalized_stokes(spaces_, 1.0, f, g)
    after_prepare = vm_hwm_mb()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ctx = spaces.FeContext(mesh)
        times.append(time.perf_counter() - start)
    M = ctx.p1_mass
    arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    nbytes = sum(a.nbytes for a in arrays + [M.data, M.indices, M.indptr])
    print(f"n={n:4d}  FeContext {nbytes / 2**20:6.1f} MiB "
          f"({nbytes / mesh.num_triangles:4.0f} B/cell), build "
          f"{min(times) * 1e3:5.0f} ms;  VmHWM after build_spaces "
          f"{after_spaces:6.0f} MB, after prepare {after_prepare:6.0f} MB",
          flush=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        measure(int(sys.argv[2]))
    else:
        for n in sys.argv[1:] or ["64", "128", "256"]:
            subprocess.run([sys.executable, __file__, "--one", n], check=True)
