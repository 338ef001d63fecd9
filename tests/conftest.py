import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gradetwo import meshes, spaces, stokes, transport


@pytest.fixture(scope="session")
def mesh8():
    return meshes.unit_square_mesh(8)


@pytest.fixture(scope="session")
def mesh16():
    return meshes.unit_square_mesh(16)


@pytest.fixture(scope="session")
def spaces8(mesh8):
    return spaces.build_spaces(mesh8)


@pytest.fixture(scope="session")
def spaces16(mesh16):
    return spaces.build_spaces(mesh16)


@pytest.fixture
def stokes_splu_shapes(monkeypatch):
    """The shapes of the matrices that ``splu`` factorises when called from
    the ``stokes`` module, in call order, while the test runs."""
    shapes = []
    splu = spla.splu

    def recorded(A, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == stokes.__name__:
            shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    return shapes


def ring_mesh(k=1):
    """Square [0,3]^2 with the middle third removed: two boundary loops.

    Each of the 8 remaining blocks is split into k*k squares of 2 triangles.
    Outer boundary edges carry marker 1, the hole's marker 2.  Interior
    vertices of the hole stay in the vertex array unreferenced.
    """
    n = 3 * k
    xs = np.linspace(0.0, 3.0, n + 1)
    vx, vy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([vx.ravel(), vy.ravel()], axis=1)

    def vid(i, j):
        return i * (n + 1) + j

    def in_hole(i, j):
        return k <= i < 2 * k and k <= j < 2 * k

    tris = []
    for i in range(n):
        for j in range(n):
            if in_hole(i, j):
                continue
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    bedges, markers = [], []
    for i in range(n):
        bedges += [(vid(i, 0), vid(i + 1, 0)), (vid(i, n), vid(i + 1, n))]
        markers += [1, 1]
        bedges += [(vid(0, i), vid(0, i + 1)), (vid(n, i), vid(n, i + 1))]
        markers += [1, 1]
    for t in range(k):
        bedges += [
            (vid(k + t, k), vid(k + t + 1, k)),
            (vid(k + t, 2 * k), vid(k + t + 1, 2 * k)),
            (vid(k, k + t), vid(k, k + t + 1)),
            (vid(2 * k, k + t), vid(2 * k, k + t + 1)),
        ]
        markers += [2, 2, 2, 2]
    return meshes.Mesh(vertices, np.asarray(tris), np.asarray(bedges),
                       np.asarray(markers))


def perturbed_square(n, seed):
    """Unit square with interior vertices moved by up to h/10 each way."""
    base = meshes.unit_square_mesh(n)
    v = base.vertices.copy()
    inside = np.ones(len(v), dtype=bool)
    inside[base.boundary_edges.ravel()] = False
    v[inside] += np.random.default_rng(seed).uniform(-0.1 / n, 0.1 / n,
                                                     (inside.sum(), 2))
    return meshes.Mesh(v, base.triangles, base.boundary_edges,
                       base.boundary_markers)


def zero_datum(mesh):
    """An inflow datum that imposes zero and declares no inflow edge."""
    return transport.InflowDatum(
        np.zeros((mesh.num_boundary_edges, meshes.EDGE_QP.size)), ())


def fd_gradient(f, x, y, h=1e-6):
    return ((f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h))


def fd_laplacian(f, x, y, h=1e-4):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
            - 4.0 * f(x, y)) / h ** 2


def l2_orders(errors, ratio=2.0):
    return [math.log(errors[i] / errors[i + 1]) / math.log(ratio)
            for i in range(len(errors) - 1)]


def scalar_matrix(ctx, cell_blocks, pairs=slice(None)):
    """Sum cell blocks, 6x6 row-major per cell or the ``pairs`` of each,
    into a CSR matrix over the scalar nodes."""
    n = ctx.num_scalar_nodes
    nodes = ctx.cell_scalar_nodes
    a, b = np.divmod(np.arange(36)[pairs], 6)
    return sp.coo_matrix((cell_blocks.ravel(),
                          (nodes[:, a].ravel(), nodes[:, b].ravel())),
                         shape=(n, n)).tocsr()


def stiffness_matrix(ctx, nu):
    """The solver's stiffness cell blocks summed on the pairs it keeps."""
    pairs = stokes._STIFFNESS_PAIRS
    return scalar_matrix(ctx, stokes._stiffness_cells(ctx, nu)[:, pairs],
                         pairs)


def filled_coupling(prepared, z):
    """What a Stokes solve fills into the complex velocity block at ``z``,
    less its z = 0 template ``prepared.velocity``, in real form: D becomes
    [[Re D, -Im D], [Im D, Re D]]."""
    A, _ = stokes._bordered_system(prepared, z)
    D = A - prepared.velocity
    return sp.bmat([[D.real, -D.imag], [D.imag, D.real]], format="csr")


def skew_defect(C, rng, samples):
    """max |v^T C v| / (||C||_F ||v||^2) over ``samples`` random vectors v:
    round-off for a skew-symmetric C."""
    cnorm = math.sqrt(float((C.data ** 2).sum()))
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(C.shape[0])
        worst = max(worst, abs(v @ (C @ v)) / (cnorm * (v @ v)))
    return worst


def quadrature_p2_grads(ctx, bary=spaces.TRI_QP):
    """Physical P2 basis gradients at barycentric points, (nt, 6, nq, 2),
    written out from d phi / d lambda: grad phi_i = (4 lambda_i - 1)
    grad lambda_i at a vertex, grad phi_{3+i} = 4 (lambda_{i+2} grad
    lambda_{i+1} + lambda_{i+1} grad lambda_{i+2}) at the midpoint opposite
    vertex i.  A reference for the closed forms of the solvers."""
    b = np.asarray(bary)
    gl = ctx.grad_lambda
    out = np.zeros((gl.shape[0], 6, b.shape[0], 2))
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        out[:, i] = gl[:, i, None, :] * (4.0 * b[:, i] - 1.0)[None, :, None]
        out[:, 3 + i] = 4.0 * (gl[:, i2, None, :] * b[None, :, i1, None]
                               + gl[:, i1, None, :] * b[None, :, i2, None])
    return out
