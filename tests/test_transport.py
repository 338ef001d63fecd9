import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from conftest import perturbed_square, ring_mesh, zero_datum
from gradetwo import manufactured, meshes, spaces, transport
from gradetwo.errors import (
    ContractionViolated,
    DegenerateInflow,
    LinearSolveFailure,
    MaxIterations,
)

UNIFORM = lambda x, y: (1.0, 0.0)  # noqa: E731


@pytest.fixture(scope="module")
def uniform_flow(mesh16, spaces16):
    u = spaces.interpolate(UNIFORM, spaces16.velocity)
    part = meshes.classify_boundary(mesh16, UNIFORM, 1.0)
    return u, part


def test_alpha_zero_is_exact_division(spaces8, mesh8):
    rng = np.random.default_rng(5)
    rhs = spaces8.vorticity.new_field(
        rng.standard_normal(spaces8.vorticity.dof_count))
    u = spaces.interpolate(UNIFORM, spaces8.velocity)
    part = meshes.classify_boundary(mesh8, UNIFORM, 0.0)
    z = transport.solve_transport(u, 2.0, 0.0, rhs,
                                  zero_datum(mesh8), part)
    assert np.array_equal(z.coefficients, rhs.coefficients / 2.0)


def test_constants_transport_to_themselves(mesh16, spaces16, uniform_flow):
    u, part = uniform_flow
    c, nu = 2.5, 2.0
    datum = transport.build_inflow_datum(mesh16, "P_II", lambda x, y: c,
                                         UNIFORM, part)
    rhs = spaces.interpolate(lambda x, y: nu * c, spaces16.vorticity)
    z = transport.solve_transport(u, nu, 1.0, rhs, datum, part)
    assert np.abs(z.coefficients - c).max() < 1e-12


def test_exponential_decay_solution(mesh16, spaces16, uniform_flow):
    u, part = uniform_flow
    datum = transport.build_inflow_datum(
        mesh16, "P_II", lambda x, y: math.sin(math.pi * y), UNIFORM, part)
    z = transport.solve_transport(u, 1.0, 1.0, spaces16.vorticity.new_field(),
                                  datum, part)
    err = spaces.error_l2(
        z, lambda x, y: math.exp(-x) * math.sin(math.pi * y))
    assert err < 2e-3


def test_alpha_reversal_invariance(mesh16, spaces16):
    # negating both alpha and u leaves the equation (and solution) unchanged
    rhs = spaces.interpolate(lambda x, y: math.sin(2 * x) + y,
                             spaces16.vorticity)
    h = lambda x, y: math.cos(math.pi * y)
    gplus = UNIFORM
    gminus = lambda x, y: (-1.0, 0.0)
    up = spaces.interpolate(gplus, spaces16.velocity)
    um = spaces.interpolate(gminus, spaces16.velocity)
    part_p = meshes.classify_boundary(mesh16, gplus, 1.0)
    part_m = meshes.classify_boundary(mesh16, gminus, -1.0)
    assert set(part_p.gamma_minus) == set(part_m.gamma_minus)
    dp = transport.build_inflow_datum(mesh16, "P_II", h, gplus, part_p)
    dm = transport.build_inflow_datum(mesh16, "P_II", h, gminus, part_m)
    zp = transport.solve_transport(up, 1.0, 1.0, rhs, dp, part_p)
    zm = transport.solve_transport(um, 1.0, -1.0, rhs, dm, part_m)
    assert np.abs(zp.coefficients - zm.coefficients).max() < 1e-11


def test_max_principle_on_aligned_flow(mesh16, spaces16, uniform_flow):
    # rhs = 0: dof values stay within the inflow data range up to the small
    # nodal overshoot of the linear elements (O(h^2), pinned at 2%)
    u, part = uniform_flow
    datum = transport.build_inflow_datum(
        mesh16, "P_II", lambda x, y: math.sin(math.pi * y), UNIFORM, part)
    z = transport.solve_transport(u, 1.0, 1.0, spaces16.vorticity.new_field(),
                                  datum, part)
    assert np.abs(z.coefficients).max() <= 1.0 + 0.02


def test_l2_stability_bound(mesh16, spaces16):
    # ||z|| <= ||rhs||/nu + c max|q| with c frozen at 2.0 by the calibration
    # run in scripts/calibrate_transport_bound.py (worst observed 0.83)
    cases = [
        (UNIFORM, 1.0, 1.0, lambda x, y: math.sin(3 * x) * y,
         lambda x, y: 1.0),
        (lambda x, y: (1.0, 0.5), 0.5, 1.0, lambda x, y: x - y,
         lambda x, y: math.sin(math.pi * y)),
        (lambda x, y: (1.0 + 0.3 * math.sin(math.pi * y) / math.pi, 0.0),
         2.0, 0.5, lambda x, y: 0.0, lambda x, y: 0.5 - y),
    ]
    for gfun, nu, alpha, rfun, qfun in cases:
        u = spaces.interpolate(gfun, spaces16.velocity)
        part = meshes.classify_boundary(mesh16, gfun, alpha)
        datum = transport.build_inflow_datum(mesh16, "P_II", qfun, gfun, part)
        rhs = spaces.interpolate(rfun, spaces16.vorticity)
        z = transport.solve_transport(u, nu, alpha, rhs, datum, part)
        bound = spaces.norms(rhs).l2 / nu + 2.0 * datum.max_abs()
        assert spaces.norms(z).l2 <= bound


def test_divergence_warning(mesh8, spaces8):
    u = spaces.interpolate(lambda x, y: (x, y), spaces8.velocity)
    part = meshes.classify_boundary(mesh8, lambda x, y: (x, y), 1.0)
    rhs = spaces8.vorticity.new_field()
    with pytest.warns(UserWarning, match="divergence"):
        transport.solve_transport(u, 1.0, 1.0, rhs,
                                  zero_datum(mesh8), part)


@pytest.mark.parametrize("factor, warns", [(1.001, True), (0.999, False)],
                         ids=["above", "below"])
def test_divergence_warning_threshold(mesh8, spaces8, factor, warns):
    # u = (y, x) + eps (x, y) has weak divergence 2 eps and |u|_H1 =
    # sqrt(2 + 2 eps^2), so the default div_tol is 1e-8 sqrt(2 + 2 eps^2);
    # eps puts the divergence a factor off that threshold
    eps = factor * 0.5e-8 * math.sqrt(2.0)
    flow = lambda x, y: (y + eps * x, x + eps * y)  # noqa: E731
    u = spaces.interpolate(flow, spaces8.velocity)
    div = spaces.velocity_weak_divergence_l2(u)
    assert div == pytest.approx(2.0 * eps, rel=1e-6)
    part = meshes.classify_boundary(mesh8, flow, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transport.solve_transport(u, 1.0, 1.0, spaces8.vorticity.new_field(),
                                  zero_datum(mesh8), part)
    messages = [str(w.message) for w in caught]
    assert len(messages) == (1 if warns else 0), messages
    assert all("weak divergence" in m for m in messages)


def test_solve_factorises_only_the_transport_matrix(monkeypatch):
    """A solve on freshly built spaces takes one sparse LU: the DG matrix's.
    The divergence check needs none."""
    mesh = meshes.unit_square_mesh(8)
    sp_ = spaces.build_spaces(mesh)
    u = spaces.interpolate(UNIFORM, sp_.velocity)
    part = meshes.classify_boundary(mesh, UNIFORM, 1.0)
    callers = []
    splu = spla.splu

    def recorded(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    transport.solve_transport(u, 1.0, 1.0, sp_.vorticity.new_field(),
                              zero_datum(mesh), part)
    assert callers == [transport.__name__]


@pytest.mark.parametrize("solver, shift, message", [
    ("transport", 1e-3, "transport residual"),
    ("transport", np.nan, "non-finite"),
    ("gradient", 1e-3, "transport residual"),
    ("gradient", np.nan, "non-finite"),
], ids=["perturbed", "nan", "gradient-perturbed", "gradient-nan"])
def test_solve_checks_can_fail(mesh8, spaces8, monkeypatch, solver, shift,
                               message):
    """A wrong or non-finite solve out of the LU is caught, not returned,
    by either transport solver: one dof of each LU solve shifted by 1e-3 or
    NaN, where the exact answers are constants (z = 2.5; F = (0, 0.7))."""
    u = spaces.interpolate(UNIFORM, spaces8.velocity)
    if solver == "transport":
        part = meshes.classify_boundary(mesh8, UNIFORM, 1.0)
        datum = transport.build_inflow_datum(mesh8, "P_II",
                                             lambda x, y: 2.5, UNIFORM, part)
        rhs = spaces.interpolate(lambda x, y: 2.5, spaces8.vorticity)
        exact = [2.5]

        def run():
            z = transport.solve_transport(u, 1.0, 1.0, rhs, datum, part)
            return [z.coefficients]
    else:
        part = meshes.classify_boundary(mesh8, UNIFORM, 0.5)
        l = spaces.interpolate(lambda x, y: 0.7 * y, spaces8.vorticity)
        exact = [0.0, 0.7]

        def run():
            res = transport.solve_gradient_transport(u, 0.5, l, part)
            return [res.fx.coefficients, res.fy.coefficients]
    for got, value in zip(run(), exact):
        assert np.abs(got - value).max() < 1e-12
    splu = spla.splu

    class SpoiledLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            z = self.lu.solve(b)
            z[0] += shift
            return z

    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: SpoiledLU(
        splu(*args, **kwargs)))
    with pytest.raises(LinearSolveFailure, match=message):
        run()


def test_inflow_mismatch_warning(mesh16, spaces16):
    # datum declared on the left edge, but the actual flow enters right
    part_g = meshes.classify_boundary(mesh16, UNIFORM, 1.0)
    datum = transport.build_inflow_datum(mesh16, "P_II", lambda x, y: 1.0,
                                         UNIFORM, part_g)
    reversed_u = spaces.interpolate(lambda x, y: (-1.0, 0.0),
                                    spaces16.velocity)
    rhs = spaces16.vorticity.new_field()
    with pytest.warns(UserWarning, match="inflow set"):
        transport.solve_transport(reversed_u, 1.0, 1.0, rhs, datum, part_g)


# -- the DG system and its factorisation ------------------------------------------

ROTATION = lambda x, y: (0.5 - y, x - 0.5)  # noqa: E731
TRIG = manufactured.manufactured_case("trig", 1.0, 0.1).u


def dg_operator(mesh, gfun):
    u = spaces.interpolate(gfun, spaces.build_spaces(mesh).velocity)
    part = meshes.classify_boundary(mesh, gfun, 1.0)
    K, _ = transport._assemble_operator(u, 1.0, 1.0, part.eps_n)
    return K


def factorise_recorded(K, monkeypatch):
    """``transport._factorise(K)`` and the one SuperLU call it makes."""
    calls = []
    splu = spla.splu

    def recorded(A, **kwargs):
        calls.append((A, kwargs, splu(A, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(spla, "splu", recorded)
    solve = transport._factorise(K)
    assert len(calls) == 1
    return solve, calls[0]


def assert_matches_spsolve(K, solve):
    b = np.random.default_rng(11).standard_normal(K.shape[0])
    ref = spla.spsolve(K, b)
    assert np.abs(solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("gfun", [UNIFORM, ROTATION],
                         ids=["uniform", "rotation"])
def test_operator_stores_structural_pattern(mesh16, gfun):
    # every cell block is stored, a cell entry that cancels included, plus
    # one 2x2 block per face side that is upwind somewhere on an interior
    # face; the downwind blocks of a face carry no coupling and are not
    # stored, and no coupling entry is zero
    u = spaces.interpolate(gfun, spaces.build_spaces(mesh16).velocity)
    part = meshes.classify_boundary(mesh16, gfun, 1.0)
    K, _ = transport._assemble_operator(u, 1.0, 1.0, part.eps_n)
    s = transport._edge_sign(u, 1.0)[u.space.context.edge_interior]
    blocks = np.count_nonzero(s.max(axis=1) > 0.0) + np.count_nonzero(
        s.min(axis=1) < 0.0)
    C = K.tocoo()
    coupling = C.row // 3 != C.col // 3
    assert np.count_nonzero(~coupling) == 9 * mesh16.num_triangles
    assert np.count_nonzero(coupling) == 4 * blocks
    assert np.all(C.data[coupling] != 0.0)


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["mesh16", "perturbed16"])
def test_acyclic_flow_factorised_in_downstream_order(mesh16, perturbed,
                                                     monkeypatch):
    K = dg_operator(perturbed_square(16, 3) if perturbed else mesh16, UNIFORM)
    solve, (A, kwargs, lu) = factorise_recorded(K, monkeypatch)
    assert kwargs == {**transport._SPLU_OPTIONS, "permc_spec": "NATURAL"}
    # each cell's equation reads only itself and cells upwind of it, which
    # come later: the factorised matrix is block upper triangular
    rows, cols = A.nonzero()
    assert np.all(rows // 3 <= cols // 3)
    assert np.any(rows // 3 != cols // 3)
    assert lu.L.nnz + lu.U.nnz <= 1.5 * K.nnz
    assert_matches_spsolve(K, solve)


def test_cyclic_flow_factorised_with_colamd(mesh16, monkeypatch):
    K = dg_operator(mesh16, ROTATION)
    solve, (A, kwargs, _) = factorise_recorded(K, monkeypatch)
    assert A is K
    assert kwargs == {**transport._SPLU_OPTIONS, "permc_spec": "COLAMD"}
    assert_matches_spsolve(K, solve)



def test_short_cycles_swept_in_component_order(mesh16, monkeypatch):
    # the trig velocity is upwind on both sides of some faces: its cell
    # graph has 2-cell cycles, which the sweep solves as 6x6 blocks
    K = dg_operator(mesh16, TRIG)
    solve, (A, kwargs, lu) = factorise_recorded(K, monkeypatch)
    assert kwargs == {**transport._SPLU_OPTIONS, "permc_spec": "NATURAL"}
    rows, cols = (i // 3 for i in A.nonzero())
    nt = A.shape[0] // 3
    _, labels = connected_components(
        sp.csr_matrix((np.ones(rows.size), (cols, rows)), shape=(nt, nt)),
        directed=True, connection="strong")
    assert np.bincount(labels).max() == 2
    # each component's cells are contiguous, and a cell reads only cells of
    # its own component and of components after it: block upper triangular
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    assert np.unique(labels[starts]).size == starts.size
    below = rows > cols
    assert np.any(below)
    assert np.array_equal(labels[rows[below]], labels[cols[below]])
    assert lu.L.nnz + lu.U.nnz <= 1.5 * K.nnz
    assert_matches_spsolve(K, solve)


@pytest.mark.parametrize("dense", [np.diag([1.0, 1.0, 0.0]), np.ones((6, 6))],
                         ids=["acyclic", "cyclic"])
def test_factorise_singular_raises(dense):
    # a singular matrix (as alpha = inf makes) is a typed solver failure
    with pytest.raises(LinearSolveFailure, match="transport LU"):
        transport._factorise(sp.csc_matrix(dense))

def test_solve_transients_bounded_per_cell(monkeypatch):
    """Python allocations of the assembly and of the downstream-order LU
    set-up, in bytes per cell on a perturbed mesh (SuperLU's own memory is
    not traced).  The matrix takes about 190 bytes per cell; assembling it
    through COO with the face blocks as duplicate entries peaked at about
    1,420, and the set-up through ``tocoo``, a float graph and two
    permuted copies at about 800."""
    mesh = perturbed_square(32, 3)
    u = spaces.interpolate(UNIFORM, spaces.build_spaces(mesh).velocity)
    eps_n = meshes.classify_boundary(mesh, UNIFORM, 1.0).eps_n
    transport._factorise(transport._assemble_operator(u, 1.0, 1.0, eps_n)[0])
    nt = mesh.num_triangles
    tracemalloc.start()
    try:
        K, _ = transport._assemble_operator(u, 1.0, 1.0, eps_n)
        assembly = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        _, (_, kwargs, _) = factorise_recorded(K, monkeypatch)
        factorisation = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert kwargs["permc_spec"] == "NATURAL"
    stored = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    assert stored <= 200 * nt
    assert assembly <= 800 * nt
    assert factorisation <= 500 * nt


DUPLICATE_PROBE = """
import numpy as np, scipy.sparse as sp
from gradetwo import transport
# two cell blocks, cell 0 upwind of cell 1 through entry (3, 0) = 0.5,
# stored as two halves
C = sp.csc_matrix(3.0 * np.eye(6) + np.kron(np.eye(2), np.ones((3, 3))))
K = sp.csc_matrix((np.r_[C.data[:3], 0.25, 0.25, C.data[3:]],
                   np.r_[C.indices[:3], 3, 3, C.indices[3:]],
                   np.r_[0, C.indptr[1:] + 2]), shape=(6, 6))
b = np.arange(1.0, 7.0)
dense = K.toarray()
assert dense[3, 0] == 0.5
assert np.allclose(dense @ transport._factorise(K)(b), b)
"""


def test_factorise_sums_repeated_entries():
    # scipy's strong-component search does not return on a graph with a
    # repeated edge, so the factorisation takes the canonical form first
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(transport.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", DUPLICATE_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def reference_operator(u, nu, alpha, eps_n):
    """The upwind DG matrix, dense, one cell and one edge Gauss point at a
    time, from the mesh arrays and the velocity's nodal values alone.

    Cells: nu (z, v) - (z, alpha u . grad v).  Edges: the flux of the
    upwind side, s+ z0 + s- z1 with s = alpha u.n out of side 0, against
    v0 - v1; a boundary edge has only side 0 and keeps s > eps_n only.
    """
    ctx = u.space.context
    mesh = ctx.mesh
    nv = ctx.num_scalar_nodes
    R = np.zeros((3 * mesh.num_triangles,) * 2)

    def affine(t):
        """Barycentric map of cell t: lambda = A @ (x, y, 1)."""
        return np.linalg.inv(np.vstack([mesh.vertices[mesh.triangles[t]].T,
                                        np.ones(3)]))

    def velocity(t):
        """alpha u on cell t: the quadratic through its six nodal values."""
        nodes = ctx.cell_scalar_nodes[t]
        x0, h = mesh.vertices[mesh.triangles[t, 0]], math.sqrt(mesh.areas[t])

        def mono(p):
            x, y = (p - x0) / h
            return np.array([1.0, x, y, x * x, x * y, y * y])

        coef = np.linalg.solve(
            np.array([mono(p) for p in ctx.velocity_nodes[nodes]]),
            np.stack([u.coefficients[:nv][nodes],
                      u.coefficients[nv:][nodes]], axis=1))
        return lambda p: alpha * mono(p) @ coef

    for t in range(mesh.num_triangles):
        A, a = affine(t), velocity(t)
        dofs = 3 * t + np.arange(3)
        for lam, wq in zip(spaces.TRI_QP, spaces.TRI_QW):
            p = lam @ mesh.vertices[mesh.triangles[t]]
            w = wq * mesh.areas[t]
            R[np.ix_(dofs, dofs)] += w * np.outer(
                nu * lam - A[:, :2] @ a(p), lam)

    for e, (va, vb) in enumerate(mesh.edges):
        pa, pb = mesh.vertices[va], mesh.vertices[vb]
        cells = [t for t in mesh.edge_cells[e] if t >= 0]
        n = np.array([pb[1] - pa[1], pa[0] - pb[0]]) / np.linalg.norm(pb - pa)
        if n @ (pa - mesh.vertices[mesh.triangles[cells[0]]].mean(axis=0)) < 0:
            n = -n
        a = velocity(cells[0])
        for tq, wq in zip(meshes.EDGE_QP, meshes.EDGE_QW):
            p = (1.0 - tq) * pa + tq * pb
            w = wq * np.linalg.norm(pb - pa)
            s = a(p) @ n
            if len(cells) == 2:
                weights = [max(s, 0.0), min(s, 0.0)]
            else:
                weights = [s if s > eps_n else 0.0]
            traces = [(1.0 - tq) * (mesh.triangles[t] == va)
                      + tq * (mesh.triangles[t] == vb) for t in cells]
            for r, (tr, vr) in enumerate(zip(cells, traces)):
                for tc, vc, sc in zip(cells, traces, weights):
                    R[np.ix_(3 * tr + np.arange(3), 3 * tc + np.arange(3))] \
                        += (-1) ** r * w * sc * np.outer(vr, vc)
    return R


MESHES = {"mesh16": lambda: meshes.unit_square_mesh(16),
          "perturbed16": lambda: perturbed_square(16, 3),
          "ring": lambda: ring_mesh(3)}


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("gfun, eps_n", [
    (UNIFORM, 1e-12), (ROTATION, 1e-12), (TRIG, 1e-12),
    # |s| = 1e-13 <= eps_n on the top and bottom edges: no outflow block
    # there, while interior edges with the same |s| keep theirs
    (lambda x, y: (1.0, 1e-13), 1e-12),
    # the same rule with a flux large enough to show in the entries
    (lambda x, y: (1.0, 0.3), 0.5),
], ids=["uniform", "rotation", "trig", "tiny-y", "eps-above-y"])
def test_operator_matches_reference_loop(mesh_name, gfun, eps_n):
    mesh = MESHES[mesh_name]()
    u = spaces.interpolate(gfun, spaces.build_spaces(mesh).velocity)
    if gfun is TRIG and mesh_name == "mesh16":
        # both sides of a face are upwind somewhere on 44 interior edges
        s = transport._edge_sign(u, 0.7)[u.space.context.edge_interior]
        flips = (s.max(axis=1) > 0) & (s.min(axis=1) < 0)
        assert np.count_nonzero(flips) == 44
    K, _ = transport._assemble_operator(u, 0.8, 0.7, eps_n)
    R = reference_operator(u, 0.8, 0.7, eps_n)
    K = K.toarray()
    assert np.abs(K - R).max() <= 1e-13 * np.abs(K).max()
    assert np.array_equal(K != 0.0, R != 0.0)


@pytest.fixture(scope="module")
def wavy_velocity():
    """A P2 interpolant of a non-polynomial flow on a perturbed mesh."""
    sp_ = spaces.build_spaces(perturbed_square(12, 7))
    return spaces.interpolate(
        lambda x, y: (np.sin(3.0 * x) * np.exp(y), np.cos(2.0 * x * y) - x),
        sp_.velocity)


def test_cell_convection_matches_quadrature(wavy_velocity):
    # the closed form against (lambda_j, alpha u . grad lambda_i) with u
    # sampled at the 7 cell quadrature points
    u, alpha = wavy_velocity, 0.7
    ctx = u.space.context
    a = alpha * spaces.velocity_cell_values(u)             # (nt, nq, 2)
    adotgrad = np.einsum("tqd,tid->tqi", a, ctx.grad_lambda)
    ref = np.einsum("tq,tqi,jq->tij", ctx.cell_qweights, adotgrad,
                    spaces.P1_AT_Q)
    got = transport._cell_convection(u, alpha)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_edge_sign_matches_traces(wavy_velocity):
    u, alpha = wavy_velocity, -1.3
    n = u.space.context.mesh.edge_normals
    ref = alpha * np.einsum("eqd,ed->eq", spaces.velocity_edge_values(u), n)
    got = transport._edge_sign(u, alpha)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_divergence_check_sees_compressible_flow():
    # u = (x, 0) has div u = 1, whose P1 projection is 1: weak divergence
    # sqrt(|Omega|) = 1, far above the default div_tol of 1e-8
    mesh = perturbed_square(8, 2)
    sp_ = spaces.build_spaces(mesh)
    flow = lambda x, y: (x, 0.0 * y)  # noqa: E731
    u = spaces.interpolate(flow, sp_.velocity)
    assert spaces.velocity_weak_divergence_l2(u) == pytest.approx(1.0,
                                                                  rel=1e-12)
    part = meshes.classify_boundary(mesh, flow, 1.0)
    rhs = sp_.vorticity.new_field()
    with pytest.warns(UserWarning, match="weak divergence 1.000e\\+00"):
        transport.solve_transport(u, 1.0, 1.0, rhs,
                                  zero_datum(mesh), part)


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["mesh16", "perturbed16"])
@pytest.mark.parametrize("alpha", [1.0, -0.7])
@pytest.mark.parametrize("gfun", [UNIFORM, lambda x, y: (2.0, -1.0), ROTATION],
                         ids=["uniform", "2,-1", "rotation"])
def test_operator_energy_identity(mesh16, perturbed, alpha, gfun):
    # for a divergence-free u, testing with v = z turns the advection form
    # into the upwind dissipation: z'Kz = nu ||z||^2 + sign functional
    mesh = perturbed_square(16, 3) if perturbed else mesh16
    sp_ = spaces.build_spaces(mesh)
    u = spaces.interpolate(gfun, sp_.velocity)
    nu = 0.6
    K, _ = transport._assemble_operator(u, nu, alpha, 1e-12)
    z = sp_.vorticity.new_field(
        np.random.default_rng(3).standard_normal(sp_.vorticity.dof_count))
    rhs = (nu * spaces.norms(z).l2 ** 2
           + transport.sign_functional_report(z, u, alpha).total)
    c = z.coefficients
    assert abs(c @ (K @ c) - rhs) <= 1e-12 * rhs


# -- inflow datum construction ---------------------------------------------------

def test_datum_trace_variant(mesh8):
    part = meshes.classify_boundary(mesh8, UNIFORM, 1.0)
    datum = transport.build_inflow_datum(mesh8, "P_II", lambda x, y: 1.0,
                                         UNIFORM, part)
    assert set(datum.edges) == set(part.gamma_minus)
    assert datum.max_abs() == pytest.approx(1.0)


def test_datum_rejects_unknown_variant(mesh8):
    part = meshes.classify_boundary(mesh8, UNIFORM, 1.0)
    with pytest.raises(ValueError,
                       match="variant must be P_I or P_II, got 'P_III'"):
        transport.build_inflow_datum(mesh8, "P_III", lambda x, y: 1.0,
                                     UNIFORM, part)


def test_datum_flux_variant_divides(mesh8):
    # g.n = -1 on the left edge, h = -2 -> q = 2
    part = meshes.classify_boundary(mesh8, UNIFORM, 1.0)
    datum = transport.build_inflow_datum(mesh8, "P_I", lambda x, y: -2.0,
                                         UNIFORM, part)
    vals = datum.values[list(datum.edges)]
    assert np.abs(vals - 2.0).max() < 1e-14


def test_datum_flux_degenerate_interior(mesh16):
    # |g.n| = (y - 1/2)^2 vanishes at the mesh vertex y = 1/2 inside the
    # inflow closure: the flux variant must refuse
    g = lambda x, y: ((y - 0.5) ** 2, 0.0)
    part = meshes.classify_boundary(mesh16, g, 1.0)
    with pytest.raises(DegenerateInflow):
        transport.build_inflow_datum(mesh16, "P_I", lambda x, y: 1.0, g, part)
    # the trace variant carries no division and accepts the same data
    datum = transport.build_inflow_datum(mesh16, "P_II", lambda x, y: 1.0,
                                         g, part)
    assert datum.edges


def test_datum_empty_inflow(mesh8):
    part = meshes.classify_boundary(mesh8, UNIFORM, 0.0)
    datum = transport.build_inflow_datum(mesh8, "P_II", lambda x, y: 5.0,
                                         UNIFORM, part)
    assert datum.edges == ()
    assert datum.max_abs() == 0.0


# -- sign functional -------------------------------------------------------------

def test_sign_functional_constant_field(mesh8, spaces8):
    u = spaces.interpolate(UNIFORM, spaces8.velocity)
    z = spaces.interpolate(lambda x, y: 3.0, spaces8.vorticity)
    rep = transport.sign_functional_report(z, u, 1.0)
    # continuous field: no interior jumps, only the boundary flux split
    assert rep.interior_jumps == 0.0
    assert rep.total == pytest.approx(rep.outflow + rep.inflow)
    # signed central flux = z^2/2 * net boundary flux of u ~ 0
    assert abs(rep.central_flux) < 1e-12


def test_sign_functional_alpha_zero(mesh8, spaces8):
    u = spaces.interpolate(UNIFORM, spaces8.velocity)
    z = spaces.interpolate(lambda x, y: x * y, spaces8.vorticity)
    assert transport.sign_functional_report(z, u, 0.0).total == 0.0


def test_sign_functional_nonnegative_for_zero_datum(mesh16, spaces16):
    velocities = [UNIFORM, lambda x, y: (y, x), lambda x, y: (2.0, -1.0)]
    rhss = [lambda x, y: math.sin(3 * x) * y, lambda x, y: x - y * y]
    for gfun in velocities:
        u = spaces.interpolate(gfun, spaces16.velocity)
        part = meshes.classify_boundary(mesh16, gfun, 1.0)
        for rfun in rhss:
            rhs = spaces.interpolate(rfun, spaces16.vorticity)
            z = transport.solve_transport(
                u, 1.0, 1.0, rhs, zero_datum(mesh16), part)
            total = transport.sign_functional_report(z, u, 1.0).total
            scale = max(1.0, spaces.norms(z).l2 ** 2 * spaces.norms(u).l2)
            assert total >= -1e-10 * scale


# -- Green identity defect --------------------------------------------------------

def test_green_residual_constants(mesh8, spaces8):
    u = spaces.interpolate(lambda x, y: (y, x), spaces8.velocity)
    z = spaces.interpolate(lambda x, y: 2.0, spaces8.vorticity)
    r = transport.green_residual(z, u, lambda x, y: 1.0,
                                 phi_grad=lambda x, y: (0.0, 0.0))
    assert r < 1e-13


def test_green_residual_polynomial_one_triangle():
    # single reference triangle; z = 1+2x-y, u = (y, x), phi = x^2 + xy.
    # By the divergence theorem both volume terms sum to the boundary flux
    # exactly, and the first volume term alone has the hand value
    # int_T (1+2x-y)(x^2+2xy+y^2) = 0.35 via int x^p y^q = p! q!/(p+q+2)!.
    m = meshes.Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [2, 0]]),
        np.array([1, 2, 3]))
    sp_ = spaces.build_spaces(m)
    z = spaces.interpolate(lambda x, y: 1 + 2 * x - y, sp_.vorticity)
    u = spaces.interpolate(lambda x, y: (y, x), sp_.velocity)
    phi = lambda x, y: x * x + x * y
    gphi = lambda x, y: (2 * x + y, x)
    r = transport.green_residual(z, u, phi, phi_grad=gphi)
    assert r < 1e-14
    # hand-integration oracle for the first volume term
    ctx = sp_.context
    pts = spaces.data_cell_values(ctx, lambda x, y: (x, y))
    zq = spaces.scalar_cell_values(z)
    uq = spaces.velocity_cell_values(u)
    gx = np.vectorize(lambda a, b: gphi(a, b)[0])(pts[:, :, 0], pts[:, :, 1])
    gy = np.vectorize(lambda a, b: gphi(a, b)[1])(pts[:, :, 0], pts[:, :, 1])
    vol1 = float((ctx.cell_qweights
                  * zq * (uq[:, :, 0] * gx + uq[:, :, 1] * gy)).sum())
    assert vol1 == pytest.approx(0.35, rel=1e-14)


def test_green_residual_decreases_for_solver_fields():
    phi = lambda x, y: math.sin(x) * math.cos(y)
    gphi = lambda x, y: (math.cos(x) * math.cos(y),
                         -math.sin(x) * math.sin(y))
    errs = []
    for n in (8, 16, 32):
        m = meshes.unit_square_mesh(n)
        sp_ = spaces.build_spaces(m)
        u = spaces.interpolate(UNIFORM, sp_.velocity)
        part = meshes.classify_boundary(m, UNIFORM, 1.0)
        datum = transport.build_inflow_datum(
            m, "P_II", lambda x, y: math.sin(math.pi * y), UNIFORM, part)
        z = transport.solve_transport(u, 1.0, 1.0, sp_.vorticity.new_field(),
                                      datum, part)
        errs.append(transport.green_residual(z, u, phi, phi_grad=gphi))
    assert errs[0] > errs[1] > errs[2]
    assert math.log2(errs[1] / errs[2]) > 0.85


# -- gradient transport -------------------------------------------------------------

def test_gradient_transport_constant_solution(mesh8, spaces8):
    u = spaces.interpolate(UNIFORM, spaces8.velocity)
    part = meshes.classify_boundary(mesh8, UNIFORM, 0.5)
    l = spaces.interpolate(lambda x, y: 0.7 * y, spaces8.vorticity)
    res = transport.solve_gradient_transport(u, 0.5, l, part)
    assert np.abs(res.fx.coefficients).max() < 1e-12
    assert np.abs(res.fy.coefficients - 0.7).max() < 1e-12
    assert res.iterations <= 2


def test_gradient_transport_tracks_scalar_gradient():
    shear = 0.2
    W = 0.5
    gfun = lambda x, y: (1.0 + shear * math.sin(math.pi * y) / math.pi, 0.0)
    lfun = lambda x, y: math.sin(1.3 * x + 0.4) * math.cos(y)
    errs = []
    for n in (8, 16, 32):
        m = meshes.unit_square_mesh(n)
        sp_ = spaces.build_spaces(m)
        u = spaces.interpolate(gfun, sp_.velocity)
        part = meshes.classify_boundary(m, gfun, W)
        l = spaces.interpolate(lfun, sp_.vorticity)
        res = transport.solve_gradient_transport(u, W, l, part)
        datum = transport.build_inflow_datum(m, "P_II", lfun, gfun, part)
        z = transport.solve_transport(u, 1.0, W, l, datum, part)
        gz = spaces.scalar_cell_gradients(z)
        dx = spaces.scalar_cell_values(res.fx) - gz[:, 0][:, None]
        dy = spaces.scalar_cell_values(res.fy) - gz[:, 1][:, None]
        ctx = sp_.context
        errs.append(math.sqrt(
            (ctx.cell_qweights * (dx * dx + dy * dy)).sum()))
    assert math.log2(errs[0] / errs[1]) > 0.8
    assert math.log2(errs[1] / errs[2]) > 0.8


def test_gradient_transport_contraction_ratio(mesh16, spaces16):
    # coupled iterations gain at least the factor-1/2 of the analysis
    shear = 0.45  # max|grad u| = 0.45 < 1/(2*0.5) = 1
    gfun = lambda x, y: (1.0 + shear * math.sin(math.pi * y) / math.pi, 0.0)
    u = spaces.interpolate(gfun, spaces16.velocity)
    part = meshes.classify_boundary(mesh16, gfun, 0.5)
    l = spaces.interpolate(lambda x, y: math.sin(2 * x) * math.cos(y) + x * y,
                           spaces16.vorticity)
    res = transport.solve_gradient_transport(u, 0.5, l, part, tol=1e-12)
    ratios = [res.deltas[i + 1] / res.deltas[i]
              for i in range(len(res.deltas) - 2) if res.deltas[i] > 1e-13]
    assert ratios and max(ratios) <= 0.5 + 1e-6


def test_gradient_transport_contraction_guard(mesh8, spaces8):
    u = spaces.interpolate(lambda x, y: (5.0 * y, 0.0), spaces8.velocity)
    part = meshes.classify_boundary(mesh8, lambda x, y: (5.0 * y, 0.0), 0.5)
    l = spaces.interpolate(lambda x, y: y, spaces8.vorticity)
    with pytest.raises(ContractionViolated):
        transport.solve_gradient_transport(u, 0.5, l, part)


def test_gradient_transport_zero_w_rejected(mesh8, spaces8):
    u = spaces.interpolate(UNIFORM, spaces8.velocity)
    part = meshes.classify_boundary(mesh8, UNIFORM, 1.0)
    l = spaces.interpolate(lambda x, y: y, spaces8.vorticity)
    with pytest.raises(ValueError):
        transport.solve_gradient_transport(u, 0.0, l, part)


def test_gradient_transport_iteration_cap(mesh8, spaces8):
    gfun = lambda x, y: (1.0 + 0.3 * math.sin(math.pi * y) / math.pi, 0.0)
    u = spaces.interpolate(gfun, spaces8.velocity)
    part = meshes.classify_boundary(mesh8, gfun, 0.5)
    l = spaces.interpolate(lambda x, y: math.sin(2 * x + y), spaces8.vorticity)
    with pytest.raises(MaxIterations):
        transport.solve_gradient_transport(u, 0.5, l, part, tol=1e-14,
                                           max_iter=1)
