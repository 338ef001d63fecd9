import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gradetwo import manufactured, meshes, spaces, stokes
from gradetwo.errors import FluxIncompatible, MeshTopologyError

from conftest import (filled_coupling, perturbed_square, quadrature_p2_grads,
                      ring_mesh, scalar_matrix, skew_defect, stiffness_matrix)


@pytest.fixture(scope="module")
def zero_z(spaces8):
    return spaces8.vorticity.new_field()


@pytest.fixture(scope="module")
def random_z(spaces8):
    rng = np.random.default_rng(3)
    return spaces8.vorticity.new_field(
        rng.standard_normal(spaces8.vorticity.dof_count))


ZERO_V = lambda x, y: (0.0, 0.0)  # noqa: E731


def solve(spaces_, nu, z, f, g):
    prepared = stokes.prepare_generalized_stokes(spaces_, nu, f, g)
    return stokes.solve_generalized_stokes(prepared, z)


def test_zero_coefficient_means_plain_stokes(spaces8, zero_z):
    prepared = stokes.prepare_generalized_stokes(spaces8, 1.0, ZERO_V, ZERO_V)
    C = filled_coupling(prepared, zero_z)
    assert C.nnz == 0 or np.abs(C.data).max() == 0.0


def test_skew_block_annihilates_velocity(spaces8, random_z):
    prepared = stokes.prepare_generalized_stokes(spaces8, 1.0, ZERO_V, ZERO_V)
    C = filled_coupling(prepared, random_z)
    assert skew_defect(C, np.random.default_rng(11), 50) <= 1e-12


def shifted_fill(prepared, mutation):
    """A copy of ``prepared`` whose fill breaks the skew symmetry."""
    if mutation == "imaginary_part_rolled":
        # the M_z values land one stored entry over
        ns = prepared.velocity.nnz
        cell_map = prepared.cell_map.copy()
        ff = cell_map < ns
        cell_map[ff] = (cell_map[ff] + 1) % ns
        return prepared._replace(cell_map=cell_map)
    # cell 0's 36 pairs go to the entries of cell 20, one pair over; a
    # straight copy would keep M_z symmetric and the coupling skew
    cell_map = prepared.cell_map.copy()
    cell_map[:36] = np.roll(prepared.cell_map[20 * 36:21 * 36], 1)
    return prepared._replace(cell_map=cell_map)


@pytest.mark.parametrize("mutation", ["imaginary_part_rolled", "cell_moved"])
def test_skew_defect_sees_a_broken_fill(spaces8, random_z, mutation):
    prepared = stokes.prepare_generalized_stokes(spaces8, 1.0, ZERO_V, ZERO_V)
    broken = filled_coupling(shifted_fill(prepared, mutation), random_z)
    assert skew_defect(broken, np.random.default_rng(11), 50) >= 1e-6


def test_viscosity_scaling(spaces8, random_z):
    s1 = stokes.prepare_generalized_stokes(spaces8, 1.0, ZERO_V, ZERO_V)
    s2 = stokes.prepare_generalized_stokes(spaces8, 2.0, ZERO_V, ZERO_V)
    a_diff = s2.velocity - 2.0 * s1.velocity
    assert a_diff.nnz == 0 or np.abs(a_diff.data).max() < 1e-12
    c_diff = (filled_coupling(s2, random_z) - filled_coupling(s1, random_z))
    assert c_diff.nnz == 0 or np.abs(c_diff.data).max() < 1e-14


def test_zero_data_zero_solution(spaces8, zero_z):
    u, p = solve(spaces8, 1.0, zero_z, ZERO_V, ZERO_V)
    assert np.abs(u.coefficients).max() == 0.0
    assert np.abs(p.coefficients).max() == 0.0


def test_poiseuille_recovered_exactly(spaces8, zero_z):
    nu = 1.7
    g = lambda x, y: (y * (1.0 - y), 0.0)
    u, p = solve(spaces8, nu, zero_z, ZERO_V, g)
    assert spaces.error_l2(u, g) < 1e-11
    # the matching pressure is affine with zero mean: nu*(1 - 2x)
    assert spaces.error_l2(p, lambda x, y: nu * (1.0 - 2.0 * x)) < 1e-10
    assert abs(spaces.pressure_mean(p)) < 1e-10


def test_energy_identity_homogeneous(spaces8, random_z):
    f = lambda x, y: (math.sin(2 * x + y), math.cos(x) * y)
    u, p = solve(spaces8, 1.3, random_z, f, ZERO_V)
    rep = stokes.stokes_energy_report(u, f, 1.3)
    assert rep.balance_gap <= 1e-8 * abs(rep.forcing)
    assert rep.div_weak_l2 <= 1e-8 * max(1.0, spaces.norms(u).h1_semi)


def test_energy_identity_scaled_z(spaces8, random_z):
    f = lambda x, y: (math.sin(2 * x + y), math.cos(x) * y)
    big = random_z.space.new_field(10.0 * random_z.coefficients)
    u, p = solve(spaces8, 1.0, big, f, ZERO_V)
    rep = stokes.stokes_energy_report(u, f, 1.0)
    assert rep.balance_gap <= 1e-8 * abs(rep.forcing)


def test_solution_deterministic(spaces8, random_z):
    f = lambda x, y: (1.0, -0.5)
    u1, p1 = solve(spaces8, 1.0, random_z, f, ZERO_V)
    u2, p2 = solve(spaces8, 1.0, random_z, f, ZERO_V)
    assert np.array_equal(u1.coefficients, u2.coefficients)
    assert np.array_equal(p1.coefficients, p2.coefficients)


def test_linearity_in_nu_and_f(spaces8, zero_z, random_z):
    # (nu, f) -> (c nu, c f) leaves u unchanged and scales p by c; the skew
    # coupling must scale along (trivially for z = 0, by c z otherwise)
    f = lambda x, y: (math.sin(x + y), x * y)
    cf = lambda x, y: (3.0 * math.sin(x + y), 3.0 * x * y)
    u1, p1 = solve(spaces8, 1.0, zero_z, f, ZERO_V)
    u2, p2 = solve(spaces8, 3.0, zero_z, cf, ZERO_V)
    assert np.abs(u2.coefficients - u1.coefficients).max() < 1e-10
    assert np.abs(p2.coefficients - 3.0 * p1.coefficients).max() < 1e-9
    cz = random_z.space.new_field(3.0 * random_z.coefficients)
    u1, p1 = solve(spaces8, 1.0, random_z, f, ZERO_V)
    u2, p2 = solve(spaces8, 3.0, cz, cf, ZERO_V)
    assert np.abs(u2.coefficients - u1.coefficients).max() < 1e-10
    assert np.abs(p2.coefficients - 3.0 * p1.coefficients).max() < 1e-9


def test_orphan_vertices_named():
    # ring_mesh keeps the hole's 4 interior vertices, which no cell uses
    ring = spaces.build_spaces(ring_mesh(3))
    with pytest.raises(MeshTopologyError,
                       match=r"4 mesh vertices .* \(first: vertex 44\)"):
        stokes.prepare_generalized_stokes(ring, 1.0, ZERO_V, ZERO_V)


def test_flux_incompatible_raises(spaces8, zero_z):
    with pytest.raises(FluxIncompatible) as err:
        stokes.prepare_generalized_stokes(spaces8, 1.0, ZERO_V,
                                          lambda x, y: (x, y))
    assert err.value.component == 0
    assert err.value.flux == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("flux_tol", [None, 1e-6])
def test_flux_check_evaluates_g_once(mesh8, flux_tol):
    shapes = []

    def g(x, y):
        shapes.append(x.shape)
        return (np.ones_like(x), np.zeros_like(x))

    stokes.check_flux_compatibility(mesh8, g, flux_tol)
    assert shapes == [mesh8.boundary_qpoints.shape[:-1]]


def test_closed_form_blocks_match_quadrature():
    """The stiffness and divergence blocks, built from fixed tables and
    grad lambda, against the 7-point quadrature of the basis gradients on
    a perturbed mesh: the same matrices to round-off."""
    sp_ = spaces.build_spaces(perturbed_square(12, 5))
    ctx = sp_.context
    w = ctx.cell_qweights
    G = quadrature_p2_grads(ctx)  # (nt, 6, nq, 2)
    K = stiffness_matrix(ctx, 0.7)
    K_ref = scalar_matrix(ctx, 0.7 * np.einsum("tq,taqd,tbqd->tab", w, G, G))
    assert abs(K - K_ref).max() <= 1e-13 * abs(K_ref).max()
    nt = ctx.mesh.num_triangles
    rows = np.repeat(ctx.mesh.triangles, 6, axis=1).ravel()
    cols = np.broadcast_to(ctx.cell_scalar_nodes[:, None, :],
                           (nt, 3, 6)).ravel()
    for d, B in enumerate(stokes._divergence_blocks(sp_)):
        cells = -np.einsum("tq,kq,taq->tka", w, spaces.P1_AT_Q,
                           G[:, :, :, d])
        B_ref = sp.coo_matrix((cells.ravel(), (rows, cols)),
                              shape=B.shape).tocsr()
        assert abs(B - B_ref).max() <= 1e-13 * abs(B_ref).max()


def test_stiffness_skips_vertex_opposite_midpoint_pairs():
    """A vertex and the midpoint of its opposite edge share no stiffness
    (the integral of grad phi_i . grad phi_{3+i} vanishes on every cell):
    the cell blocks hold an exact 0 at such a pair, the velocity block
    stores every free-free cell pair and an exact 0 at those pairs, the
    velocity LU is taken on the stiffness's own free-free pattern, without
    those pairs, and it fills less than on the free-free block with them."""
    sp_ = spaces.build_spaces(perturbed_square(12, 5))
    ctx = sp_.context
    nt = ctx.mesh.num_triangles
    nodes = ctx.cell_scalar_nodes
    cells = stokes._stiffness_cells(ctx, 0.7).reshape(nt, 6, 6)
    i = np.arange(3)
    assert not cells[:, i, 3 + i].any() and not cells[:, 3 + i, i].any()
    K = stiffness_matrix(ctx, 0.7)
    opposite = sp.coo_matrix((np.ones(3 * nt), (nodes[:, :3].ravel(),
                                                nodes[:, 3:].ravel())),
                             shape=K.shape).tocsr()
    opposite = opposite + opposite.T
    every_pair = scalar_matrix(ctx, np.ones((nt, 36)))
    assert K.nnz == every_pair.nnz - opposite.nnz == every_pair.nnz - 6 * nt

    prepared = stokes.prepare_generalized_stokes(sp_, 0.7, ZERO_V, ZERO_V)
    free = prepared.free
    V = prepared.velocity
    pairs_ff = every_pair[free][:, free]
    pairs_ff.sort_indices()
    assert np.array_equal(V.indptr, pairs_ff.indptr)
    assert np.array_equal(V.indices, pairs_ff.indices)
    assert abs(V).multiply(opposite[free][:, free]).count_nonzero() == 0
    dots = np.einsum("tkd,tld->tkl", ctx.grad_lambda,
                     ctx.grad_lambda).reshape(-1, 9)
    K_all = scalar_matrix(
        ctx, (0.7 * ctx.mesh.areas)[:, None]
        * np.einsum("tk,kj->tj", dots, stokes._STIFFNESS.reshape(9, 36)))
    K_all_ff = K_all[free][:, free]
    assert abs(K_all_ff - V).max() <= 1e-15 * abs(K).max()
    # the column order and the fill of an LU depend on the pattern it reads
    lu_own = spla.splu(K[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(prepared.lu.perm_c, lu_own.perm_c)
    assert (prepared.lu.L.nnz + prepared.lu.U.nnz
            == lu_own.L.nnz + lu_own.U.nnz)
    lu_all = spla.splu(K_all_ff.tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert (prepared.lu.L.nnz + prepared.lu.U.nnz
            < lu_all.L.nnz + lu_all.U.nnz)


def full_blocks(spaces_, nu, z):
    """The unreduced blocks: the nu-scaled vector Laplacian A, the skew
    coupling C, the divergence block B, the pressure integrals and the
    Dirichlet velocity dofs in ascending order."""
    ctx = spaces_.context
    K = stiffness_matrix(ctx, nu)
    Mz = scalar_matrix(ctx, stokes._zmass_cells(ctx, z))
    A = sp.bmat([[K, None], [None, K]], format="csr")
    C = sp.bmat([[None, -Mz], [Mz, None]], format="csr")
    B = sp.hstack(stokes._divergence_blocks(spaces_)).tocsr()
    n = ctx.num_scalar_nodes
    nodes = ctx.boundary_scalar_nodes
    dirichlet = np.sort(np.concatenate([nodes, n + nodes]))
    return A, C, B, ctx.p1_integrals, dirichlet


def reference_system(spaces_, nu, z, f, g):
    """The bordered saddle system from the unreduced blocks, Dirichlet
    values eliminated: the reduced matrix and right-hand side, the full
    lift and the kept unknowns."""
    A, C, B, mean_vec, dirichlet = full_blocks(spaces_, nu, z)
    n_u = spaces_.velocity.dof_count
    n_p = spaces_.pressure.dof_count
    ctx = spaces_.context
    m = sp.csr_matrix(mean_vec[:, None])
    K = sp.bmat([[A + C, B.T, None],
                 [B, None, m],
                 [None, m.T, None]], format="csr")
    # (f, v) by the cell quadrature, one velocity component at a time
    pts = spaces.data_cell_values(ctx, lambda x, y: (x, y))
    fq = np.array([[f(x, y) for x, y in row] for row in pts])
    load = np.zeros(n_u)
    for c in (0, 1):
        cell = np.einsum("tq,tq,aq->ta", ctx.cell_qweights, fq[:, :, c],
                         spaces.P2_AT_Q)
        np.add.at(load[c * ctx.num_scalar_nodes:],
                  ctx.cell_scalar_nodes.ravel(), cell.ravel())
    rhs = np.concatenate([load, np.zeros(n_p + 1)])
    nodes = ctx.boundary_scalar_nodes
    lift = np.zeros(K.shape[0])
    gb = np.array([g(x, y) for x, y in ctx.velocity_nodes[nodes]])
    lift[nodes] = gb[:, 0]
    lift[ctx.num_scalar_nodes + nodes] = gb[:, 1]
    keep = np.ones(K.shape[0], dtype=bool)
    keep[dirichlet] = False
    idx = np.nonzero(keep)[0]
    return K[idx][:, idx], (rhs - K @ lift)[idx], lift, idx


def direct_reference(spaces_, nu, z, f, g):
    """The bordered saddle system solved by sparse LU."""
    K, rhs, lift, idx = reference_system(spaces_, nu, z, f, g)
    full = lift.copy()
    full[idx] += spla.spsolve(K.tocsc(), rhs)
    n_u = spaces_.velocity.dof_count
    n_p = spaces_.pressure.dof_count
    return full[:n_u], full[n_u:n_u + n_p]


def structure(spaces_, z):
    """Stored entries of the reduced reference matrix, as a 0/1 matrix:
    every entry the blocks store, numerical zeros included."""
    A, C, B, mean_vec, dirichlet = full_blocks(spaces_, 1.0, z)

    def ones(X):
        X = sp.csr_matrix(X, copy=True)
        X.data[:] = 1.0
        return X
    m = ones(sp.csr_matrix(mean_vec[:, None]))
    B = ones(B)
    S = sp.bmat([[ones(A) + ones(C), B.T, None],
                 [B, None, m],
                 [None, m.T, None]], format="csr")
    keep = np.ones(S.shape[0], dtype=bool)
    keep[dirichlet] = False
    idx = np.nonzero(keep)[0]
    return S[idx][:, idx]


@pytest.mark.parametrize("mesh", ["unit8", "perturbed16"])
def test_filled_system_matches_reference(spaces8, mesh):
    # the z-weighted mass and the boundary coupling of each solve are
    # scattered into a template built once; compare the applied operator
    # with the full assembly
    spaces_ = spaces8 if mesh == "unit8" else spaces.build_spaces(
        perturbed_square(16, 3))
    case = manufactured.manufactured_case("trig", 0.7, 0.1)
    rng = np.random.default_rng(13)
    z = spaces_.vorticity.new_field(
        5.0 * rng.standard_normal(spaces_.vorticity.dof_count))
    prepared = stokes.prepare_generalized_stokes(
        spaces_, case.nu, case.f, case.u)
    A, rhs = stokes._bordered_system(prepared, z)
    K = sp.csr_matrix(np.column_stack([
        stokes._apply_bordered(prepared, A, e) for e in np.eye(rhs.size)]))
    K_ref, rhs_ref, _, _ = reference_system(spaces_, case.nu, z, case.f,
                                            case.u)
    scale = np.abs(K_ref.data).max()
    assert K.shape == K_ref.shape
    assert abs(K - K_ref).max() <= 1e-14 * scale
    assert np.abs(rhs - rhs_ref).max() <= 1e-14 * scale
    # no applied entry outside the reference structure: the stiffness part
    # of the velocity block is an exact 0 at the pairs it stores for M_z
    # alone
    mine = K.copy()
    mine.data[:] = 1.0
    assert (mine - mine.multiply(structure(spaces_, z))).count_nonzero() == 0


def test_solve_is_pure_and_guarded(spaces8):
    case, z1 = trig_inflow(spaces8)
    rng = np.random.default_rng(17)
    z2 = spaces8.vorticity.new_field(
        10.0 * rng.standard_normal(spaces8.vorticity.dof_count))
    prepared = stokes.prepare_generalized_stokes(
        spaces8, case.nu, case.f, case.u)

    def arrays(prep):
        out = {}
        for name, value in zip(prep._fields, prep):
            if isinstance(value, np.ndarray):
                out[name] = value.copy()
            elif sp.issparse(value):
                for part in ("data", "indices", "indptr"):
                    out[f"{name}.{part}"] = getattr(value, part).copy()
            elif hasattr(value, "perm_c"):  # a SuperLU factorisation
                for part in ("perm_c", "perm_r"):
                    out[f"{name}.{part}"] = getattr(value, part).copy()
                for part in ("L", "U"):
                    out[f"{name}.{part}"] = getattr(value, part).data.copy()
        return out

    before = arrays(prepared)
    u1, p1 = stokes.solve_generalized_stokes(prepared, z1)
    stokes.solve_generalized_stokes(prepared, z2)
    u3, p3 = stokes.solve_generalized_stokes(prepared, z1)
    assert np.array_equal(u1.coefficients, u3.coefficients)
    assert np.array_equal(p1.coefficients, p3.coefficients)
    after = arrays(prepared)
    assert after.keys() == before.keys()
    assert "velocity.data" in after and "schur.perm_c" in after
    for name, value in before.items():
        assert np.array_equal(after[name], value), name
    for bad in (np.nan, np.inf):
        coeffs = z1.coefficients.copy()
        coeffs[5] = bad
        with pytest.raises(ValueError, match="non-finite coefficient"):
            stokes.solve_generalized_stokes(
                prepared, z1.space.new_field(coeffs))


@pytest.mark.parametrize("data", ["random_z", "trig_inflow"])
def test_gmres_matches_direct(spaces8, random_z, data):
    if data == "random_z":
        nu, z, g = 1.0, random_z, ZERO_V
        f = lambda x, y: (math.sin(2 * x), math.cos(y))  # noqa: E731
    else:
        case = manufactured.manufactured_case("trig", 1.0, 0.1)
        nu, f, g = case.nu, case.f, case.u
        z = spaces.interpolate(case.z, spaces8.vorticity)
    u, p = solve(spaces8, nu, z, f, g)
    u_ref, p_ref = direct_reference(spaces8, nu, z, f, g)
    assert np.abs(u.coefficients - u_ref).max() < 1e-8
    assert np.abs(p.coefficients - p_ref).max() < 1e-7


def counted_gmres(monkeypatch):
    """Record each GMRES call's starting vector and iteration count."""
    calls = []
    gmres = stokes._gmres

    def wrapper(*args, **kwargs):
        x, info, iterations = gmres(*args, **kwargs)
        calls.append({"x0": kwargs.get("x0"), "iterations": iterations})
        return x, info, iterations

    monkeypatch.setattr(stokes, "_gmres", wrapper)
    return calls


def trig_inflow(spaces_):
    case = manufactured.manufactured_case("trig", 1.0, 0.1)
    return case, spaces.interpolate(case.z, spaces_.vorticity)


def test_warm_start_matches_direct(spaces8, monkeypatch):
    case, z = trig_inflow(spaces8)
    rng = np.random.default_rng(5)
    nearby = z.space.new_field(z.coefficients * (
        1.0 + 1e-3 * rng.standard_normal(z.space.dof_count)))
    prepared = stokes.prepare_generalized_stokes(
        spaces8, case.nu, case.f, case.u)
    calls = counted_gmres(monkeypatch)
    cold = stokes.solve_generalized_stokes(prepared, z)
    u, p = stokes.solve_generalized_stokes(
        prepared, z, guess=[stokes.solve_generalized_stokes(prepared, nearby)])
    cold_call, _, warm_call = calls
    assert cold_call["x0"] is None and warm_call["x0"] is not None
    assert warm_call["iterations"] < cold_call["iterations"]
    u_ref, p_ref = direct_reference(spaces8, case.nu, z, case.f, case.u)
    for uu, pp in (cold, (u, p)):
        assert np.abs(uu.coefficients - u_ref).max() < 1e-8
        assert np.abs(pp.coefficients - p_ref).max() < 1e-7


def test_loop_tolerance_matches_direct(spaces8, random_z, monkeypatch):
    """A solve at the coupling loop's rtol of 1e-10 stays within the direct
    solve's tolerances and keeps the zero mean, in fewer iterations."""
    f = lambda x, y: (math.sin(2 * x), math.cos(y))  # noqa: E731
    prepared = stokes.prepare_generalized_stokes(spaces8, 1.0, f, ZERO_V)
    calls = counted_gmres(monkeypatch)
    stokes.solve_generalized_stokes(prepared, random_z)
    u, p = stokes.solve_generalized_stokes(prepared, random_z, rtol=1e-10)
    assert calls[1]["iterations"] < calls[0]["iterations"], calls
    assert abs(spaces.pressure_mean(p)) < 1e-10
    u_ref, p_ref = direct_reference(spaces8, 1.0, random_z, f, ZERO_V)
    assert np.abs(u.coefficients - u_ref).max() < 1e-8
    assert np.abs(p.coefficients - p_ref).max() < 1e-7


def test_bad_guess_falls_back_to_zero_start(spaces8, monkeypatch):
    """A start that cannot lower the residual, a zero pair, falls back to
    the zero start; a bad pair is scaled down to a start that costs no
    iteration over the zero start, and the solve stays exact."""
    case, z = trig_inflow(spaces8)
    prepared = stokes.prepare_generalized_stokes(
        spaces8, case.nu, case.f, case.u)
    rng = np.random.default_rng(7)
    scale = 1e3 * max(np.abs(prepared.rhs).max(), 1.0)
    bad = (spaces8.velocity.new_field(
               scale * rng.standard_normal(spaces8.velocity.dof_count)),
           spaces8.pressure.new_field(
               scale * rng.standard_normal(spaces8.pressure.dof_count)))
    zero = (spaces8.velocity.new_field(), spaces8.pressure.new_field())
    calls = counted_gmres(monkeypatch)
    stokes.solve_generalized_stokes(prepared, z)
    stokes.solve_generalized_stokes(prepared, z, guess=[zero])
    u, p = stokes.solve_generalized_stokes(prepared, z, guess=[bad])
    cold, fallback, scaled = calls
    assert fallback["x0"] is None
    assert fallback["iterations"] == cold["iterations"]
    assert scaled["iterations"] <= cold["iterations"], calls
    u_ref, p_ref = direct_reference(spaces8, case.nu, z, case.f, case.u)
    assert np.abs(u.coefficients - u_ref).max() < 1e-8
    assert np.abs(p.coefficients - p_ref).max() < 1e-7


@pytest.mark.parametrize("restart,maxiter,x0", [
    (200, 5, False), (200, 5, True), (15, 20, False), (10, 2, False)])
def test_own_gmres_follows_scipy(restart, maxiter, x0):
    """The solver's GMRES keeps scipy's stopping rule: the same iteration
    count and outcome, also when the basis outgrows its first allocation
    (38 iterations in one cycle), across restarts (15) and when the cycles
    run out (10, 2)."""
    rng = np.random.default_rng(3)
    n = 150
    A = np.diag(np.linspace(1.0, 100.0, n)) + rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    start = rng.standard_normal(n) if x0 else None
    M = np.diag(1.0 / np.diag(A))
    count = []
    x_ref, info_ref = spla.gmres(
        A, b, x0=start, rtol=1e-10, atol=0.0, restart=restart,
        maxiter=maxiter, M=M, callback=count.append, callback_type="pr_norm")
    x, info, iterations = stokes._gmres(
        lambda v: A @ v, lambda v: M @ v, b, x0=start, rtol=1e-10,
        restart=restart, maxiter=maxiter)
    assert (iterations, info) == (len(count), info_ref)
    assert np.abs(x - x_ref).max() < 1e-12 * np.abs(x_ref).max()
    assert (info == 0) == (np.linalg.norm(A @ x - b)
                           <= 1e-10 * np.linalg.norm(b))


def test_own_gmres_exact_in_invariant_subspace():
    """A right-hand side in a three-dimensional invariant subspace is
    solved exactly in three iterations; a zero one in none, to zero from
    any start."""
    d = np.arange(1.0, 41.0)
    b = np.zeros(40)
    b[:3] = 1.0
    x, info, iterations = stokes._gmres(lambda v: d * v, lambda v: v, b,
                                        rtol=1e-14)
    assert (info, iterations) == (0, 3)
    assert np.abs(x - b / d).max() < 1e-15
    x, info, iterations = stokes._gmres(lambda v: d * v, lambda v: v,
                                        np.zeros(40), x0=np.ones(40))
    assert (info, iterations) == (0, 0) and not x.any()


def test_guess_list_starts_from_best_combination(spaces8, monkeypatch):
    """A list of guesses starts GMRES from their least-residual
    combination: it beats the zero start, and a bad pair in the list does
    not spoil it."""
    case, z = trig_inflow(spaces8)
    prepared = stokes.prepare_generalized_stokes(
        spaces8, case.nu, case.f, case.u)
    rng = np.random.default_rng(11)
    nearby = []
    for _ in range(2):
        noise = 1e-3 * rng.standard_normal(z.space.dof_count)
        nearby.append(stokes.solve_generalized_stokes(
            prepared, z.space.new_field(z.coefficients * (1.0 + noise))))
    scale = 1e3 * max(np.abs(prepared.rhs).max(), 1.0)
    bad = (spaces8.velocity.new_field(
               scale * rng.standard_normal(spaces8.velocity.dof_count)),
           spaces8.pressure.new_field(
               scale * rng.standard_normal(spaces8.pressure.dof_count)))
    calls = counted_gmres(monkeypatch)
    stokes.solve_generalized_stokes(prepared, z)
    stokes.solve_generalized_stokes(prepared, z, guess=nearby)
    u, p = stokes.solve_generalized_stokes(prepared, z,
                                           guess=[bad] + nearby)
    cold, good, mixed = calls
    assert good["x0"] is not None and mixed["x0"] is not None
    assert good["iterations"] < cold["iterations"], calls
    assert abs(mixed["iterations"] - good["iterations"]) <= 1, calls
    u_ref, p_ref = direct_reference(spaces8, case.nu, z, case.f, case.u)
    assert np.abs(u.coefficients - u_ref).max() < 1e-8
    assert np.abs(p.coefficients - p_ref).max() < 1e-7


class CountedLU:
    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


def test_preconditioner_applied_once_per_iteration(spaces8, monkeypatch):
    """Each preconditioner call makes one velocity LU solve.  Past one per
    GMRES iteration, the solver makes one for the first vector of each
    restart cycle and, from a nonzero start, one for the preconditioned
    right-hand side."""
    case, z = trig_inflow(spaces8)
    nearby = z.space.new_field(1.001 * z.coefficients)
    prepared = stokes.prepare_generalized_stokes(
        spaces8, case.nu, case.f, case.u)
    lu = CountedLU(prepared.lu)
    prepared = prepared._replace(lu=lu)
    calls = counted_gmres(monkeypatch)
    guess = []
    for coefficient in (nearby, z):
        before = lu.calls
        guess = [stokes.solve_generalized_stokes(prepared, coefficient,
                                                 guess=guess)]
        assert 0 < calls[-1]["iterations"] < 200
        start = calls[-1]["x0"] is not None
        assert lu.calls - before == calls[-1]["iterations"] + 1 + start


def test_wrong_size_guess_raises(spaces8, spaces16, zero_z):
    prepared = stokes.prepare_generalized_stokes(spaces8, 1.0, ZERO_V, ZERO_V)
    u8, p8 = stokes.solve_generalized_stokes(prepared, zero_z)
    u16 = spaces16.velocity.new_field()
    p16 = spaces16.pressure.new_field()
    for guess in ((u16, p8), (u8, p16)):
        with pytest.raises(ValueError, match="guess"):
            stokes.solve_generalized_stokes(prepared, zero_z, guess=[guess])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the script reads /proc/self/status")
def test_context_memory_script_runs():
    """``scripts/context_memory.py`` calls private transport steps and
    ``prepare_generalized_stokes``; it still runs through at n=8."""
    script = Path(__file__).parents[1] / "scripts" / "context_memory.py"
    src = os.path.dirname(os.path.dirname(stokes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, str(script), "--one", "8"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "after prepare" in done.stdout
