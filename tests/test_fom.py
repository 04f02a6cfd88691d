import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from cutrom.assembly import assemble_system
from cutrom.fom import FomError, residual, solve_fom
from cutrom.geometry import ParameterPoint, build_background_mesh, build_cut_geometry
from cutrom.pipeline import patch_check


def test_patch_solution_matches_interpolant(default_mesh, patch_phys):
    params = (ParameterPoint(1.0, 1.0), ParameterPoint(1.15, 1.05))
    check = patch_check(default_mesh, patch_phys, params)
    assert check.ok, check


def test_solve_deterministic(default_mesh, default_phys):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.045, 1.16))
    sys_ = assemble_system(geom, default_phys)
    u1 = solve_fom(sys_).u
    u2 = solve_fom(sys_).u
    assert np.array_equal(u1, u2)


def test_active_residual_contract(default_mesh, default_phys):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.19, 1.02))
    sys_ = assemble_system(geom, default_phys)
    sol = solve_fom(sys_)
    r = residual(sys_, sol.u)
    assert np.linalg.norm(r[sys_.active_dofs]) <= 1e-10 * np.linalg.norm(sys_.f)
    inact = np.setdiff1d(np.arange(default_mesh.n_vertices), sys_.active_dofs)
    assert np.abs(sol.u[inact]).max(initial=0.0) == 0.0


def test_residual_of_zero_is_load(default_mesh, default_phys):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    sys_ = assemble_system(geom, default_phys)
    assert np.array_equal(residual(sys_, np.zeros_like(sys_.f)), sys_.f)


def test_residual_vanishes_outside_active_for_any_vector(default_mesh, default_phys, rng):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.11, 1.07))
    sys_ = assemble_system(geom, default_phys)
    u = rng.standard_normal(sys_.f.shape[0])
    r = residual(sys_, u)
    inact = np.setdiff1d(np.arange(default_mesh.n_vertices), sys_.active_dofs)
    assert np.abs(r[inact]).max(initial=0.0) == 0.0


def test_dimension_mismatch(default_mesh, default_phys):
    geom = build_cut_geometry(default_mesh, ParameterPoint(1.0, 1.0))
    sys_ = assemble_system(geom, default_phys)
    with pytest.raises(FomError):
        residual(sys_, np.zeros(3))


def _with_matrix(sys_, edit):
    """Copy of the system whose stiffness matrix went through ``edit``."""
    a = sys_.A.copy()
    edit(a)
    return dataclasses.replace(sys_, A=a)


def test_negated_diagonal_entry_raises(default_mesh, default_phys):
    sys_ = assemble_system(build_cut_geometry(default_mesh, ParameterPoint(1.07, 1.13)), default_phys)
    i = sys_.active_dofs[sys_.active_dofs.size // 2]

    def negate(a):
        k = a.indptr[i] + np.flatnonzero(a.indices[a.indptr[i]:a.indptr[i + 1]] == i)[0]
        a.data[k] = -a.data[k]

    with pytest.raises(FomError, match="non-positive pivot"):
        solve_fom(_with_matrix(sys_, negate))


def test_zeroed_row_raises(default_mesh, default_phys):
    sys_ = assemble_system(build_cut_geometry(default_mesh, ParameterPoint(1.07, 1.13)), default_phys)
    i = sys_.active_dofs[sys_.active_dofs.size // 3]

    def zero_row(a):
        a.data[a.indptr[i]:a.indptr[i + 1]] = 0.0

    with pytest.raises(FomError):
        solve_fom(_with_matrix(sys_, zero_row))


@pytest.mark.parametrize("h", [0.125, 0.06])
def test_matches_dense_cholesky(default_phys, h):
    mesh = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), h)
    for mu in (ParameterPoint(1.0, 1.0), ParameterPoint(1.19, 1.02)):
        sys_ = assemble_system(build_cut_geometry(mesh, mu), default_phys)
        act = sys_.active_dofs
        ref = sla.cho_solve(sla.cho_factor(sys_.A[act][:, act].toarray()), sys_.f[act])
        u = solve_fom(sys_).u
        assert np.linalg.norm(u[act] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_refinement_step_lowers_active_residual(default_phys):
    mesh = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 0.06)
    for mu in (ParameterPoint(1.0, 1.0), ParameterPoint(1.07, 1.13), ParameterPoint(1.19, 1.02)):
        sys_ = assemble_system(build_cut_geometry(mesh, mu), default_phys)
        act = sys_.active_dofs
        a_act = sys_.A[act][:, act].tocsc()
        f_act = sys_.f[act]
        lu = spla.splu(a_act, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        unrefined = np.linalg.norm(f_act - a_act @ lu.solve(f_act))
        refined = np.linalg.norm(residual(sys_, solve_fom(sys_).u)[act])
        assert refined < unrefined
