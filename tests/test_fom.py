import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

import cutrom
from cutrom.assembly import assemble_system
from cutrom.fom import FomError, band_positions, residual, solve_fom, upper_band
from cutrom.geometry import (
    ParameterPoint,
    build_background_mesh,
    build_cut_geometry,
    level_set,
)
from cutrom.pipeline import patch_check

BOX = ((-1.2, 1.2), (-1.2, 1.2))


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


def test_non_finite_entry_raises(default_mesh, default_phys):
    # LAPACK's banded Cholesky passes a NaN through without a failed pivot
    sys_ = assemble_system(build_cut_geometry(default_mesh, ParameterPoint(1.07, 1.13)), default_phys)
    i = sys_.active_dofs[sys_.active_dofs.size // 2]

    def poison(a):
        a.data[a.indptr[i]] = np.nan

    with pytest.raises(FomError, match="non-finite"):
        solve_fom(_with_matrix(sys_, poison))


def test_non_finite_load_raises(default_mesh, default_phys):
    sys_ = assemble_system(build_cut_geometry(default_mesh, ParameterPoint(1.07, 1.13)), default_phys)
    sys_.f[sys_.active_dofs[0]] = np.nan
    with pytest.raises(FomError, match="non-finite entry in the load"):
        solve_fom(sys_)


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
        loc = band_positions(mesh.rcm_rank, act)
        band = upper_band(loc[mesh.pattern_rows[sys_.pattern_pos]],
                          loc[mesh.pattern_cols[sys_.pattern_pos]], sys_.A.data, act.size)
        pos = loc[act]
        rhs = np.empty(act.size)
        rhs[pos] = sys_.f[act]
        unrefined_u = np.zeros_like(sys_.f)
        unrefined_u[act] = sla.cho_solve_banded((sla.cholesky_banded(band), False), rhs)[pos]
        unrefined = np.linalg.norm(residual(sys_, unrefined_u)[act])
        refined = np.linalg.norm(residual(sys_, solve_fom(sys_).u)[act])
        assert refined < unrefined


def _rcm_bandwidth(mesh):
    """Bandwidth of the whole mesh pattern in the mesh's RCM order."""
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(mesh.pattern_indptr))
    return int(np.abs(mesh.rcm_rank[rows] - mesh.rcm_rank[mesh.pattern_cols]).max())


# an ellipse through the background vertex (-1.08, 0) of both meshes
VERTEX_MU = ParameterPoint(1.08 ** 2, 1.1)
# the four corners of the default parameter box, and VERTEX_MU
ADVERSARIAL_MU = [ParameterPoint(1.0, 1.0), ParameterPoint(1.0, 1.2), ParameterPoint(1.2, 1.0),
                  ParameterPoint(1.2, 1.2), VERTEX_MU]


@pytest.mark.parametrize("h", [0.125, 0.06])
@pytest.mark.parametrize("mu", ADVERSARIAL_MU, ids=["corner-lo-lo", "corner-lo-hi",
                                                    "corner-hi-lo", "corner-hi-hi",
                                                    "vertex-on-interface"])
def test_adversarial_mu_matches_dense_cholesky(default_phys, mu, h):
    mesh = build_background_mesh(BOX, h)
    if mu == VERTEX_MU:
        assert (level_set(mu, *mesh.vertices_t) == 0.0).any()
    sys_ = assemble_system(build_cut_geometry(mesh, mu), default_phys)
    act = sys_.active_dofs
    ref = sla.cho_solve(sla.cho_factor(sys_.A[act][:, act].toarray()), sys_.f[act])
    sol = solve_fom(sys_)
    assert np.linalg.norm(sol.u[act] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert 0 < sol.bandwidth <= _rcm_bandwidth(mesh)
    # the RCM numbering is narrower than the block's natural one
    a_act = sys_.A[act][:, act].tocoo()
    assert sol.bandwidth < np.abs(a_act.row - a_act.col).max()


_THREAD_PROBE = """
import hashlib, numpy as np
from cutrom.assembly import assemble_system, physics_from_config
from cutrom.config import Config
from cutrom.fom import solve_fom
from cutrom.geometry import ParameterPoint, build_background_mesh, build_cut_geometry
mesh = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 0.06)
phys = physics_from_config(Config())
digest = hashlib.sha256()
for mu in ((1.0, 1.0), (1.07, 1.13), (1.19, 1.02), (1.2, 1.2)):
    system = assemble_system(build_cut_geometry(mesh, ParameterPoint(*mu)), phys)
    digest.update(solve_fom(system).u.tobytes())
print(digest.hexdigest())
"""


def test_solution_bytes_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutrom.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
    assert digests[0] == digests[1]
