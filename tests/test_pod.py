import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutrom
from cutrom.assembly import assemble_mass_matrix, assemble_system
from cutrom.fom import solve_fom
from cutrom.geometry import ParameterPoint, build_cut_geometry
from cutrom.pod import PodError, build_pod_basis, projection_tail_gap, tail_energy


@pytest.fixture(scope="module")
def small_snapshots(default_mesh, default_phys):
    rng = np.random.default_rng(7)
    mus = 1.0 + 0.2 * rng.random((24, 2))
    cols = []
    for r, t in mus:
        geom = build_cut_geometry(default_mesh, ParameterPoint(r, t))
        cols.append(solve_fom(assemble_system(geom, default_phys)).u)
    return np.column_stack(cols)


def test_rank_one_family(default_mesh):
    mass = assemble_mass_matrix(default_mesh)
    col = np.zeros(default_mesh.n_vertices)
    col[5] = 2.0
    col[17] = -1.0
    pod = build_pod_basis(np.column_stack([col] * 6), mass, 1e-6)
    assert np.count_nonzero(pod.sigma > 0) == 1
    assert pod.n_max == 1 and pod.n_energy == 1
    norm_m = np.sqrt(col @ (mass @ col))
    expected = col / norm_m
    # eigenvector sign is not pinned down
    assert min(np.abs(pod.V[:, 0] - expected).max(),
               np.abs(pod.V[:, 0] + expected).max()) <= 1e-12


def test_modes_mass_orthonormal(default_mesh, small_snapshots):
    mass = assemble_mass_matrix(default_mesh)
    pod = build_pod_basis(small_snapshots, mass, 1e-10)
    gram = pod.V.T @ (mass @ pod.V)
    assert np.abs(gram - np.eye(pod.n_max)).max() <= 1e-10


def test_projection_identity(default_mesh, small_snapshots):
    mass = assemble_mass_matrix(default_mesh)
    pod = build_pod_basis(small_snapshots, mass, 1e-12, min_modes=20)
    for n in (2, 5, 8, 12, 16, 20):
        assert projection_tail_gap(pod, small_snapshots, mass, n) <= 1e-8


_THREAD_PROBE = """
import sys
import numpy as np
from cutrom.assembly import assemble_mass_matrix, assemble_system, physics_from_config
from cutrom.config import Config
from cutrom.fom import solve_fom
from cutrom.geometry import ParameterPoint, build_background_mesh, build_cut_geometry
from cutrom.pod import build_pod_basis
mesh = build_background_mesh(((-1.2, 1.2), (-1.2, 1.2)), 0.125)
phys = physics_from_config(Config())
mus = 1.0 + 0.2 * np.random.default_rng(7).random((100, 2))
snaps = np.column_stack([
    solve_fom(assemble_system(build_cut_geometry(mesh, ParameterPoint(*mu)), phys)).u
    for mu in mus
])
np.save(sys.argv[1], build_pod_basis(snaps, assemble_mass_matrix(mesh), 1e-12, min_modes=20).V)
"""


def test_modes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutrom.__file__)))
    modes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"modes_{threads}.npy"
        subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(out)], env=env, check=True,
                       capture_output=True, text=True, timeout=300)
        modes.append(np.load(out))
    one, two = modes
    assert one.shape == two.shape and one.shape[1] >= 20
    # a mode's sign is not pinned down
    two = two * np.sign(np.sum(one * two, axis=0))
    assert np.abs(one - two).max() <= 1e-12 * np.abs(one).max()


def test_min_modes_extension(default_mesh, small_snapshots):
    mass = assemble_mass_matrix(default_mesh)
    plain = build_pod_basis(small_snapshots, mass, 1e-6)
    extended = build_pod_basis(small_snapshots, mass, 1e-6, min_modes=plain.n_energy + 4)
    assert extended.n_energy == plain.n_energy
    assert extended.n_max == plain.n_energy + 4
    assert extended.V.shape[1] == extended.n_max
    # leading modes agree: the extension only appends columns
    assert np.allclose(extended.V[:, :plain.n_max], plain.V, atol=1e-10)


def test_all_zero_snapshots_rejected(default_mesh):
    mass = assemble_mass_matrix(default_mesh)
    with pytest.raises(PodError):
        build_pod_basis(np.zeros((default_mesh.n_vertices, 3)), mass, 1e-6)


def test_tail_energy_endpoints():
    sigma = np.array([4.0, 2.0, 1.0, 0.5])
    assert tail_energy(sigma, 0) == 1.0
    assert tail_energy(sigma, len(sigma)) == 0.0
    assert tail_energy(sigma, 2) == pytest.approx(1.5 / 7.5, rel=1e-14)


def test_tail_energy_errors():
    with pytest.raises(PodError):
        tail_energy(np.zeros(4), 1)
    with pytest.raises(PodError):
        tail_energy(np.array([1.0]), 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=40))
def test_tail_energy_monotone(values):
    sigma = np.sort(np.asarray(values))[::-1]
    if sigma.sum() <= 0:
        return
    tails = [tail_energy(sigma, n) for n in range(len(sigma) + 1)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert all(0.0 <= t <= 1.0 for t in tails)
