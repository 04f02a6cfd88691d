import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrom.assembly import assemble_mass_matrix, assemble_system
from cutrom.fom import solve_fom
from cutrom.geometry import ParameterPoint, build_cut_geometry
from cutrom.pod import PodError, build_pod_basis, tail_energy


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
    pod = build_pod_basis(small_snapshots, mass, 1e-12, min_modes=8)
    s = small_snapshots
    for n in (2, 5, 8):
        v_n = pod.V[:, :n]
        proj = v_n @ (v_n.T @ (mass @ s))
        diff = s - proj
        lhs = float((diff * (mass @ diff)).sum())
        rhs = float(pod.sigma[n:].sum())
        assert abs(lhs - rhs) <= 1e-8 * rhs


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
