"""Reduced operators precomputed offline and the sampled online solve.

The online stage has two steps.  ``prepare`` samples the planned entries for
one parameter and turns them into interpolation coefficients; they depend on
the parameter only, not on the mode count.  ``solve`` then forms and solves
the reduced system for one mode count and lifts it.  ``rom_online_solve`` is
one standalone query: both steps at one mode count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import deim as deim_mod
from .assembly import EntryPlan, PhysicsParams, evaluate_entries
from .deim import DeimOperator, UnionPattern
from .geometry import BackgroundMesh, CutGeometry, ParameterPoint, build_cut_geometry
from .pod import PodBasis


class RomError(RuntimeError):
    pass


@dataclass
class RomOffline:
    """Everything the online stage needs: reduced blocks per interpolation
    basis element, the sampling plan, and the assembly context.

    The sample entries and their plan are derived from the interpolation
    indices here, so a freshly built and a loaded model get them one way.
    """

    pod: PodBasis
    deim_a: DeimOperator
    deim_f: DeimOperator
    blocks_a: np.ndarray  # (l_A, n_max, n_max)
    blocks_f: np.ndarray  # (l_f, n_max)
    mesh: BackgroundMesh
    phys: PhysicsParams
    pattern: UnionPattern = field(init=False)
    matrix_sample_entries: np.ndarray = field(init=False)  # (l_A, 2) dof pairs
    vector_sample_entries: np.ndarray = field(init=False)  # (l_f,) dof indices
    plan: EntryPlan = field(init=False)

    def __post_init__(self):
        self.pattern = self.deim_a.pattern
        self.matrix_sample_entries = np.column_stack(
            [self.pattern.rows[self.deim_a.indices], self.pattern.cols[self.deim_a.indices]]
        )
        self.vector_sample_entries = self.deim_f.indices.copy()
        self.plan = EntryPlan(self.mesh, self.phys, self.matrix_sample_entries,
                              self.vector_sample_entries)


@dataclass
class OnlinePrep:
    """Interpolation coefficients of one parameter, shared by every mode
    count, and the time taken to sample the entries and compute them."""

    mu: ParameterPoint
    c_a: np.ndarray
    c_f: np.ndarray
    time: float


@dataclass
class RomSolution:
    """Reduced coefficients, the lifted full-order vector, and online time
    covering sampling, coefficients, reduced solve and lift only."""

    u_hat: np.ndarray
    u_lifted: np.ndarray
    n: int
    online_time: float


def build_rom_offline(pod: PodBasis, deim_a: DeimOperator, deim_f: DeimOperator,
                      mesh: BackgroundMesh, phys: PhysicsParams) -> RomOffline:
    """Project every interpolation basis matrix/vector onto the mode basis.

    Matrix basis elements are symmetrized before projection, matching the
    symmetrization applied by ``deim.reconstruct``.
    """
    if deim_a.pattern is None:
        raise RomError("matrix operator must carry the union pattern")
    pattern = deim_a.pattern
    v = pod.V
    n_max = pod.n_max
    l_a = deim_a.l
    l_f = deim_f.l
    blocks_a = np.empty((l_a, n_max, n_max))
    for j in range(l_a):
        basis_mat = pattern.matrix_from_values(deim_a.U[:, j])
        basis_mat = ((basis_mat + basis_mat.T) * 0.5).tocsr()
        blocks_a[j] = v.T @ (basis_mat @ v)
    blocks_f = np.empty((l_f, n_max))
    for j in range(l_f):
        blocks_f[j] = v.T @ deim_f.U[:, j]
    return RomOffline(pod=pod, deim_a=deim_a, deim_f=deim_f, blocks_a=blocks_a,
                      blocks_f=blocks_f, mesh=mesh, phys=phys)


def sample_entries(offline: RomOffline, geom: CutGeometry):
    """Evaluate the planned stiffness/load entries for one parameter."""
    return evaluate_entries(geom, offline.plan)


def prepare(offline: RomOffline, geom: CutGeometry) -> OnlinePrep:
    """Timed per-parameter step: (i) sample entries, (ii) interpolation
    coefficients."""
    t0 = time.perf_counter()
    a_samp, f_samp = sample_entries(offline, geom)
    c_a = deim_mod.deim_coefficients(offline.deim_a, a_samp)
    c_f = deim_mod.deim_coefficients(offline.deim_f, f_samp)
    return OnlinePrep(mu=geom.mu, c_a=c_a, c_f=c_f, time=time.perf_counter() - t0)


def solve(offline: RomOffline, prep: OnlinePrep, n: int) -> RomSolution:
    """Timed per-mode-count step: (iii) dense n x n solve, (iv) lift.

    The reduced operator for n modes is the leading sub-block of the
    precomputed n_max blocks, valid because mode order is fixed.  The
    solution's online time adds the time of ``prep``, so it is the cost of
    one standalone query at n.
    """
    if not (1 <= n <= offline.pod.n_max):
        raise RomError(f"mode count {n} outside [1, {offline.pod.n_max}]")
    t0 = time.perf_counter()
    a_hat = np.tensordot(prep.c_a, offline.blocks_a[:, :n, :n], axes=(0, 0))
    f_hat = prep.c_f @ offline.blocks_f[:, :n]
    try:
        u_hat = np.linalg.solve(a_hat, f_hat)
    except np.linalg.LinAlgError as exc:
        raise RomError(f"singular reduced system at mu={prep.mu}, n={n}: {exc}") from exc
    u_lifted = offline.pod.V[:, :n] @ u_hat
    dt = prep.time + (time.perf_counter() - t0)
    return RomSolution(u_hat=u_hat, u_lifted=u_lifted, n=n, online_time=dt)


def rom_online_solve(offline: RomOffline, mu: ParameterPoint, n: int,
                     geom: CutGeometry | None = None) -> RomSolution:
    """One standalone online query: ``prepare`` and ``solve`` at n modes.

    A ``geom`` passed in must be the geometry of ``mu``."""
    if geom is None:
        geom = build_cut_geometry(offline.mesh, mu)
    elif geom.mu != mu:
        raise RomError(f"geometry was built for mu={geom.mu}, not for the queried mu={mu}")
    return solve(offline, prepare(offline, geom), n)
