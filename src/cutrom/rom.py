"""Reduced blocks projected offline and the sampled online solve.

The blocks, the interpolation operators and the entry plan are carried by
one offline object, ``artifacts.OfflineArtifacts``.  The online stage has
two steps.  ``prepare`` samples the planned entries for one parameter and
turns them into interpolation coefficients; they depend on the parameter
only, not on the mode count.  ``solve`` then forms and solves the reduced
system for one mode count and lifts it.  ``rom_online_solve`` is one
standalone query: both steps at one mode count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import deim as deim_mod
from .assembly import evaluate_entries
from .deim import DeimOperator
from .geometry import CutGeometry, ParameterPoint, build_cut_geometry, require_inside_box
from .pod import PodBasis

if TYPE_CHECKING:
    from .artifacts import OfflineArtifacts


class RomError(RuntimeError):
    pass


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


def build_rom_offline(pod: PodBasis, deim_a: DeimOperator, deim_f: DeimOperator):
    """Project every interpolation basis matrix/vector onto the mode basis:
    ``(blocks_a, blocks_f)`` of shapes (l_A, n_max, n_max) and (l_f, n_max).

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
    return blocks_a, blocks_f


def sample_entries(art: OfflineArtifacts, geom: CutGeometry):
    """Evaluate the planned stiffness/load entries for one parameter."""
    return evaluate_entries(geom, art.plan)


def prepare(art: OfflineArtifacts, geom: CutGeometry) -> OnlinePrep:
    """Timed per-parameter step: (i) sample entries, (ii) interpolation
    coefficients."""
    t0 = time.perf_counter()
    a_samp, f_samp = sample_entries(art, geom)
    c_a = deim_mod.deim_coefficients(art.deim_a, a_samp)
    c_f = deim_mod.deim_coefficients(art.deim_f, f_samp)
    return OnlinePrep(mu=geom.mu, c_a=c_a, c_f=c_f, time=time.perf_counter() - t0)


def solve(art: OfflineArtifacts, prep: OnlinePrep, n: int) -> RomSolution:
    """Timed per-mode-count step: (iii) dense n x n solve, (iv) lift.

    The reduced operator for n modes is the leading sub-block of the
    precomputed n_max blocks, valid because mode order is fixed.  The
    solution's online time adds the time of ``prep``, so it is the cost of
    one standalone query at n.
    """
    if not (1 <= n <= art.pod.n_max):
        raise RomError(f"mode count {n} outside [1, {art.pod.n_max}]")
    t0 = time.perf_counter()
    a_hat = np.tensordot(prep.c_a, art.blocks_a[:, :n, :n], axes=(0, 0))
    f_hat = prep.c_f @ art.blocks_f[:, :n]
    try:
        u_hat = np.linalg.solve(a_hat, f_hat)
    except np.linalg.LinAlgError as exc:
        raise RomError(f"singular reduced system at mu={prep.mu}, n={n}: {exc}") from exc
    u_lifted = art.pod.V[:, :n] @ u_hat
    dt = prep.time + (time.perf_counter() - t0)
    return RomSolution(u_hat=u_hat, u_lifted=u_lifted, n=n, online_time=dt)


def rom_online_solve(art: OfflineArtifacts, mu: ParameterPoint, n: int,
                     geom: CutGeometry | None = None) -> RomSolution:
    """One standalone online query: ``prepare`` and ``solve`` at n modes.

    Raises ``GeometryError`` for an ellipse that leaves the background box.
    A ``geom`` passed in must be the geometry of ``mu``."""
    require_inside_box(mu, art.config.box)
    if geom is None:
        geom = build_cut_geometry(art.mesh, mu)
    elif geom.mu != mu:
        raise RomError(f"geometry was built for mu={geom.mu}, not for the queried mu={mu}")
    return solve(art, prepare(art, geom), n)
