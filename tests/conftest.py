import dataclasses
import time

import numpy as np
import pytest
import scipy.sparse as sp

from cutrom.assembly import assemble_mass_matrix, physics_from_config
from cutrom.config import Config
from cutrom.geometry import INSIDE, ParameterPoint, build_background_mesh
from cutrom.pipeline import emit_report, run_offline, run_online_sweep

DEFAULT_BOX = ((-1.2, 1.2), (-1.2, 1.2))


class WholeUnion:
    """The whole symmetric union that a ``deim.UnionPattern`` is the upper
    half of, built here as the tests' reference: its mesh ``positions``,
    each entry's ``transpose`` among them, each entry's ``twin`` (the
    pattern row of its upper entry), and the entry of each pattern row
    (``upper``)."""

    def __init__(self, mesh, pattern):
        upper = pattern.positions
        self.n = mesh.n_vertices
        self.positions = np.union1d(upper, mesh.pattern_transpose[upper])
        mirror = mesh.pattern_transpose[self.positions]
        self.size = self.positions.size
        self.transpose = np.searchsorted(self.positions, mirror)
        self.twin = np.searchsorted(upper, np.minimum(self.positions, mirror))
        self.upper = np.searchsorted(self.positions, upper)
        self.cols = mesh.pattern_cols[self.positions]
        self.indptr = np.searchsorted(mesh.pattern_rows[self.positions], np.arange(self.n + 1))

    def vector(self, positions, values):
        """The matrix with ``values`` at the mesh ``positions`` (all in the
        union) as a vector over the whole union, zero where it stores
        nothing."""
        out = np.zeros(self.size)
        out[np.searchsorted(self.positions, positions)] = values
        return out

    def matrix(self, values):
        """The CSR matrix with ``values`` over the whole union."""
        return sp.csr_matrix((values, self.cols, self.indptr), shape=(self.n, self.n))


@pytest.fixture(scope="session")
def whole_union():
    return WholeUnion


def _domain_area(geom, rule):
    """Area of the domain of ``geom``: its inside elements' areas plus the
    sub-triangle areas of ``rule``, a cut rule of all its cut elements
    (``geometry.cut_rule``, or the ``stage.rule`` of its assembly)."""
    return float(geom.mesh.tri_area[geom.elem_class == INSIDE].sum() + rule.vol_wts.sum())


@pytest.fixture(scope="session")
def domain_area():
    return _domain_area


@pytest.fixture(scope="session")
def default_mesh():
    return build_background_mesh(DEFAULT_BOX, 0.125)


@pytest.fixture(scope="session")
def near_tangent_mu(default_mesh):
    """Ellipses tangent to a grid line at a mesh vertex, and one ulp either
    side: r = x_v^2 with x_v = 1.08 (to rounding) the vertex on the positive
    x axis, so the ellipse touches the vertical line x = x_v at (x_v, 0);
    then the same in theta for the vertex (0, x_v).  x_v^2 = 1.1664 lies in
    the parameter box [1, 1.2]."""
    x = default_mesh.vertices[:, 0]
    x_v = x[np.argmin(np.abs(x - 1.08))]
    on = x_v * x_v
    values = (np.nextafter(on, 0.0), on, np.nextafter(on, 2.0))
    return [ParameterPoint(v, 1.1) for v in values] + [ParameterPoint(1.1, v) for v in values]


@pytest.fixture(scope="session")
def default_phys():
    return physics_from_config(Config())


@pytest.fixture(scope="session")
def patch_phys(default_phys):
    return dataclasses.replace(default_phys, f_const=0.0, g_coeffs=(1.0, 2.0, 3.0, 0.0))


@pytest.fixture(scope="session")
def small_config():
    return Config(n_train=30, n_test=4, n_list=(2, 4, 6), seed=0).validate()


@pytest.fixture(scope="session")
def small_run(small_config):
    art = run_offline(small_config)
    report = run_online_sweep(art, small_config)
    return art, report


class DefaultRun:
    """Default-configuration pipeline products shared by the acceptance suite."""

    def __init__(self):
        self.config = Config().validate()
        t0 = time.perf_counter()
        self.artifacts = run_offline(self.config)
        self.report = run_online_sweep(self.artifacts, self.config)
        self.pipeline_seconds = time.perf_counter() - t0
        self._mass = None

    @property
    def mass(self):
        if self._mass is None:
            self._mass = assemble_mass_matrix(self.artifacts.mesh)
        return self._mass

    @property
    def snapshots(self):
        return self.artifacts.snapshots

    def emit(self, dirpath):
        t0 = time.perf_counter()
        paths = emit_report(self.report, dirpath)
        self.pipeline_seconds += time.perf_counter() - t0
        return paths


@pytest.fixture(scope="session")
def default_run():
    return DefaultRun()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
