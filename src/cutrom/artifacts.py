"""Offline artifact persistence: one numpy ``.npy`` file per array plus a manifest.

``_ARRAYS`` lists every saved array once, with its dtype and its shape in the
model's sizes; the manifest records the format version, the config hash and
those sizes.  A load reads only those arrays: other files in the directory
are ignored.  The hash (``Config.hash``) covers every config field but the
sweep grid, the test count, the fit windows and the paths, so a model loads
under any config that differs from its own only there; ``run_online_sweep``
applies the same rule.

The format is 7 (``FORMAT_VERSION``).  It stores the union pattern as its
upper positions (``pattern_positions``, row <= col), the matrix DEIM basis
``deim_a_basis`` with one row per position, and the matrix interpolation
indices ``deim_a_indices`` as rows of that basis, in [0,
``pattern_size``).  The reduced blocks are in the DEIM online form:
``blocks_a`` and ``blocks_f`` have the interpolation inverses folded in
(``rom.build_rom_offline``), so they multiply the sampled entries directly.

Loading raises ``ArtifactError``, naming the array or the manifest, on any
format version other than 7, by its number, before any array is read: a
format 4 model holds unfolded blocks of format 7's shapes, which would give
a wrong reduced system with no error.  It also raises on a config that
differs in a hashed field; on an array that is missing, unreadable,
pickled, or of the wrong dtype or shape; on a float array that holds a
NaN or an infinity (it would give a non-finite online solution and no
error); on a negative POD spectrum value; on union-pattern positions that are
not strictly increasing inside the mesh's assembly pattern or lie below its
diagonal; and on an interpolation index out of range or repeated.  A save
removes the old manifest first and writes the new one last, so an
interrupted save leaves nothing loadable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .config import Config
from .deim import DeimError, DeimOperator, UnionPattern, deim_operator
from .geometry import BackgroundMesh, build_background_mesh
from .assembly import EntryPlan, PhysicsParams, physics_from_config
from .pod import PodBasis, truncation_rank
from .rom import packed_upper_index

FORMAT_VERSION = 7


class ArtifactError(RuntimeError):
    pass


@dataclass
class OfflineArtifacts:
    """The offline model: everything the online stage needs, and what it is
    saved and rebuilt from.

    The physics is derived from ``config``, so it cannot disagree with the
    config whose hash names the model.  The union pattern (the matrix
    operator's), the sample entries and their plan are derived from the
    interpolation indices here, so a freshly built and a loaded model get
    them one way.  ``snapshots`` holds the training solutions of a fresh
    build, for the mode-energy check; it is never saved, and is None after
    loading.
    """

    config: Config
    mesh: BackgroundMesh
    pod: PodBasis
    deim_a: DeimOperator
    deim_f: DeimOperator
    blocks_a: np.ndarray  # (n_max (n_max + 1) / 2, l_A) folded, see rom.build_rom_offline
    blocks_f: np.ndarray  # (l_f, n_max) folded
    snapshots: np.ndarray | None = None
    phys: PhysicsParams = field(init=False)
    pattern: UnionPattern = field(init=False)
    matrix_sample_entries: np.ndarray = field(init=False)  # (l_A, 2) dof pairs
    vector_sample_entries: np.ndarray = field(init=False)  # (l_f,) dof indices
    plan: EntryPlan = field(init=False)
    packed_index: np.ndarray = field(init=False)  # (n_max, n_max) rows of blocks_a

    def __post_init__(self):
        self.phys = physics_from_config(self.config)
        self.pattern = self.deim_a.pattern
        sampled = self.pattern.positions[self.deim_a.indices]
        self.matrix_sample_entries = np.column_stack(
            [self.mesh.pattern_rows[sampled], self.mesh.pattern_cols[sampled]]
        )
        self.vector_sample_entries = self.deim_f.indices.copy()
        self.plan = EntryPlan(self.mesh, self.phys, sampled, self.vector_sample_entries)
        self.packed_index = packed_upper_index(self.pod.n_max)

    @property
    def rom(self) -> OfflineArtifacts:
        """This object itself.  ``perfbench/harness.py`` reads ``art.rom``;
        the alias goes when the harness moves to the direct names."""
        return self


# name, attribute path on OfflineArtifacts, dtype, shape in the sizes of
# ``_expected_shapes`` (an integer stands for itself)
_ARRAYS = (
    ("pod_modes", "pod.V", np.float64, ("n", "n_max")),
    ("pod_sigma", "pod.sigma", np.float64, ("s_n",)),
    ("deim_a_basis", "deim_a.U", np.float64, ("pattern_size", "l_a")),
    ("deim_a_indices", "deim_a.indices", np.int64, ("l_a",)),
    ("deim_f_basis", "deim_f.U", np.float64, ("n", "l_f")),
    ("deim_f_indices", "deim_f.indices", np.int64, ("l_f",)),
    ("pattern_positions", "pattern.positions", np.int64, ("pattern_size",)),
    ("blocks_a", "blocks_a", np.float64, ("n_packed", "l_a")),  # see rom.packed_upper_index
    ("blocks_f", "blocks_f", np.float64, ("l_f", "n_max")),
)
_SIZES = ("n_vertices", "n_max", "l_a", "l_f", "pattern_size")


def _expected_shapes(config: Config, n: int, n_max: int, l_a: int, l_f: int,
                     pattern_size: int) -> dict:
    """Shape of each array for the manifest's sizes.  The POD spectrum is
    that of the thin SVD of the (n, n_train) snapshot matrix: min(n,
    n_train) values."""
    sizes = {"n": n, "n_max": n_max, "l_a": l_a, "l_f": l_f, "pattern_size": pattern_size,
             "n_packed": n_max * (n_max + 1) // 2, "s_n": min(n, config.n_train)}
    return {name: tuple(sizes.get(d, d) for d in dims) for name, _, _, dims in _ARRAYS}


def _save_array(dirpath: str, name: str, arr: np.ndarray) -> None:
    np.save(os.path.join(dirpath, name + ".npy"), arr)


def save_artifacts(dirpath: str, art: OfflineArtifacts) -> None:
    os.makedirs(dirpath, exist_ok=True)
    manifest = os.path.join(dirpath, "manifest.txt")
    if os.path.exists(manifest):
        os.remove(manifest)
    for name, attr, _, _ in _ARRAYS:
        _save_array(dirpath, name, attrgetter(attr)(art))
    lines = [
        f"format_version = {FORMAT_VERSION}",
        f"config_hash = {art.config.hash()}",
        f"seed = {art.config.seed}",
        f"n_vertices = {art.mesh.n_vertices}",
        f"n_max = {art.pod.n_max}",
        f"l_a = {art.deim_a.l}",
        f"l_f = {art.deim_f.l}",
        f"pattern_size = {art.pattern.size}",
        "arrays = " + ",".join(name for name, *_ in _ARRAYS),
    ]
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_values(path: str) -> dict:
    """The ``key = value`` lines of a text file, key and value stripped: the
    manifest here, and the report's ``report_meta.txt``."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _load_array(dirpath: str, name: str, dtype, shape: tuple) -> np.ndarray:
    path = os.path.join(dirpath, name + ".npy")
    try:
        arr = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise ArtifactError(f"{name} cannot be read from {path!r}: {exc}") from None
    if not isinstance(arr, np.ndarray):
        raise ArtifactError(f"{name}: {path!r} is an .npz archive, not an .npy file")
    if arr.dtype != dtype:
        raise ArtifactError(f"{name} has dtype {arr.dtype}, expected {np.dtype(dtype)}")
    if arr.shape != shape:
        raise ArtifactError(f"{name} has shape {arr.shape}, but the manifest "
                            f"and the mesh give {shape}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ArtifactError(f"{name} holds a non-finite value")
    return arr


def _require_indices(name: str, indices: np.ndarray, bound: int) -> None:
    if np.any((indices < 0) | (indices >= bound)):
        raise ArtifactError(f"{name} holds an index outside [0, {bound})")
    if np.unique(indices).size != indices.size:
        raise ArtifactError(f"{name} holds a repeated index")


def load_artifacts(dirpath: str, config: Config) -> OfflineArtifacts:
    """Load the model saved in ``dirpath``: refuse a format version other
    than 7 by its number, verify the config hash, check the arrays, and
    rebuild the derived objects."""
    path = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(path):
        raise ArtifactError(f"no manifest in {dirpath!r}")
    manifest = read_key_values(path)
    if manifest.get("format_version") != str(FORMAT_VERSION):
        raise ArtifactError(f"unsupported manifest version {manifest.get('format_version')!r}: "
                            f"this build reads format {FORMAT_VERSION} only")
    if manifest.get("config_hash") != config.hash():
        raise ArtifactError(
            "artifact config hash mismatch: artifacts were produced by a "
            "different configuration; refusing to load stale artifacts"
        )
    try:
        n, n_max, l_a, l_f, pattern_size = (int(manifest[key]) for key in _SIZES)
    except (KeyError, ValueError):
        raise ArtifactError(f"manifest in {dirpath!r} lacks an integer for one of "
                            f"{', '.join(_SIZES)}") from None
    mesh = build_background_mesh(config.box, config.h_target)
    if mesh.n_vertices != n:
        raise ArtifactError("mesh size does not match manifest")
    shapes = _expected_shapes(config, n, n_max, l_a, l_f, pattern_size)
    data = {name: _load_array(dirpath, name, dtype, shapes[name])
            for name, _, dtype, _ in _ARRAYS}
    positions = data["pattern_positions"]
    if np.any(np.diff(positions) <= 0):
        raise ArtifactError("pattern_positions is not strictly increasing")
    _require_indices("pattern_positions", positions, mesh.pattern_cols.size)
    try:
        pattern = UnionPattern(mesh, positions)
    except DeimError as exc:
        raise ArtifactError(f"pattern_positions: {exc}") from None
    _require_indices("deim_a_indices", data["deim_a_indices"], pattern_size)
    _require_indices("deim_f_indices", data["deim_f_indices"], n)
    if not (data["pod_sigma"] >= 0.0).all():
        raise ArtifactError("pod_sigma holds a negative value")
    pod = PodBasis(
        V=data["pod_modes"],
        sigma=data["pod_sigma"],
        n_max=n_max,
        n_energy=truncation_rank(np.sqrt(data["pod_sigma"]), config.eps_pod),
    )
    deim_a = deim_operator(data["deim_a_basis"], data["deim_a_indices"], pattern)
    deim_f = deim_operator(data["deim_f_basis"], data["deim_f_indices"])
    return OfflineArtifacts(
        config=config, mesh=mesh, pod=pod, deim_a=deim_a, deim_f=deim_f,
        blocks_a=data["blocks_a"], blocks_f=data["blocks_f"],
    )
