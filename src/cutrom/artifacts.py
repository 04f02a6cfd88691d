"""Offline artifact persistence: one binary container per array plus a manifest.

Container layout (little endian): magic ``CROM``, format version byte (1),
dtype code byte (1 = float64, 2 = int64), ndim byte, ndim uint64 shape values,
then the row-major payload.  The manifest records the config hash; loading
against a different configuration is refused.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .deim import MATRIX, VECTOR, DeimOperator, UnionPattern, deim_operator
from .geometry import BackgroundMesh, build_background_mesh
from .assembly import EntryPlan, PhysicsParams, physics_from_config
from .pod import PodBasis, energy_mode_count

MAGIC = b"CROM"
FORMAT_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<i8")}
_CODE_OF = {np.dtype("float64"): 1, np.dtype("int64"): 2}


class ArtifactError(RuntimeError):
    pass


def save_array(path: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODE_OF:
        raise ArtifactError(f"unsupported dtype {arr.dtype}")
    code = _CODE_OF[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BBB", FORMAT_VERSION, code, arr.ndim))
        for s in arr.shape:
            fh.write(struct.pack("<Q", s))
        fh.write(arr.astype(_DTYPE_CODES[code], copy=False).tobytes(order="C"))


def load_array(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ArtifactError(f"bad magic in {path!r}: {magic!r}")
        header = fh.read(3)
        if len(header) != 3:
            raise ArtifactError(f"truncated header in {path!r}")
        version, code, ndim = struct.unpack("<BBB", header)
        if version != FORMAT_VERSION:
            raise ArtifactError(f"unsupported format version {version} in {path!r}")
        if code not in _DTYPE_CODES:
            raise ArtifactError(f"unknown dtype code {code} in {path!r}")
        shape = []
        for _ in range(ndim):
            raw = fh.read(8)
            if len(raw) != 8:
                raise ArtifactError(f"truncated shape in {path!r}")
            shape.append(struct.unpack("<Q", raw)[0])
        payload = fh.read()
    dtype = _DTYPE_CODES[code]
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if len(payload) != count * dtype.itemsize:
        raise ArtifactError(f"payload size mismatch in {path!r}")
    arr = np.frombuffer(payload, dtype=dtype)
    return arr.reshape(shape).copy()


@dataclass
class OfflineArtifacts:
    """The offline model: everything the online stage needs, and what it is
    saved and rebuilt from.

    The union pattern (the matrix operator's), the sample entries and their
    plan are derived from the interpolation indices here, so a freshly built
    and a loaded model get them one way.  ``snapshots`` holds the training
    solutions of a fresh build, for the mode-energy check; it is never saved,
    and is None after loading.
    """

    config: Config
    mesh: BackgroundMesh
    phys: PhysicsParams
    pod: PodBasis
    deim_a: DeimOperator
    deim_f: DeimOperator
    blocks_a: np.ndarray  # (l_A, n_max, n_max)
    blocks_f: np.ndarray  # (l_f, n_max)
    train_mu: np.ndarray
    snapshots: np.ndarray | None = None
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

    @property
    def rom(self) -> OfflineArtifacts:
        """This object itself.  ``perfbench/harness.py`` reads ``art.rom``;
        the alias goes when the harness moves to the direct names."""
        return self


_ARRAYS = (
    "pod_modes",
    "pod_sigma",
    "deim_a_basis",
    "deim_a_indices",
    "deim_a_singular_values",
    "deim_f_basis",
    "deim_f_indices",
    "deim_f_singular_values",
    "pattern_codes",
    "blocks_a",
    "blocks_f",
    "train_mu",
)


def save_artifacts(dirpath: str, art: OfflineArtifacts) -> None:
    os.makedirs(dirpath, exist_ok=True)
    arrays = {
        "pod_modes": art.pod.V,
        "pod_sigma": art.pod.sigma,
        "deim_a_basis": art.deim_a.U,
        "deim_a_indices": art.deim_a.indices,
        "deim_a_singular_values": art.deim_a.singular_values,
        "deim_f_basis": art.deim_f.U,
        "deim_f_indices": art.deim_f.indices,
        "deim_f_singular_values": art.deim_f.singular_values,
        "pattern_codes": art.pattern.codes,
        "blocks_a": art.blocks_a,
        "blocks_f": art.blocks_f,
        "train_mu": art.train_mu,
    }
    for name in _ARRAYS:
        save_array(os.path.join(dirpath, name + ".crom"), arrays[name])
    lines = [
        f"format_version = {FORMAT_VERSION}",
        f"config_hash = {art.config.hash()}",
        f"seed = {art.config.seed}",
        f"n_vertices = {art.mesh.n_vertices}",
        f"n_max = {art.pod.n_max}",
        f"l_a = {art.deim_a.l}",
        f"l_f = {art.deim_f.l}",
        "arrays = " + ",".join(_ARRAYS),
    ]
    with open(os.path.join(dirpath, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_manifest(dirpath: str) -> dict:
    path = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(path):
        raise ArtifactError(f"no manifest in {dirpath!r}")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def load_artifacts(dirpath: str, config: Config) -> OfflineArtifacts:
    """Load arrays, verify the config hash, and rebuild the derived objects."""
    manifest = _read_manifest(dirpath)
    if manifest.get("format_version") != str(FORMAT_VERSION):
        raise ArtifactError(f"unsupported manifest version {manifest.get('format_version')!r}")
    if manifest.get("config_hash") != config.hash():
        raise ArtifactError(
            "artifact config hash mismatch: artifacts were produced by a "
            "different configuration; refusing to load stale artifacts"
        )
    data = {name: load_array(os.path.join(dirpath, name + ".crom")) for name in _ARRAYS}

    mesh = build_background_mesh(config.box, config.h_target)
    if mesh.n_vertices != int(manifest.get("n_vertices", -1)):
        raise ArtifactError("mesh size does not match manifest")
    n = mesh.n_vertices
    n_max, l_a, l_f = (int(manifest.get(key, -1)) for key in ("n_max", "l_a", "l_f"))
    expected = {
        "pod_modes": (n, n_max),
        "deim_a_basis": (data["pattern_codes"].size, l_a),
        "deim_a_indices": (l_a,),
        "deim_f_basis": (n, l_f),
        "deim_f_indices": (l_f,),
        "blocks_a": (l_a, n_max, n_max),
        "blocks_f": (l_f, n_max),
    }
    for name, shape in expected.items():
        if data[name].shape != shape:
            raise ArtifactError(f"{name} has shape {data[name].shape}, but the manifest "
                                f"and the mesh give {shape}")
    pattern = UnionPattern(data["pattern_codes"], n)
    pod = PodBasis(
        V=data["pod_modes"],
        sigma=data["pod_sigma"],
        n_max=n_max,
        n_energy=energy_mode_count(data["pod_sigma"], config.eps_pod),
    )
    deim_a = deim_operator(data["deim_a_basis"], data["deim_a_indices"],
                           data["deim_a_singular_values"], MATRIX, pattern)
    deim_f = deim_operator(data["deim_f_basis"], data["deim_f_indices"],
                           data["deim_f_singular_values"], VECTOR)
    return OfflineArtifacts(
        config=config, mesh=mesh, phys=physics_from_config(config), pod=pod,
        deim_a=deim_a, deim_f=deim_f, blocks_a=data["blocks_a"],
        blocks_f=data["blocks_f"], train_mu=data["train_mu"],
    )
