"""Offline artifact persistence: one binary container per array plus a manifest.

Container layout (little endian): magic ``CROM``, format version byte (1),
dtype code byte (1 = float64, 2 = int64), ndim byte, ndim uint64 shape values,
then the row-major payload.  The manifest records the config hash; loading
against a different configuration is refused.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import Config
from .deim import MATRIX, VECTOR, DeimOperator, UnionPattern, deim_operator
from .geometry import BackgroundMesh, build_background_mesh
from .assembly import PhysicsParams, physics_from_config
from .pod import PodBasis, energy_mode_count
from .rom import RomOffline

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
    """Live offline objects plus everything needed to rebuild them from disk.

    ``snapshots`` holds the training solutions of a fresh build, for the
    mode-energy check; it is never saved, and is None after loading.
    """

    config: Config
    mesh: BackgroundMesh
    phys: PhysicsParams
    pod: PodBasis
    deim_a: DeimOperator
    deim_f: DeimOperator
    pattern: UnionPattern
    rom: RomOffline
    train_mu: np.ndarray
    snapshots: np.ndarray | None = None


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
        "blocks_a": art.rom.blocks_a,
        "blocks_f": art.rom.blocks_f,
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
    phys = physics_from_config(config)
    codes = data["pattern_codes"]
    n = mesh.n_vertices
    pattern = UnionPattern(rows=codes // n, cols=codes % n, codes=codes, n=n)
    pod = PodBasis(
        V=data["pod_modes"],
        sigma=data["pod_sigma"],
        epsilon_pod=config.eps_pod,
        n_max=data["pod_modes"].shape[1],
        n_energy=energy_mode_count(data["pod_sigma"], config.eps_pod),
    )
    deim_a = deim_operator(data["deim_a_basis"], data["deim_a_indices"],
                           data["deim_a_singular_values"], MATRIX, pattern)
    deim_f = deim_operator(data["deim_f_basis"], data["deim_f_indices"],
                           data["deim_f_singular_values"], VECTOR)
    rom = RomOffline(pod=pod, deim_a=deim_a, deim_f=deim_f, blocks_a=data["blocks_a"],
                     blocks_f=data["blocks_f"], mesh=mesh, phys=phys)
    return OfflineArtifacts(
        config=config, mesh=mesh, phys=phys, pod=pod, deim_a=deim_a,
        deim_f=deim_f, pattern=pattern, rom=rom, train_mu=data["train_mu"],
    )
