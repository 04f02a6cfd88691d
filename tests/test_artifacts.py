import numpy as np
import pytest

from cutrom.artifacts import (
    ArtifactError,
    load_array,
    load_artifacts,
    save_array,
    save_artifacts,
)
from cutrom.deim import DeimError
from cutrom.geometry import ParameterPoint, build_cut_geometry
from cutrom.rom import sample_entries


@pytest.mark.parametrize("arr", [
    np.linspace(-3.0, 7.0, 17),
    np.arange(24, dtype=np.int64).reshape(2, 3, 4),
    np.random.default_rng(0).standard_normal((5, 7)),
    np.array([np.pi, -0.0, 1e-308, 1e308]),
], ids=["vector", "int3d", "matrix", "extremes"])
def test_array_roundtrip_bitexact(tmp_path, arr):
    path = tmp_path / "a.crom"
    save_array(str(path), arr)
    back = load_array(str(path))
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ArtifactError):
        save_array(str(tmp_path / "x.crom"), np.zeros(3, dtype=np.float32))


def test_corrupted_magic_rejected(tmp_path):
    path = tmp_path / "a.crom"
    save_array(str(path), np.zeros(3))
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="magic"):
        load_array(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "a.crom"
    save_array(str(path), np.zeros(8))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ArtifactError, match="payload"):
        load_array(str(path))


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "a.crom"
    save_array(str(path), np.zeros(2))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="version"):
        load_array(str(path))


def test_artifact_roundtrip_and_hash_guard(tmp_path, small_run, small_config):
    art, _ = small_run
    out = tmp_path / "artifacts"
    save_artifacts(str(out), art)
    back = load_artifacts(str(out), small_config)
    assert np.array_equal(back.pod.V, art.pod.V)
    assert np.array_equal(back.pod.sigma, art.pod.sigma)
    assert back.pod.n_energy == art.pod.n_energy
    assert np.array_equal(back.deim_a.U, art.deim_a.U)
    assert np.array_equal(back.deim_a.indices, art.deim_a.indices)
    for op_back, op in ((back.deim_a, art.deim_a), (back.deim_f, art.deim_f)):
        assert op_back.pu.tobytes() == op.pu.tobytes()
    assert np.array_equal(back.pattern.codes, art.pattern.codes)
    assert back.pattern.indptr.tobytes() == art.pattern.indptr.tobytes()
    assert np.array_equal(back.blocks_a, art.blocks_a)
    assert np.array_equal(back.blocks_f, art.blocks_f)
    assert np.array_equal(back.train_mu, art.train_mu)
    assert back.snapshots is None
    # a different configuration must be refused
    with pytest.raises(ArtifactError, match="hash"):
        load_artifacts(str(out), small_config.with_seed(small_config.seed + 5))


def test_repeated_interpolation_index_rejected_on_load(tmp_path, small_run, small_config):
    art, _ = small_run
    save_artifacts(str(tmp_path), art)
    indices = art.deim_a.indices.copy()
    indices[1] = indices[0]
    save_array(str(tmp_path / "deim_a_indices.crom"), indices)
    with pytest.raises(DeimError, match="singular"):
        load_artifacts(str(tmp_path), small_config)


@pytest.mark.parametrize("name, cut", [
    ("blocks_f", np.s_[:-1]),
    ("blocks_a", np.s_[:, :-1, :-1]),
    ("pod_modes", np.s_[:, :-1]),
    ("deim_a_basis", np.s_[:-1]),
    ("deim_f_basis", np.s_[:, :-1]),
], ids=["blocks_f_row", "blocks_a_modes", "pod_modes_column", "deim_a_basis_row",
        "deim_f_basis_column"])
def test_array_of_the_wrong_shape_rejected_on_load(tmp_path, small_run, small_config, name, cut):
    art, _ = small_run
    save_artifacts(str(tmp_path), art)
    path = str(tmp_path / f"{name}.crom")
    save_array(path, load_array(path)[cut])
    with pytest.raises(ArtifactError, match=f"^{name} has shape"):
        load_artifacts(str(tmp_path), small_config)


def test_missing_manifest_rejected(tmp_path, small_config):
    with pytest.raises(ArtifactError, match="manifest"):
        load_artifacts(str(tmp_path), small_config)


def test_loaded_model_samples_bitwise_like_the_built_one(tmp_path, small_run, small_config):
    art, _ = small_run
    save_artifacts(str(tmp_path), art)
    back = load_artifacts(str(tmp_path), small_config)
    assert np.array_equal(back.matrix_sample_entries, art.matrix_sample_entries)
    assert np.array_equal(back.vector_sample_entries, art.vector_sample_entries)
    for mu in (ParameterPoint(1.0, 1.0), ParameterPoint(1.13, 1.04)):
        fresh = sample_entries(art, build_cut_geometry(art.mesh, mu))
        loaded = sample_entries(back, build_cut_geometry(back.mesh, mu))
        assert fresh[0].tobytes() == loaded[0].tobytes()
        assert fresh[1].tobytes() == loaded[1].tobytes()
