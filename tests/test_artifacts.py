import re
from operator import attrgetter

import numpy as np
import pytest

from cutrom.artifacts import (
    ArtifactError,
    _load_array,
    _save_array,
    load_artifacts,
    save_artifacts,
)
from cutrom.config import Config
from cutrom.geometry import ParameterPoint, build_cut_geometry
from cutrom.pipeline import run_offline
from cutrom.rom import sample_entries

# every saved array: its file name and where it lives on OfflineArtifacts
SAVED = {
    "pod_modes": "pod.V",
    "pod_sigma": "pod.sigma",
    "deim_a_basis": "deim_a.U",
    "deim_a_indices": "deim_a.indices",
    "deim_f_basis": "deim_f.U",
    "deim_f_indices": "deim_f.indices",
    "pattern_positions": "pattern.positions",
    "blocks_a": "blocks_a",
    "blocks_f": "blocks_f",
}


@pytest.fixture
def saved(tmp_path, small_run):
    """A saved copy of the small model, free for each test to damage."""
    save_artifacts(str(tmp_path), small_run[0])
    return tmp_path


def _rewrite(saved, name, change):
    path = saved / f"{name}.npy"
    np.save(path, change(np.load(path, allow_pickle=False)))


@pytest.mark.parametrize("arr", [
    np.linspace(-3.0, 7.0, 17),
    np.arange(24, dtype=np.int64).reshape(2, 3, 4),
    np.random.default_rng(0).standard_normal((5, 7)),
    np.array([np.pi, -0.0, 1e-308, 1e308]),
], ids=["vector", "int3d", "matrix", "extremes"])
def test_array_roundtrip_bitexact(tmp_path, arr):
    _save_array(str(tmp_path), "a", arr)
    back = _load_array(str(tmp_path), "a", arr.dtype, arr.shape)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))


def test_artifact_roundtrip_and_hash_guard(tmp_path, small_run, small_config):
    art, _ = small_run
    out = tmp_path / "artifacts"
    save_artifacts(str(out), art)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}.npy" for name in SAVED] + ["manifest.txt"])
    back = load_artifacts(str(out), small_config)
    for name, attr in SAVED.items():
        loaded, built = attrgetter(attr)(back), attrgetter(attr)(art)
        assert loaded.dtype == built.dtype, name
        assert loaded.shape == built.shape, name
        assert loaded.tobytes() == built.tobytes(), name
    assert back.pod.n_energy == art.pod.n_energy
    for op_back, op in ((back.deim_a, art.deim_a), (back.deim_f, art.deim_f)):
        assert op_back.pu.tobytes() == op.pu.tobytes()
    assert back.pattern.diagonal.tobytes() == art.pattern.diagonal.tobytes()
    assert back.snapshots is None
    # a different configuration must be refused
    with pytest.raises(ArtifactError, match="hash"):
        load_artifacts(str(out), small_config.with_seed(small_config.seed + 5))


def test_files_of_arrays_no_longer_saved_are_ignored_on_load(saved, small_run, small_config):
    """Earlier saves of format 7 also wrote the training parameters and the
    two DEIM spectra.  Files of those names, whatever they hold, do not
    change what loads."""
    art, _ = small_run
    for name in ("train_mu", "deim_a_singular_values", "deim_f_singular_values"):
        np.save(saved / f"{name}.npy", np.array([np.nan, -1.0, np.inf]))
    back = load_artifacts(str(saved), small_config)
    for name, attr in SAVED.items():
        loaded, built = attrgetter(attr)(back), attrgetter(attr)(art)
        assert loaded.dtype == built.dtype, name
        assert loaded.shape == built.shape, name
        assert loaded.tobytes() == built.tobytes(), name
    for op_back, op in ((back.deim_a, art.deim_a), (back.deim_f, art.deim_f)):
        assert op_back.pu.tobytes() == op.pu.tobytes()


def test_model_with_more_solves_than_vertices_round_trips(tmp_path):
    """On an 81-vertex mesh with 100 training solves, the POD spectrum holds
    min(n, n_train) = 81 values, and the saved model loads back."""
    cfg = Config(h_target=0.3, n_train=100, n_test=2, n_list=(2, 4), seed=0).validate()
    art = run_offline(cfg)
    assert art.mesh.n_vertices == 81
    assert art.pod.sigma.shape == (81,)
    save_artifacts(str(tmp_path), art)
    back = load_artifacts(str(tmp_path), cfg)
    for name, attr in SAVED.items():
        assert attrgetter(attr)(back).tobytes() == attrgetter(attr)(art).tobytes(), name
    assert back.pod.n_energy == art.pod.n_energy


def test_bad_version_rejected(saved, small_config):
    manifest = saved / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    assert "format_version = 7\n" in text
    # format 3 hashed the sweep and path fields too and stored gamma as a
    # pair; format 2 saved the union pattern as row * N + col codes
    for old in ("3", "2"):
        manifest.write_text(text.replace("format_version = 7", f"format_version = {old}"),
                            encoding="utf-8")
        with pytest.raises(ArtifactError, match=f"manifest version '{old}'"):
            load_artifacts(str(saved), small_config)


def test_format_4_directory_with_unfolded_blocks_refused(saved, small_run, small_config):
    """Format 4 saved the reduced blocks of the same shapes without the
    interpolation inverses folded in.  Such a directory would load as a
    wrong model with no error, so its version is refused by name."""
    art, _ = small_run
    _rewrite(saved, "blocks_a", lambda b: b @ art.deim_a.pu)
    _rewrite(saved, "blocks_f", lambda b: art.deim_f.pu.T @ b)
    manifest = saved / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("format_version = 7", "format_version = 4"),
                        encoding="utf-8")
    with pytest.raises(ArtifactError, match="manifest version '4'"):
        load_artifacts(str(saved), small_config)


def test_format_5_directory_with_a_whole_union_basis_refused(saved, small_run, small_config,
                                                             whole_union):
    """Format 5 saved the matrix DEIM basis mirrored, one row per entry of
    the whole union; format 7 saves its upper rows.  A format-5 directory is
    refused by its version, before any array is read."""
    art, _ = small_run
    union = whole_union(art.mesh, art.pattern)
    _rewrite(saved, "deim_a_basis", lambda u: u[union.twin])
    manifest = saved / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("format_version = 7", "format_version = 5"),
                        encoding="utf-8")
    with pytest.raises(ArtifactError, match="manifest version '5'"):
        load_artifacts(str(saved), small_config)
    # the same directory labelled format 7 fails on the basis's shape
    manifest.write_text(text, encoding="utf-8")
    with pytest.raises(ArtifactError, match=rf"^deim_a_basis has shape \({union.size}, "):
        load_artifacts(str(saved), small_config)


def test_format_6_directory_with_a_whole_union_pattern_refused(saved, small_run, small_config,
                                                               whole_union):
    """Format 6 saved the whole symmetric union as ``pattern_positions``
    and the matrix interpolation indices as entries of it; format 7 saves
    the upper half and rows of the basis.  A format-6 directory is refused
    by its version, before any array is read."""
    art, _ = small_run
    union = whole_union(art.mesh, art.pattern)
    _rewrite(saved, "pattern_positions", lambda _: union.positions)
    _rewrite(saved, "deim_a_indices", lambda indices: union.upper[indices])
    manifest = saved / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    text = text.replace(f"pattern_size = {art.pattern.size}\n", f"pattern_size = {union.size}\n")
    manifest.write_text(text.replace("format_version = 7", "format_version = 6"),
                        encoding="utf-8")
    with pytest.raises(ArtifactError, match="manifest version '6'"):
        load_artifacts(str(saved), small_config)


@pytest.mark.parametrize("line, damaged", [
    (r"^pattern_size = .*$", ""),
    (r"^n_max = .*$", "n_max = forty"),
], ids=["missing", "not_an_integer"])
def test_manifest_without_model_sizes_rejected(saved, small_config, line, damaged):
    manifest = saved / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(re.sub(line, damaged, text, flags=re.M), encoding="utf-8")
    with pytest.raises(ArtifactError, match="^manifest .* lacks an integer"):
        load_artifacts(str(saved), small_config)


def test_unsupported_dtype_rejected(saved, small_config):
    _rewrite(saved, "blocks_a", lambda a: a.astype(np.float32))
    with pytest.raises(ArtifactError, match="^blocks_a has dtype float32, expected float64"):
        load_artifacts(str(saved), small_config)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _old_container(path):
    path.write_bytes(b"CROM\x01\x02\x01" + bytes(24))


def _object_array(path):
    np.save(path, np.array([3, "x", None], dtype=object))


def _npz_archive(path):
    np.savez(path.with_suffix(".npz"), values=np.zeros(3))
    path.with_suffix(".npz").replace(path)


@pytest.mark.parametrize("name, damage", [
    ("deim_f_basis", lambda path: path.unlink()),
    ("blocks_a", _truncate),
    ("blocks_f", lambda path: path.write_bytes(b"")),
    ("pattern_positions", _old_container),
    ("deim_a_indices", _object_array),
    ("pod_sigma", _npz_archive),
], ids=["missing", "truncated", "empty", "not_npy", "object", "npz_archive"])
def test_unreadable_array_file_rejected(saved, small_config, name, damage):
    damage(saved / f"{name}.npy")
    with pytest.raises(ArtifactError, match=f"^{name}"):
        load_artifacts(str(saved), small_config)


@pytest.mark.parametrize("value, message", [(-1.0, "negative"), (np.nan, "non-finite")],
                         ids=["negative", "nan"])
def test_invalid_pod_spectrum_rejected_on_load(saved, small_config, value, message):
    def put(sigma):
        sigma[-1] = value
        return sigma

    _rewrite(saved, "pod_sigma", put)
    with pytest.raises(ArtifactError, match=f"^pod_sigma holds a {message} value"):
        load_artifacts(str(saved), small_config)


FLOAT_ARRAYS = ("pod_modes", "pod_sigma", "deim_a_basis", "deim_f_basis", "blocks_a",
                "blocks_f")


@pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_ARRAYS)
def test_non_finite_array_rejected_on_load(saved, small_config, name, value):
    def put(arr):
        arr.flat[arr.size // 2] = value
        return arr

    _rewrite(saved, name, put)
    with pytest.raises(ArtifactError, match=f"^{name} holds a non-finite value"):
        load_artifacts(str(saved), small_config)



def test_repeated_interpolation_index_rejected_on_load(saved, small_config):
    # a repeated index would make PᵀU singular; it is refused by the array's name
    def repeat_first(indices):
        indices[1] = indices[0]
        return indices

    for name in ("deim_a_indices", "deim_f_indices"):
        original = (saved / f"{name}.npy").read_bytes()
        _rewrite(saved, name, repeat_first)
        with pytest.raises(ArtifactError, match=f"^{name} holds a repeated index"):
            load_artifacts(str(saved), small_config)
        (saved / f"{name}.npy").write_bytes(original)
    load_artifacts(str(saved), small_config)


@pytest.mark.parametrize("name, past_end", [("deim_a_indices", "pattern_size"),
                                            ("deim_f_indices", "n_vertices")])
@pytest.mark.parametrize("where", ["negative", "past_end"])
def test_interpolation_index_out_of_range_rejected_on_load(saved, small_run, small_config,
                                                           name, past_end, where):
    art, _ = small_run
    bound = art.pattern.size if past_end == "pattern_size" else art.mesh.n_vertices

    def put(indices):
        indices[-1] = -1 if where == "negative" else bound
        return indices

    _rewrite(saved, name, put)
    with pytest.raises(ArtifactError, match=rf"^{name} holds an index outside \[0, {bound}\)"):
        load_artifacts(str(saved), small_config)


@pytest.mark.parametrize("tamper", ["swap_sampled_positions", "past_the_end", "negative",
                                    "below_diagonal"])
def test_tampered_union_pattern_rejected_on_load(saved, small_run, small_config, tamper):
    art, _ = small_run
    mesh, positions = art.mesh, art.pattern.positions.copy()
    size = mesh.pattern_cols.size
    message = rf"^pattern_positions holds an index outside \[0, {size}\)"
    if tamper == "swap_sampled_positions":
        i, j = art.deim_a.indices[:2]
        positions[[i, j]] = positions[[j, i]]
        message = "^pattern_positions is not strictly increasing"
    elif tamper == "past_the_end":
        positions[-1] = size
    elif tamper == "negative":
        positions[0] = -1
    else:
        # trade an off-diagonal entry for its transpose: strictly increasing
        # inside the mesh pattern, but below the diagonal
        off = positions[~art.pattern.diagonal][0]
        low = mesh.pattern_transpose[off]
        positions = np.union1d(np.setdiff1d(positions, [off]), [low])
        message = (rf"^pattern_positions: union pattern position {low} \(row "
                   rf"{mesh.pattern_rows[low]}, column {mesh.pattern_cols[low]}\) is below")
    _rewrite(saved, "pattern_positions", lambda _: positions)
    with pytest.raises(ArtifactError, match=message):
        load_artifacts(str(saved), small_config)


@pytest.mark.parametrize("name, cut", [
    ("blocks_f", np.s_[:-1]),
    ("blocks_a", np.s_[:-1]),  # one packed row short of n_max (n_max + 1) / 2
    ("pod_modes", np.s_[:, :-1]),
    ("deim_a_basis", np.s_[:-1]),
    ("deim_f_basis", np.s_[:, :-1]),
    ("pod_sigma", np.s_[:-1]),
    ("pattern_positions", np.s_[:-1]),
], ids=["blocks_f_row", "blocks_a_modes", "pod_modes_column", "deim_a_basis_row",
        "deim_f_basis_column", "pod_sigma_entry", "pattern_positions_entry"])
def test_array_of_the_wrong_shape_rejected_on_load(saved, small_config, name, cut):
    _rewrite(saved, name, lambda a: a[cut])
    with pytest.raises(ArtifactError, match=f"^{name} has shape"):
        load_artifacts(str(saved), small_config)


def test_missing_manifest_rejected(tmp_path, small_config):
    with pytest.raises(ArtifactError, match="manifest"):
        load_artifacts(str(tmp_path), small_config)


def test_interrupted_save_leaves_nothing_loadable(saved, small_run, small_config, monkeypatch):
    real_save, calls = np.save, []

    def failing_save(path, arr):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_save(path, arr)

    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(OSError, match="disk full"):
        save_artifacts(str(saved), small_run[0])
    monkeypatch.undo()
    assert len(calls) == 3
    with pytest.raises(ArtifactError, match="^no manifest"):
        load_artifacts(str(saved), small_config)


def test_loaded_model_samples_bitwise_like_the_built_one(saved, small_run, small_config):
    art, _ = small_run
    back = load_artifacts(str(saved), small_config)
    assert np.array_equal(back.matrix_sample_entries, art.matrix_sample_entries)
    assert np.array_equal(back.vector_sample_entries, art.vector_sample_entries)
    for mu in (ParameterPoint(1.0, 1.0), ParameterPoint(1.13, 1.04)):
        fresh = sample_entries(art, build_cut_geometry(art.mesh, mu))
        loaded = sample_entries(back, build_cut_geometry(back.mesh, mu))
        assert fresh[0].tobytes() == loaded[0].tobytes()
        assert fresh[1].tobytes() == loaded[1].tobytes()
