"""Synthetic generators, splits, text/IDX serialization and the given model."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed.core import ConfigError, Mlp, named_rng, write_record
from meed.data import (MODEL_MAGIC, MODEL_VERSION, Dataset, DatasetFileError, IdxParseError, MlpModel,
                       ModelFileError, SyntheticSpec, export_dataset, generate_synthetic,
                       import_dataset, load_idx_images, load_model, model_accuracy,
                       save_model, split_dataset, train_given_model, IDX_IMAGES_MAGIC,
                       IDX_LABELS_MAGIC, _read_idx)
from tests.conftest import BAD_LAYER_LISTS, damage_record, record_sections
from tests.helpers import write_idx_images, write_idx_labels


def test_generators_are_deterministic():
    spec = SyntheticSpec(d=8, true_subset=(0, 2), n=200, noise_std=0.1,
                         kind="sparse-logit", seed=42)
    d1, s1 = generate_synthetic(spec)
    d2, s2 = generate_synthetic(spec)
    assert d1.X.tobytes() == d2.X.tobytes()
    assert np.array_equal(d1.y_true, d2.y_true)
    assert d1.ids == d2.ids and s1 == s2


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(d=4, true_subset=(0, 5), n=10, noise_std=0.0,
                      kind="sparse-logit", seed=0)
    with pytest.raises(ValueError):
        SyntheticSpec(d=4, true_subset=(0,), n=0, noise_std=0.0,
                      kind="sparse-logit", seed=0)
    with pytest.raises(ValueError):
        SyntheticSpec(d=4, true_subset=(0,), n=10, noise_std=0.0,
                      kind="planted-lasso", seed=0)
    # true_subset holds integers: a float or a string is not truncated or parsed.
    for subset, bad in [((1.7, 3.2), "1.7"), (np.array([0.9, 2.5]), "0.9"), (("1", "2"), "'1'")]:
        with pytest.raises(ConfigError, match=f"true_subset must be integers, got .*{bad}"):
            SyntheticSpec(d=5, true_subset=subset, n=10, kind="sparse-logit")
    assert SyntheticSpec(d=5, true_subset=np.array([1, 3]), n=10,
                         kind="sparse-logit").true_subset == (1, 3)


def test_sparse_logit_depends_only_on_subset():
    spec = SyntheticSpec(d=6, true_subset=(1, 4), n=3000, noise_std=0.0,
                         kind="sparse-logit", seed=1)
    ds, subset = generate_synthetic(spec)
    assert subset.indices == (1, 4)
    assert set(np.unique(ds.y_true)) <= {0, 1}
    # both classes appear and the label balance is not degenerate
    assert 0.2 < ds.y_true.mean() < 0.8


def test_xor_labels_are_parity():
    spec = SyntheticSpec(d=5, true_subset=(0, 3), n=500, noise_std=0.0,
                         kind="xor", seed=2)
    ds, _ = generate_synthetic(spec)
    parity = (ds.X[:, 0] + ds.X[:, 3]) % 2
    assert np.array_equal(ds.y_true, parity.astype(int))
    assert set(np.unique(ds.X)) <= {0.0, 1.0}


def test_shortcut_bait_group_means():
    spec = SyntheticSpec(d=10, true_subset=(0, 1, 2, 3, 4, 5), n=6000,
                         noise_std=0.0, kind="shortcut-bait", seed=3)
    ds, subset = generate_synthetic(spec)
    x0 = ds.X[ds.y_true == 0]
    x1 = ds.X[ds.y_true == 1]
    assert x0[:, :3].mean() > 1.5 and abs(x1[:, :3].mean()) < 0.2
    assert x1[:, 3:6].mean() > 1.5 and abs(x0[:, 3:6].mean()) < 0.2
    assert abs(ds.X[:, 6:].mean()) < 0.1


def test_shortcut_bait_each_group_is_sufficient():
    spec = SyntheticSpec(d=10, true_subset=(0, 1, 2, 3, 4, 5), n=4000,
                         noise_std=0.0, kind="shortcut-bait", seed=5)
    ds, _ = generate_synthetic(spec)
    tr, va, te = split_dataset(ds)
    for group in ((0, 1, 2), (3, 4, 5)):
        probe_tr = Dataset(ids=list(tr.ids), X=tr.X[:, group], y_true=tr.y_true)
        probe_te = Dataset(ids=list(te.ids), X=te.X[:, group], y_true=te.y_true)
        probe = train_given_model(probe_tr, hidden=(16,), seed=0, epochs=40)
        assert model_accuracy(probe, probe_te) >= 0.95


def test_split_is_deterministic_and_sized():
    spec = SyntheticSpec(d=4, true_subset=(0,), n=4000, noise_std=0.0,
                         kind="sparse-logit", seed=6)
    ds, _ = generate_synthetic(spec)
    tr1, va1, te1 = split_dataset(ds)
    tr2, _, _ = split_dataset(ds)
    assert tr1.ids == tr2.ids
    assert len(tr1) + len(va1) + len(te1) == len(ds)
    assert abs(len(tr1) / len(ds) - 0.5) < 0.05
    assert abs(len(va1) / len(ds) - 0.25) < 0.05
    assert not set(tr1.ids) & set(te1.ids)


def test_export_import_round_trip(tmp_path):
    spec = SyntheticSpec(d=5, true_subset=(1, 2), n=60, noise_std=0.1,
                         kind="sparse-logit", seed=7)
    ds, subset = generate_synthetic(spec)
    path = os.path.join(tmp_path, "ds.txt")
    export_dataset(ds, subset, path)
    loaded, true_subset = import_dataset(path)
    assert true_subset == (1, 2)
    assert loaded.ids == ds.ids
    assert np.array_equal(loaded.X, ds.X)
    assert np.array_equal(loaded.y_true, ds.y_true)


GOOD_ROWS = "#trueSubset=0;1\na,0.5,1.0,1\nb,-0.5,2.0,0\n"


@pytest.mark.parametrize("bad_line, what", [
    ("c,0.5,1\n", "ragged row"),
    ("c,0.5,1.0,2.0,1\n", "ragged row"),
    ("c,0.5,abc,1\n", "non-numeric feature"),
    ("c,0.5,1.0,yes\n", "non-numeric label"),
    ("c,0.5\n", "two fields"),
    ("c\n", "one field"),
    ("c,nan,1.0,1\n", "non-finite feature"),
    ("c,0.5,1.0,-3\n", "negative label"),
    ("c,0.5,1.0,\n", "unlabelled row in a labelled file"),
])
def test_import_dataset_rejects_malformed_rows(tmp_path, bad_line, what):
    path = tmp_path / "ds.txt"
    path.write_text(GOOD_ROWS + bad_line + "d,1.0,1.0,1\n")
    with pytest.raises(DatasetFileError, match=f"{path}:4"):
        import_dataset(str(path))


def test_import_dataset_rejects_a_labelled_row_in_an_unlabelled_file(tmp_path):
    path = tmp_path / "ds.txt"
    path.write_text("a,0.5,1.0,\nb,-0.5,2.0,\n")
    loaded, _ = import_dataset(str(path))
    assert loaded.y_true is None and loaded.X.shape == (2, 2)
    path.write_text("a,0.5,1.0,\nb,-0.5,2.0,\nc,1.0,1.0,0\n")
    with pytest.raises(DatasetFileError, match=f"{path}:3: labelled and unlabelled"):
        import_dataset(str(path))


def test_import_dataset_rejects_bad_header_and_empty_file(tmp_path):
    path = tmp_path / "ds.txt"
    for text in ("#trueSubset=0;x\na,0.5,1.0,1\n", "#trueSubset=\n", ""):
        path.write_text(text)
        with pytest.raises(DatasetFileError):
            import_dataset(str(path))
    path.write_bytes(b"a,0.5,1.0,1\n\xff\xfe,1.0,1.0,0\n")
    with pytest.raises(DatasetFileError):
        import_dataset(str(path))


@pytest.mark.parametrize("header", ["#trueSubset=0;0", "#trueSubset=1;0;1", "#trueSubset=0;2",
                                    "#trueSubset=-1"])
def test_import_dataset_rejects_a_true_subset_that_does_not_fit_the_rows(tmp_path, header):
    """A repeated index, or one outside [0, d), is the file's fault: it names
    the header's line, not a SelectionSet built from it later."""
    path = tmp_path / "ds.txt"
    path.write_text(f"a,0.5,1.0,1\n{header}\nb,-0.5,2.0,0\n")
    with pytest.raises(DatasetFileError, match=rf"{path}:2: #trueSubset .* in \[0, d=2\)"):
        import_dataset(str(path))


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(30, 4, 4)).astype(np.uint8)
    labels = rng.integers(0, 10, size=30).astype(np.uint8)
    ipath = os.path.join(tmp_path, "imgs")
    lpath = os.path.join(tmp_path, "labs")
    write_idx_images(images, ipath)
    write_idx_labels(labels, lpath)
    assert np.array_equal(_read_idx(ipath, IDX_IMAGES_MAGIC), images)
    assert np.array_equal(_read_idx(lpath, IDX_LABELS_MAGIC), labels)
    # re-serializing the loaded tensors reproduces the source bytes
    again = os.path.join(tmp_path, "imgs2")
    write_idx_images(_read_idx(ipath, IDX_IMAGES_MAGIC), again)
    assert open(again, "rb").read() == open(ipath, "rb").read()


def test_idx_class_pair_filter(tmp_path):
    images = np.arange(5 * 2 * 2, dtype=np.uint8).reshape(5, 2, 2)
    labels = np.array([3, 8, 5, 3, 8], dtype=np.uint8)
    ipath = os.path.join(tmp_path, "imgs")
    lpath = os.path.join(tmp_path, "labs")
    write_idx_images(images, ipath)
    write_idx_labels(labels, lpath)
    ds = load_idx_images(ipath, lpath, (3, 8))
    assert len(ds) == 4
    assert np.array_equal(ds.y_true, [0, 1, 0, 1])
    assert ds.X.shape == (4, 4)
    assert ds.X.max() <= 1.0 and ds.X.min() >= 0.0


def test_idx_bad_magic_reports_offset(tmp_path):
    path = os.path.join(tmp_path, "bad")
    with open(path, "wb") as fh:
        fh.write(b"\x00\x00\x08\x01" + b"\x00" * 20)
    with pytest.raises(IdxParseError, match="offset"):
        _read_idx(path, IDX_IMAGES_MAGIC)


def test_idx_truncation_detected(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    path = os.path.join(tmp_path, "trunc")
    write_idx_images(images, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-2])
    with pytest.raises(IdxParseError):
        _read_idx(path, IDX_IMAGES_MAGIC)


def test_idx_empty_pair_raises_naming_the_pair_and_the_labels(tmp_path):
    """A pair that selects no rows used to warn, and training then failed on
    the empty dataset with a traceback."""
    images = np.zeros((8, 2, 2), dtype=np.uint8)
    labels = np.array([3, 8] * 4, dtype=np.uint8)
    ipath = os.path.join(tmp_path, "imgs")
    lpath = os.path.join(tmp_path, "labs")
    write_idx_images(images, ipath)
    write_idx_labels(labels, lpath)
    with pytest.raises(IdxParseError, match=r"class pair \(1, 2\) .* labels present are \[3, 8\]"):
        load_idx_images(ipath, lpath, (1, 2))


@pytest.fixture(scope="module")
def idx_pair(tmp_path_factory):
    """An IDX image/label pair's bytes, the dataset it loads as, and two paths
    for damaged copies."""
    rng = np.random.default_rng(2)
    root = tmp_path_factory.mktemp("idx")
    paths = [str(root / "imgs"), str(root / "labs")]
    write_idx_images(rng.integers(0, 256, size=(12, 3, 4)), paths[0])
    write_idx_labels(rng.choice([1, 3, 8], size=12), paths[1])
    blobs = [open(path, "rb").read() for path in paths]
    return blobs, load_idx_images(*paths, (3, 8)), paths


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_idx_file_fails_with_idx_parse_error_or_loads_identically(idx_pair, data):
    """A truncation of the image or the label file, or a flip of one of its
    magic or dimension bytes."""
    blobs, original, paths = idx_pair
    which = data.draw(st.integers(0, 1), label="file")
    damaged = bytearray(blobs[which])
    if data.draw(st.booleans(), label="truncate"):
        damaged = damaged[:data.draw(st.integers(0, len(damaged) - 1), label="length")]
    else:
        head = 4 + 4 * (3 if which == 0 else 1)
        damaged[data.draw(st.integers(0, head - 1), label="byte")] ^= data.draw(
            st.integers(1, 255), label="xor")
    for path, blob in zip(paths, blobs[:which] + [bytes(damaged)] + blobs[which + 1:]):
        with open(path, "wb") as fh:
            fh.write(blob)
    try:
        loaded = load_idx_images(*paths, (3, 8))
    except IdxParseError:
        return
    assert loaded.ids == original.ids
    assert np.array_equal(loaded.X, original.X)
    assert np.array_equal(loaded.y_true, original.y_true)


@pytest.fixture(scope="module")
def dataset_text(tmp_path_factory):
    ds, subset = generate_synthetic(SyntheticSpec(d=3, true_subset=(0, 2), n=6, noise_std=0.1,
                                                  kind="sparse-logit", seed=5))
    path = str(tmp_path_factory.mktemp("text") / "ds.txt")
    export_dataset(ds, subset, path)
    return open(path, "rb").read(), path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_dataset_text_fails_with_dataset_file_error_or_keeps_the_invariants(
        dataset_text, data):
    """A truncation, or one to three bytes replaced, inserted or deleted: the
    reader raises DatasetFileError or gives rows of one width, finite
    features, labels on every row or none, all >= 0, and a #trueSubset of
    distinct indices in [0, d)."""
    blob, path = dataset_text
    damaged = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        damaged = damaged[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            at = data.draw(st.integers(0, len(damaged) - 1), label="at")
            op = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="op")
            byte = data.draw(st.integers(0, 255), label="byte")
            damaged[at:at + (op != "insert")] = b"" if op == "delete" else bytes([byte])
    with open(path, "wb") as fh:
        fh.write(damaged)
    try:
        loaded, true_subset = import_dataset(path)
    except DatasetFileError:
        return
    n, d = loaded.X.shape
    assert n == len(loaded.ids) >= 1 and d >= 1
    assert np.all(np.isfinite(loaded.X))
    if loaded.y_true is not None:
        assert loaded.y_true.shape == (n,) and np.all(loaded.y_true >= 0)
    if true_subset is not None:
        assert len(set(true_subset)) == len(true_subset)
        assert all(0 <= i < d for i in true_subset)


def test_given_model_accuracy_and_determinism(tiny_model):
    model, tr, te, subset = tiny_model
    acc1 = model_accuracy(model, te)
    assert acc1 >= 0.9
    again = train_given_model(tr, hidden=(16,), seed=0, epochs=30)
    assert model_accuracy(again, te) == acc1
    assert np.array_equal(model.net.parameters, again.net.parameters)


def test_model_gradient_matches_finite_differences(tiny_model):
    model, _, te, _ = tiny_model
    x = te.X[0]
    g = model.gradient(x[None], [0])[0]
    fd = np.zeros_like(x)
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += 1e-5
        lo[j] -= 1e-5
        fd[j] = (model.evaluate(hi).ravel()[0] - model.evaluate(lo).ravel()[0]) / 2e-5
    assert np.allclose(g, fd, atol=1e-6)


def test_model_save_load_round_trip(tiny_model, tmp_path):
    model, _, te, _ = tiny_model
    path = os.path.join(tmp_path, "model.bin")
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(model.evaluate(te.X), loaded.evaluate(te.X))


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """(file bytes, loaded model, scratch path) of a small model with two hidden layers."""
    spec = SyntheticSpec(d=5, true_subset=(0, 1), n=120, noise_std=0.1,
                         kind="sparse-logit", seed=3)
    model = train_given_model(generate_synthetic(spec)[0], hidden=(4, 3), seed=0, epochs=2)
    path = str(tmp_path_factory.mktemp("model") / "model.bin")
    save_model(model, path)
    return open(path, "rb").read(), load_model(path), path + ".corrupt"


def load_model_bytes(blob: bytes, path: str) -> MlpModel:
    with open(path, "wb") as fh:
        fh.write(blob)
    return load_model(path)


def test_model_file_round_trip_is_byte_identical(saved_model, tmp_path):
    blob, loaded, _ = saved_model
    assert blob.startswith(MODEL_MAGIC)
    again = str(tmp_path / "again.bin")
    save_model(loaded, again)
    assert open(again, "rb").read() == blob


# The file save_model writes for Mlp(3, (2, 2)) with parameters arange(14) / 10.
# Model files, their layer list included, keep this exact format.
FIXED_MODEL_BYTES = (
    b'MEEDMODL\x02\x00\x00\x00c\x00\x00\x00\x00\x00\x00\x00'
    b'{"in_dim": 3, "layers": [["dense", 2], ["relu"], ["dense", 2], ["softmax"]], '
    b'"vectors": ["params"]}'
    b'x\x00\x00\x00\x00\x00\x00\x00\x0e\x00\x00\x00\x00\x00\x00\x00'
    b'\x00\x00\x00\x00\x00\x00\x00\x00\x9a\x99\x99\x99\x99\x99\xb9?\x9a\x99\x99\x99\x99\x99\xc9?'
    b'333333\xd3?\x9a\x99\x99\x99\x99\x99\xd9?\x00\x00\x00\x00\x00\x00\xe0?'
    b'333333\xe3?ffffff\xe6?\x9a\x99\x99\x99\x99\x99\xe9?'
    b'\xcd\xcc\xcc\xcc\xcc\xcc\xec?\x00\x00\x00\x00\x00\x00\xf0?\x9a\x99\x99\x99\x99\x99\xf1?'
    b'333333\xf3?\xcd\xcc\xcc\xcc\xcc\xcc\xf4?')


def test_model_file_bytes_are_unchanged(tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(MlpModel(Mlp(3, (2, 2), parameters=np.arange(14) / 10)), path)
    assert open(path, "rb").read() == FIXED_MODEL_BYTES
    loaded = load_model(path)
    assert loaded.net.widths == (2, 2)
    assert np.array_equal(loaded.net.parameters, np.arange(14) / 10)


@pytest.mark.parametrize("layers, n_params", BAD_LAYER_LISTS)
def test_model_file_rejects_a_layer_list_save_model_does_not_write(tmp_path, layers, n_params):
    path = str(tmp_path / "model.bin")
    write_record(path, MODEL_MAGIC, MODEL_VERSION, {"in_dim": 3, "layers": layers},
                 {"params": np.zeros(n_params)})
    with pytest.raises(ModelFileError, match="dense/relu ... dense/softmax"):
        load_model(path)


@pytest.mark.parametrize("in_dim", [0, -1])
def test_model_file_rejects_in_dim_below_1(tmp_path, in_dim):
    """A bias-only net is a bad model file, not a ShapeError at the first rows."""
    path = str(tmp_path / "model.bin")
    write_record(path, MODEL_MAGIC, MODEL_VERSION,
                 {"in_dim": in_dim, "layers": [["dense", 2], ["softmax"]]}, {"params": np.zeros(2)})
    with pytest.raises(ModelFileError, match="in_dim >= 1"):
        load_model(path)


def test_model_file_rejects_corrupt_blob(saved_model):
    blob, _, path = saved_model
    params_at = record_sections(blob)[1]
    wrong_count = bytearray(blob)
    struct.pack_into("<Q", wrong_count, params_at + 8, 2**40)
    nan_param = bytearray(blob)
    struct.pack_into("<d", nan_param, params_at + 16, float("nan"))
    for bad in (b"", b"NOTMEED!" + blob[8:], blob[:14], blob + b"\x00", blob + bytes(8),
                bytes(wrong_count), MODEL_MAGIC + struct.pack("<I", 1) + blob[12:],
                bytes(nan_param)):
        with pytest.raises(ModelFileError):
            load_model_bytes(bad, path)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_model_file_fails_with_model_file_error_or_loads_identically(
        saved_model, data):
    blob, original, path = saved_model
    try:
        loaded = load_model_bytes(damage_record(blob, data), path)
    except ModelFileError:
        return
    assert loaded.net.in_dim == original.net.in_dim
    assert loaded.net.widths == original.net.widths
    assert np.array_equal(loaded.net.parameters, original.net.parameters)


def test_model_randomize_changes_outputs(tiny_model):
    model, _, te, _ = tiny_model
    twin = MlpModel(Mlp(model.net.in_dim, model.net.widths, parameters=model.net.parameters))
    twin.randomize(named_rng(0, "model"))
    assert not np.allclose(model.evaluate(te.X), twin.evaluate(te.X))


def test_train_given_model_needs_true_labels():
    ds, _ = generate_synthetic(SyntheticSpec(d=4, true_subset=(0, 1), n=20, noise_std=0.1,
                                             kind="sparse-logit", seed=3))
    with pytest.raises(ConfigError, match="needs true labels"):
        train_given_model(Dataset(ids=ds.ids, X=ds.X), hidden=(4,), epochs=1)
