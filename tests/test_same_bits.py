"""tools/same_bits.py: the working tree against itself reads `equal` on every
line, and an artefact that differs reads its largest relative difference."""

import dataclasses
import importlib.util
import os

import pytest

from meed.trainer import load_checkpoint, save_checkpoint

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "same_bits.py")
SHORT_CONFIG = """[data]
kind = sparse-logit
d = 6
true_subset = 0,1
n = 200
seed = 3
[model]
hidden = 8
epochs = 2
[train]
k = 2
epochs = 2
batch_size = 32
[run]
out_dir = out
explainer_hidden = 8
approx_hidden = 8
"""


@pytest.fixture(scope="module")
def same_bits():
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_working_tree_against_itself_is_equal_on_every_line(same_bits, tmp_path):
    """Two short trainings, one per adversary, each run once per side in
    fresh processes."""
    configs = {"ce": SHORT_CONFIG,
               "sw": same_bits.with_train_line(SHORT_CONFIG, "loss_u = sliced-wasserstein")}
    jobs = [(name, {"run.cfg": text}, [("meed", "train", "--config", "run.cfg")],
             ["out/checkpoint.bin"]) for name, text in configs.items()]
    lines = same_bits.compare(same_bits.ROOT, same_bits.ROOT, jobs, str(tmp_path))
    assert lines == ["ce/out/checkpoint.bin: equal", "sw/out/checkpoint.bin: equal"]
    ckpt = load_checkpoint(str(tmp_path / "a" / "ce" / "out" / "checkpoint.bin"))
    params = ckpt.explainer_params.copy()
    params[3] *= 1.0 + 2.0 ** -40
    save_checkpoint(dataclasses.replace(ckpt, explainer_params=params), str(tmp_path / "b.bin"))
    got = same_bits.difference(str(tmp_path / "a" / "ce" / "out" / "checkpoint.bin"),
                               str(tmp_path / "b.bin"))
    assert got.startswith("largest relative difference ")
    assert float(got.rsplit(" ", 1)[1]) == pytest.approx(2.0 ** -40, rel=0.01)
    (tmp_path / "r1.txt").write_text("FS-M=97.50\nTPS=0\n")
    (tmp_path / "r2.txt").write_text("FS-M=97.00\nTPS=0\n")
    assert same_bits.difference(str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")) == \
        "largest relative difference 0.00513"   # 0.5 / 97.5
    assert same_bits.difference(str(tmp_path / "r1.txt"), str(tmp_path / "none.txt")).startswith(
        "missing: ")
