import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fence import (DataError, NetConfig, NeuralDenoiser, load_checkpoint, save_checkpoint,
                   save_grid_csv)
from fence.checkpoint import MAGIC, VERSION
from fence.cli import main

HEADER = MAGIC + struct.pack("<I", VERSION)


def record(name: bytes, dims: tuple[int, ...], payload: bytes) -> bytes:
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + payload)


def impute_exit_code(tmp_path, ckpt) -> int:
    grid = tmp_path / "grid.csv"
    save_grid_csv(grid, np.zeros((2, 3)))
    return main(["impute", "--grid", str(grid), "--checkpoint-uncond", str(ckpt),
                 "--mode", "none", "--out", str(tmp_path / "out.csv")])


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(40)
    state = {
        "layer0/W": rng.standard_normal((3, 4)),
        "layer0/b": rng.standard_normal(4),
        "deep/tensor": rng.standard_normal((2, 3, 2)),
        "hparams/d_model": np.float64(16.0),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state)
    got = load_checkpoint(path)
    assert set(got) == set(state)
    for name, value in state.items():
        np.testing.assert_array_equal(got[name], np.asarray(value, dtype=np.float64))
    assert got["hparams/d_model"].shape == ()


def test_header_layout_is_stable(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.array([1.0])})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<I", raw[4:8])[0] == VERSION
    assert struct.unpack("<I", raw[8:12])[0] == 1  # name length
    assert raw[12:13] == b"a"


def test_save_is_byte_deterministic(tmp_path):
    state = {"w": np.arange(6.0).reshape(2, 3), "s": np.float64(2.5)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, state)
    save_checkpoint(p2, state)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"JUNK" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1))
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.arange(10.0)})
    raw = path.read_bytes()
    for cut in (6, 10, 14, len(raw) - 4):
        (tmp_path / "t.ckpt").write_bytes(raw[:cut])
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "t.ckpt")


def test_non_contiguous_input_is_saved_correctly(tmp_path):
    base = np.arange(12.0).reshape(3, 4)
    view = base[:, ::2]  # strided view
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"v": view})
    np.testing.assert_array_equal(load_checkpoint(path)["v"], view)


@pytest.mark.parametrize("body", [
    record(b"w", (2**40, 2**40), b""),
    record(b"w", (2**40, 2**40, 0), b""),
    record(b"\xff\xfe", (1,), struct.pack("<d", 1.0)),
    record(b"w", (1,), struct.pack("<d", 1.0)) * 2,
], ids=["count-wraps-int64", "empty-beyond-numpy", "name-not-utf8", "duplicate-name"])
def test_corrupt_records_rejected(tmp_path, body):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(HEADER + body)
    with pytest.raises(DataError):
        load_checkpoint(path)
    assert impute_exit_code(tmp_path, path) == 3


def _drop_hparams(state):
    for name in [n for n in state if n.startswith("hparams/")]:
        del state[name]


@pytest.mark.parametrize("edit", [
    _drop_hparams,
    lambda s: s.update({"hparams/d_model": np.array([4.0, 4.0])}),
    lambda s: s.update({"hparams/n_layers": np.float64(np.nan)}),
    lambda s: s.update({"hparams/n_heads": np.float64(2.5)}),
    lambda s: s.update({"hparams/n_heads": np.float64(3.0)}),
    lambda s: s.update({"norm/mean": np.array([0.0, 1.0])}),
    lambda s: s.update({"norm/std": np.float64(np.inf)}),
    lambda s: s.update({"norm/std": np.float64(0.0)}),
    lambda s: s.pop("norm/mean"),
    lambda s: s.pop("norm/std"),
    lambda s: s.pop("node_embed"),
    lambda s: s.update({"node_embed": np.zeros((3, 4))}),
    lambda s: s.update({"stray/tensor": np.zeros(2)}),
], ids=["no-hparams", "vector-hparam", "nan-hparam", "fractional-hparam",
        "heads-do-not-divide", "vector-norm-mean", "infinite-norm-std", "zero-norm-std",
        "no-norm-mean", "no-norm-std", "missing-tensor", "misshapen-tensor", "stray-tensor"])
def test_checkpoint_that_is_not_a_model_exits_3(tmp_path, edit):
    model = NeuralDenoiser(NetConfig(n_nodes=2, d_model=4, n_layers=1, n_heads=2))
    state = model.state_dict()
    state.update({"norm/mean": np.float64(0.0), "norm/std": np.float64(1.0)})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state)
    assert impute_exit_code(tmp_path, path) == 0
    edit(state)
    save_checkpoint(path, state)
    assert impute_exit_code(tmp_path, path) == 3


@pytest.mark.parametrize("clusters", ["auto", "2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_a_non_finite_weight_exits_3(tmp_path, capsys, clusters, bad):
    # a NaN weight would otherwise vanish in the perceptron's ReLU (auto: one
    # cluster, exit 0) or reach k-means++ seeding (2 clusters, a traceback)
    paths = {}
    for role, seed in (("uncond", 0), ("cond", 1)):
        state = NeuralDenoiser(NetConfig(n_nodes=6, d_model=8, n_layers=1, n_heads=2),
                               seed=seed).state_dict()
        state.update({"norm/mean": np.float64(0.0), "norm/std": np.float64(1.0)})
        if role == "cond":
            state["layer0/spatial/Wq"][0, 0] = bad
        paths[role] = tmp_path / f"{role}.ckpt"
        save_checkpoint(paths[role], state)
    grid, out = tmp_path / "grid.csv", tmp_path / "out.csv"
    save_grid_csv(grid, np.zeros((6, 4)))
    assert main(["impute", "--grid", str(grid), "--checkpoint-uncond", str(paths["uncond"]),
                 "--checkpoint-cond", str(paths["cond"]), "--steps", "5", "--samples", "2",
                 "--clusters", clusters, "--out", str(out)]) == 3
    assert "tensor 'layer0/spatial/Wq' holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_arbitrary_tail_loads_or_exits_3(tmp_path):
    path = tmp_path / "fuzz.ckpt"

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | st.builds(
        record, st.binary(max_size=4),
        st.lists(st.integers(0, 2**64 - 1), max_size=3).map(tuple), st.binary(max_size=24)))
    def check(tail):
        path.write_bytes(HEADER + tail)
        try:
            load_checkpoint(path)
        except DataError:
            assert impute_exit_code(tmp_path, path) == 3

    check()
