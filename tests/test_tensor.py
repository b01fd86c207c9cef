import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pathmpnn.tensor as T
from pathmpnn.gradchecks import TOLERANCE, op_gradchecks


def test_matmul_identity():
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(x))
    assert np.array_equal(out.values, x)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\) and \(2, 3\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_softmax_uniform_on_zeros():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=0)
    assert out.values == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_segment_sum_definition():
    out = T.segment_sum(T.Tensor([1.0, 2.0, 3.0, 4.0]), [0, 0, 1, 1], 2)
    assert out.values.tolist() == [3.0, 7.0]


def test_segment_sum_empty_segment_is_zero():
    out = T.segment_sum(T.Tensor([[1.0, 1.0]]), [2], 4)
    assert out.values.tolist() == [[0, 0], [0, 0], [1, 1], [0, 0]]


def test_segment_sum_row_count_mismatch():
    with pytest.raises(T.ShapeError, match="segment_sum"):
        T.segment_sum(T.Tensor([1.0, 2.0]), [0, 0, 1], 2)


@given(st.integers(0, 10_000))
def test_segment_sum_permutation_covariant(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(8, 3))
    ids = rng.integers(0, 4, size=8)
    perm = rng.permutation(8)
    a = T.segment_sum(T.Tensor(rows), ids, 4).values
    b = T.segment_sum(T.Tensor(rows[perm]), ids[perm], 4).values
    assert np.allclose(a, b, atol=1e-12)


def test_backward_rejects_non_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(T.mul(x, x))


def test_linear_gradient_is_input():
    x = np.array([[1.0, 2.0, 3.0]])
    w = T.Tensor(np.zeros((3, 1)), requires_grad=True)
    loss = T.matmul(T.Tensor(x), w).sum()
    T.backward(loss)
    assert np.array_equal(w.grad, x.T)


def test_gradient_accumulates_across_reuse():
    w = T.Tensor(np.array([2.0]), requires_grad=True)
    loss = T.add(T.mul(w, w), T.mul(w, 3.0)).sum()   # w^2 + 3w
    T.backward(loss)
    assert w.grad == pytest.approx([2 * 2.0 + 3.0])


def test_op_gradchecks_pass():
    errors = op_gradchecks(seed=0)
    worst = max(errors, key=errors.get)
    assert errors[worst] < TOLERANCE, (worst, errors[worst])


def test_segment_softmax_matches_dense_softmax_per_segment():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(6, 1))
    ids = np.array([0, 0, 0, 1, 1, 2])
    out = T.segment_softmax(T.Tensor(scores), ids, 3).values
    for seg in range(3):
        rows = ids == seg
        expected = np.exp(scores[rows]) / np.exp(scores[rows]).sum()
        assert np.allclose(out[rows], expected)


def test_debug_mode_catches_non_finite():
    T.DEBUG_CHECKS = True
    try:
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError):
                T.log(T.Tensor([-1.0]))
        T.relu(T.Tensor([1.0, -1.0]))  # finite results pass
    finally:
        T.DEBUG_CHECKS = False


def test_adam_zero_gradient_keeps_parameters():
    params = {"w": T.Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    params["w"].grad = np.zeros(2)
    state = T.AdamState(params)
    T.adam_step(params, state, lr=0.1)
    assert params["w"].values.tolist() == [1.0, -2.0]


def test_adam_first_step_is_signed_learning_rate():
    params = {"w": T.Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    params["w"].grad = np.array([0.3, -0.7])
    state = T.AdamState(params)
    before = params["w"].values.copy()
    T.adam_step(params, state, lr=1e-3)
    step = params["w"].values - before
    assert step == pytest.approx([-1e-3, 1e-3], rel=1e-6)


def test_adam_minimizes_quadratic_bowl():
    rng = np.random.default_rng(0)
    center = T.Tensor(rng.normal(size=6) * 0.5)
    params = {"x": T.Tensor(np.zeros(6), requires_grad=True)}
    state = T.AdamState(params)
    for _ in range(500):
        T.zero_grad(params)
        diff = T.sub(params["x"], center)
        T.backward(T.mul(diff, diff).sum())
        T.adam_step(params, state, lr=0.05)
    diff = params["x"].values - center.values
    assert float((diff * diff).sum()) < 1e-6


def test_adam_deterministic_bit_identical():
    def run():
        rng = np.random.default_rng(5)
        params = {"w": T.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                  "b": T.Tensor(np.zeros(3), requires_grad=True)}
        state = T.AdamState(params)
        x = T.Tensor(rng.normal(size=(10, 4)))
        y = T.Tensor(rng.normal(size=(10, 3)))
        for _ in range(20):
            T.zero_grad(params)
            diff = T.sub(T.add(T.matmul(x, params["w"]), params["b"]), y)
            T.backward(T.mul(diff, diff).mean())
            T.adam_step(params, state, lr=1e-2)
        return {k: t.values.copy() for k, t in params.items()}

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    params = {"layer.W": T.Tensor(rng.normal(size=(3, 2)), requires_grad=True),
              "layer.b": T.Tensor(rng.normal(size=(2,)), requires_grad=True)}
    meta = {"note": "fixture", "dims": [3, 2]}
    path = tmp_path / "params.ckpt"
    T.save_params(path, params, metadata=meta)
    loaded, loaded_meta = T.load_params(path)
    assert loaded_meta == meta
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name].values, params[name].values)
        assert loaded[name].requires_grad


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "not_a_ckpt"
    path.write_bytes(b"something else entirely")
    with pytest.raises(ValueError, match="not a parameter checkpoint"):
        T.load_params(path)


def test_lstm_cell_shapes():
    rng = np.random.default_rng(2)
    d = 4
    params = {}
    for gate in ("i", "f", "g", "o"):
        params[f"s.W{gate}"] = T.Tensor(rng.normal(size=(2 * d, d)))
        params[f"s.U{gate}"] = T.Tensor(rng.normal(size=(d, d)))
        params[f"s.b{gate}"] = T.Tensor(np.zeros(d))
    h, c = T.lstm_cell(T.Tensor(rng.normal(size=(3, 2 * d))),
                       (T.Tensor(np.zeros((3, d))), T.Tensor(np.zeros((3, d)))),
                       params, prefix="s")
    assert h.values.shape == (3, d) and c.values.shape == (3, d)


def test_checkpoint_cut_anywhere_raises_naming_the_file(tmp_path):
    params = {"layer.W": T.Tensor(np.ones((3, 2)), requires_grad=True)}
    path = tmp_path / "params.ckpt"
    T.save_params(path, params, metadata={"note": "fixture"})
    whole = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(whole)):
        cut.write_bytes(whole[:size])
        with pytest.raises(T.CheckpointError, match=f"^{cut}: "):
            T.load_params(cut)
