import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
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


@given(rows=st.integers(0, 12), segments=st.integers(1, 6),
       width=st.sampled_from([None, 0, 1, 3, T._COLUMN_SCATTER_MAX_WIDTH,
                              T._COLUMN_SCATTER_MAX_WIDTH + 1, 16]),
       view=st.booleans(), seed=st.integers(0, 10_000))
def test_scatter_equals_add_at_exactly(rows, segments, width, view, seed):
    # tolerance 0 on both sides of the width threshold: one bincount per
    # column, and one over (id, column) bins, each add rows in input order,
    # as np.add.at does. Ids are unsorted and repeat, and some segments stay
    # empty; width None is 1-D values, and a view is a non-contiguous block
    # of columns, as T.columns makes.
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, segments, size=rows)
    if width is None:
        values = rng.normal(size=rows)
    elif view:
        values = rng.normal(size=(rows, width + 3))[:, 2:2 + width]
    else:
        values = rng.normal(size=(rows, width))
    expected = np.zeros((segments,) + values.shape[1:])
    np.add.at(expected, ids, values)

    summed = T.segment_sum(T.Tensor(values), ids, segments).values
    assert summed.shape == expected.shape and np.array_equal(summed, expected)

    # gather_rows backward scatters its output gradient (here `values`
    # itself, the gradient of sum(gathered * values)) back by the same ids
    source = T.Tensor(np.zeros((segments,) + values.shape[1:]), requires_grad=True)
    T.backward(T.mul(T.gather_rows(source, ids), T.Tensor(values)).sum())
    assert np.array_equal(source.grad, expected)


def test_columns_is_a_view_whose_gradient_lands_in_its_columns():
    x = T.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    block = T.columns(x, 1, 3)
    assert np.shares_memory(block.values, x.values)
    assert np.array_equal(block.values, x.values[:, 1:3])
    T.backward(T.add(T.mul(block, 2.0), T.columns(x, 2, 4)).sum())
    assert x.grad.tolist() == [[0.0, 2.0, 3.0, 1.0]] * 3


def test_backward_rejects_non_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(T.mul(x, x))


def test_backward_rejects_a_loss_that_requires_no_gradient():
    # before, backward ran nothing and left every gradient None, which
    # adam_step treats as zero: a silent no-op step
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        loss = T.mul(x, x).sum()
    with pytest.raises(ValueError, match="requires no gradient"):
        T.backward(loss)
    with pytest.raises(ValueError, match="requires no gradient"):
        T.backward(T.mul(T.Tensor(np.ones(3)), 2.0).sum())
    assert x.grad is None


def test_no_grad_restores_the_flag_after_a_raise_and_after_nested_blocks():
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError
    assert T.GRAD_ENABLED
    with T.no_grad():
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError
        assert not T.GRAD_ENABLED
        with T.no_grad():
            assert not T.GRAD_ENABLED
        assert not T.GRAD_ENABLED
    assert T.GRAD_ENABLED


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


@pytest.mark.parametrize("size", ["molecular", "citation"])
def test_flat_adam_equals_per_tensor_adam_exactly(size):
    # tolerance 0 over 50 random steps: the flat step runs the per-tensor
    # step's elementwise ops in its order. The citation model's 138,263
    # numbers cross chunk boundaries; the molecular one has 36 tensors.
    from pathmpnn.citation import PathGCNConfig, init_gcn_params
    from pathmpnn.model import ModelConfig, init_params
    if size == "molecular":
        model = init_params(ModelConfig(hidden_dim=12, path_length=3, feature_mode="geometry"),
                            3, 5)
    else:
        model = init_gcn_params(PathGCNConfig(hidden_dim=16, path_length=3, per_hop_budget=1),
                                1433, 7)
    rng = np.random.default_rng(3)
    params = {k: T.Tensor(rng.normal(size=t.values.shape), requires_grad=True)
              for k, t in model.items()}
    twins = {k: T.Tensor(t.values.copy(), requires_grad=True) for k, t in params.items()}
    oracle_state = oracles.PerTensorAdam(twins)
    state = T.AdamState(params)
    assert state.values.size == (6361 if size == "molecular" else 138_263)
    assert len(state.chunks) == -(-state.values.size // T._ADAM_CHUNK)
    for step in range(50):
        scale = 10.0 ** rng.integers(-6, 3)
        for name, t in params.items():
            g = scale * rng.normal(size=t.values.shape)
            g[rng.random(size=g.shape) < 0.1] = 0.0
            t.grad[...] = g
            twins[name].grad = g.copy()
        T.adam_step(params, state, lr=1e-3 * (1 + step % 3))
        oracles.per_tensor_adam_step(twins, oracle_state, lr=1e-3 * (1 + step % 3))
    for name in params:
        assert np.array_equal(params[name].values, twins[name].values), name
    assert np.array_equal(state.m, np.concatenate([m.reshape(-1) for m in oracle_state.m.values()]))
    assert np.array_equal(state.v, np.concatenate([v.reshape(-1) for v in oracle_state.v.values()]))


def test_adam_state_packs_values_and_gradients_into_views():
    params = {"W": T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
              "b": T.Tensor(np.array([7.0]), requires_grad=True)}
    params["W"].grad = np.full((2, 3), 0.5)
    state = T.AdamState(params)
    assert np.array_equal(state.values, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
    assert np.array_equal(state.grads, [0.5] * 6 + [0.0])
    for t in params.values():
        assert np.shares_memory(t.values, state.values)
        assert np.shares_memory(t.grad, state.grads)
    params["b"].values += 1.0   # in place: still the buffer
    assert state.values[-1] == 8.0
    T.zero_grad(params)         # in place: the gradient stays a view
    assert not state.grads.any()
    T.adam_step(params, state)


@pytest.mark.parametrize("field", ["values", "grad"])
def test_adam_step_refuses_a_parameter_rebound_after_packing(field):
    # a rebound tensor no longer views the buffers, so every later step
    # would silently leave it alone
    params = {"a": T.Tensor(np.ones(2), requires_grad=True),
              "b": T.Tensor(np.ones(3), requires_grad=True)}
    state = T.AdamState(params)
    setattr(params["b"], field, np.ones(3))
    with pytest.raises(ValueError, match="parameter b: values or gradient no longer views"):
        T.adam_step(params, state)
    assert state.t == 0 and np.array_equal(state.values, np.ones(5))


def test_adam_step_refuses_parameters_it_did_not_pack():
    params = {"a": T.Tensor(np.ones(2), requires_grad=True)}
    state = T.AdamState(params)
    with pytest.raises(ValueError, match="packs 1 parameters, got 2"):
        T.adam_step(params | {"c": T.Tensor(np.ones(1), requires_grad=True)}, state)
    with pytest.raises(ValueError, match="parameter c"):
        T.adam_step({"c": T.Tensor(np.ones(1), requires_grad=True)}, state)


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
    h, c = T.lstm_cell([T.Tensor(rng.normal(size=(3, 2 * d)))],
                       (T.Tensor(np.zeros((3, d))), T.Tensor(np.zeros((3, d)))),
                       *T.lstm_weights(params, prefix="s"))
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


# -- fused ops against the per-op forms in oracles.py ------------------------

def max_relative_error(got, want):
    """Largest entry-wise difference over the largest entry of `want`."""
    scale = np.abs(want).max() if want.size else 0.0
    return float(np.abs(got - want).max() / scale) if scale > 0 else 0.0


def _grads(build, inputs, probe):
    T.zero_grad(inputs)
    out = build()
    T.backward(T.mul(out, probe).sum())
    return out.values, {k: (t.grad.copy() if t.grad is not None else None)
                        for k, t in inputs.items()}


@given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       needs_grad=st.lists(st.booleans(), min_size=3, max_size=3),
       rows=st.integers(0, 6), bias=st.booleans(), seed=st.integers(0, 10_000))
def test_dense_equals_add_matmul_concat_exactly(widths, needs_grad, rows, bias, seed):
    # tolerance 0, forward and every gradient: dense's backward does the
    # three ops' arithmetic. Parts that need no gradient get none.
    rng = np.random.default_rng(seed)
    parts = [T.Tensor(rng.normal(size=(rows, w)), requires_grad=flag)
             for w, flag in zip(widths, needs_grad)]
    W = T.Tensor(rng.normal(size=(sum(widths), 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=3), requires_grad=True) if bias else None
    inputs = {f"part{i}": p for i, p in enumerate(parts)} | {"W": W}
    if bias:
        inputs["b"] = b
    probe = T.Tensor(rng.normal(size=(rows, 3)))
    fused, fused_grads = _grads(lambda: T.dense(parts, W, b), inputs, probe)
    composed, composed_grads = _grads(lambda: oracles.composed_dense(parts, W, b),
                                      inputs, probe)
    assert np.array_equal(fused, composed)
    for name, t in inputs.items():
        if t.requires_grad:
            assert np.array_equal(fused_grads[name], composed_grads[name]), name
        else:
            assert fused_grads[name] is None, name


EXTREMES = [0.0, -0.0, 1e-310, -1e-310, 5e-324, -5e-324, 1e-300, -1e-300, 36.0, -36.0,
            709.0, -709.0, 745.0, -745.0, 1e3, -1e3, 1e308, -1e308, np.inf, -np.inf]


@given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from(EXTREMES), min_size=1, max_size=30))
def test_sigmoid_equals_masked_form_exactly(values):
    # tolerance 0 over +-1e3, denormals and infinities, forward and backward
    x = T.Tensor(np.array(values), requires_grad=True)
    out = T.sigmoid(x)
    assert np.array_equal(out.values, oracles.masked_sigmoid(x.values))
    T.backward(out.sum())
    want = oracles.masked_sigmoid(x.values)
    assert np.array_equal(x.grad, want * (1.0 - want))


@given(rows=st.integers(1, 12), segments=st.integers(1, 6), width=st.sampled_from([1, 2]),
       scale=st.sampled_from([1.0, 30.0]), seed=st.integers(0, 10_000))
def test_fused_segment_softmax_equals_composed_form(rows, segments, width, scale, seed):
    # within 1e-12 relative, forward and backward; unsorted repeated ids and
    # empty segments. The gradient w * (g - sum(w * g)) cancels when one
    # weight is near 1, so its error is taken relative to the size of the
    # terms that cancel, max|w| * max|g|, not to the small difference.
    rng = np.random.default_rng(seed)
    scores = T.Tensor(scale * rng.normal(size=(rows, width)), requires_grad=True)
    ids = rng.integers(0, segments, size=rows)
    probe = T.Tensor(rng.normal(size=(rows, width)))
    fused, fused_grads = _grads(lambda: T.segment_softmax(scores, ids, segments),
                                {"scores": scores}, probe)
    composed, composed_grads = _grads(
        lambda: oracles.composed_segment_softmax(scores, ids, segments),
        {"scores": scores}, probe)
    assert max_relative_error(fused, composed) <= 1e-12
    terms = np.abs(composed).max() * np.abs(probe.values).max()
    assert np.abs(fused_grads["scores"] - composed_grads["scores"]).max() <= 1e-12 * terms


@given(rows=st.integers(1, 5), d=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_fused_lstm_cell_equals_per_gate_form(rows, d, seed):
    # within 1e-12 of the largest entry, forward and backward: the fused
    # cell's [x, h] @ [W; U] sums each gate's two products in one dot
    rng = np.random.default_rng(seed)
    params = {}
    for gate in ("i", "f", "g", "o"):
        params[f"s.W{gate}"] = T.Tensor(rng.normal(size=(2 * d, d)), requires_grad=True)
        params[f"s.U{gate}"] = T.Tensor(rng.normal(size=(d, d)), requires_grad=True)
        params[f"s.b{gate}"] = T.Tensor(rng.normal(size=d), requires_grad=True)
    q, r, c = (T.Tensor(rng.normal(size=(rows, d)), requires_grad=True) for _ in range(3))
    inputs = params | {"q": q, "r": r, "c": c}
    probe = T.Tensor(rng.normal(size=(rows, 2 * d)))

    def fused():
        h_new, c_new = T.lstm_cell([q, r], (q, c), *T.lstm_weights(params, prefix="s"))
        return T.concat([h_new, c_new], axis=1)

    def per_gate():
        h_new, c_new = oracles.per_gate_lstm_cell(T.concat([q, r], axis=1), (q, c),
                                                  params, prefix="s")
        return T.concat([h_new, c_new], axis=1)

    got, got_grads = _grads(fused, inputs, probe)
    want, want_grads = _grads(per_gate, inputs, probe)
    assert max_relative_error(got, want) <= 1e-12
    for name in inputs:
        assert max_relative_error(got_grads[name], want_grads[name]) <= 1e-12, name


def test_reshape_round_trips_values_and_gradient():
    x = T.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = T.reshape(x, (2, 6))
    assert np.array_equal(out.values, np.arange(12.0).reshape(2, 6))
    T.backward(T.mul(out, T.Tensor(np.arange(12.0).reshape(2, 6))).sum())
    assert np.array_equal(x.grad, np.arange(12.0).reshape(3, 4))


ONE_OR_BOTH = [(True, True), (True, False), (False, True)]   # of two inputs, needing gradients


@given(rows=st.integers(0, 10), segments=st.integers(1, 5), width=st.integers(1, 4),
       per_row=st.booleans(), needs_grad=st.sampled_from(ONE_OR_BOTH),
       seed=st.integers(0, 10_000))
def test_segment_weighted_sum_equals_composed_form_exactly(rows, segments, width, per_row,
                                                           needs_grad, seed):
    # tolerance 0, forward and both gradients: the fused backward does
    # mul's and segment_sum's arithmetic. Weights are one per row (as the
    # attention weights are) or one per entry; unsorted ids, empty segments.
    rng = np.random.default_rng(seed)
    w = T.Tensor(rng.normal(size=(rows, 1 if per_row else width)), requires_grad=needs_grad[0])
    v = T.Tensor(rng.normal(size=(rows, width)), requires_grad=needs_grad[1])
    ids = rng.integers(0, segments, size=rows)
    probe = T.Tensor(rng.normal(size=(segments, width)))
    inputs = {"w": w, "v": v}
    fused, fused_grads = _grads(lambda: T.segment_weighted_sum(w, v, ids, segments),
                                inputs, probe)
    composed, composed_grads = _grads(
        lambda: oracles.composed_segment_weighted_sum(w, v, ids, segments), inputs, probe)
    assert np.array_equal(fused, composed)
    for name, t in inputs.items():
        if not t.requires_grad:
            assert fused_grads[name] is None and composed_grads[name] is None
        else:
            assert np.array_equal(fused_grads[name], composed_grads[name]), name


@given(rows=st.integers(0, 10), q_rows=st.integers(1, 4), width=st.integers(1, 5),
       needs_grad=st.sampled_from(ONE_OR_BOTH),
       seed=st.integers(0, 10_000))
def test_row_dot_equals_composed_form_exactly(rows, q_rows, width, needs_grad, seed):
    # tolerance 0, forward and both gradients; q's rows are gathered
    # unsorted and repeated, and some are never read
    rng = np.random.default_rng(seed)
    a = T.Tensor(rng.normal(size=(rows, width)), requires_grad=needs_grad[0])
    q = T.Tensor(rng.normal(size=(q_rows, width)), requires_grad=needs_grad[1])
    ids = rng.integers(0, q_rows, size=rows)
    probe = T.Tensor(rng.normal(size=(rows, 1)))
    inputs = {"a": a, "q": q}
    fused, fused_grads = _grads(lambda: T.row_dot(a, q, ids), inputs, probe)
    composed, composed_grads = _grads(lambda: oracles.composed_row_dot(a, q, ids),
                                      inputs, probe)
    assert fused.shape == (rows, 1) and np.array_equal(fused, composed)
    for name, t in inputs.items():
        if not t.requires_grad:
            assert fused_grads[name] is None and composed_grads[name] is None
        else:
            assert np.array_equal(fused_grads[name], composed_grads[name]), name


def test_fused_readout_ops_are_gradchecked():
    errors = op_gradchecks(seed=0)
    for op in ("segment_weighted_sum", "row_dot"):
        assert errors[op] < TOLERANCE, (op, errors[op])


def test_fused_readout_ops_reject_mismatched_rows():
    with pytest.raises(T.ShapeError, match="3 rows vs 2 segment ids"):
        T.segment_weighted_sum(np.ones((3, 1)), np.ones((3, 2)), [0, 1], 2)
    with pytest.raises(T.ShapeError, match="row_dot"):
        T.row_dot(np.ones((2, 3)), np.ones((4, 2)), [0, 1])
