"""Twin approximators, cross-entropy and sliced Wasserstein."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed import approximators
from meed import autodiff as ad
from meed.core import Mlp
from meed.approximators import (CE_EPS, ApproximatorPair, cross_entropy_var, make_pair,
                                relativistic_flip, sliced_wasserstein_var,
                                sw_directions)
from tests.conftest import relative_error
from tests.helpers import (explicit_sliced_wasserstein, mul, record_sw_paths,
                           sliced_wasserstein_node, sub, take, two_class_sliced_wasserstein)


def cross_entropy(target, pred):
    """Batch-mean cross-entropy of rows (or one row) as a float."""
    return float(cross_entropy_var(np.atleast_2d(target), ad.Var(np.atleast_2d(pred)))[0].value)


def sliced_wasserstein(batch_a, batch_b, n_proj, rng):
    """The SW term of the pair's node with batch_b as A_u's output (and A_s's)."""
    thetas = sw_directions(batch_a.shape[1], n_proj, rng)
    return float(sliced_wasserstein_var(batch_a, ad.Var(np.stack([batch_b, batch_b])), thetas,
                                        (1.0, 1.0))[1][1])


def test_cross_entropy_matches_closed_form():
    target = np.array([1.0, 0.0])
    pred = np.array([0.8, 0.2])
    assert np.isclose(cross_entropy(target, pred), -np.log(0.8))


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_cross_entropy_gibbs_inequality(p_raw, q_raw):
    p = np.array(p_raw) / np.sum(p_raw)
    q = np.array(q_raw) / np.sum(q_raw)
    assert cross_entropy(p, q) >= cross_entropy(p, p) - 1e-9


def test_cross_entropy_var_matches_batch_mean(rng):
    target = rng.random((4, 3))
    target /= target.sum(axis=1, keepdims=True)
    pred = rng.random((4, 3)) + 0.05
    pred /= pred.sum(axis=1, keepdims=True)
    got = cross_entropy_var(target, ad.Var(pred))[0].value
    want = np.mean(-(target * np.log(pred)).sum(axis=1))
    assert np.isclose(got, want)


def two_node_pair_loss(targets, preds, lambda_u):
    """The pair's loss as the tape formed it with one node per net: a take
    and a cross-entropy node per net, then mul/add glue. Returns the total,
    each net's loss and the gradient at preds; each net's loss is also
    checked against the closed form `.sum(axis=1).mean()`."""
    pred = ad.Var(preds)
    nodes = [cross_entropy_var(targets[i], take(pred, i))[0] for i in range(2)]
    for i, node in enumerate(nodes):
        closed = (np.log(np.maximum(preds[i], CE_EPS)) * -targets[i]).sum(axis=1).mean()
        assert node.value.tobytes() == closed.tobytes()
    total = ad.add(nodes[0], mul(nodes[1], lambda_u))
    ad.backward(total)
    return total.value, [node.value for node in nodes], pred.grad


@pytest.mark.parametrize("n", [1, 5, 300])
@pytest.mark.parametrize("c", [2, 3, 10])
@pytest.mark.parametrize("explainer_side", [False, True])
def test_stacked_cross_entropy_equals_the_two_node_form_bit_for_bit(n, c, explainer_side):
    """One node over the pair's (2, n, c) stack with weights (1, lambda_u):
    value, per-net losses and VJP equal the two-node tape form, on predictions
    at, below and far below CE_EPS, and on one-hot targets, whose flip holds
    exact 0.0 and 1.0 entries; n = 300 runs the pairwise sum's blocks.
    Gradients compare by value: the tape summed
    two take VJPs, which turns a -0.0 into +0.0."""
    rng = np.random.default_rng(10 * n + c)
    preds = rng.random((2, n, c)) + 0.05
    preds /= preds.sum(axis=-1, keepdims=True)
    edges = np.array([CE_EPS, 0.5 * CE_EPS, 0.0, -0.2, 1.0])
    preds.reshape(-1)[:len(edges)] = edges[:preds.size]
    y = np.eye(c)[rng.integers(c, size=n)]
    targets = np.stack([y, relativistic_flip(y) if explainer_side else y])
    assert (targets == 0.0).any() and (targets == 1.0).any()
    want_total, want_ce, want_grad = two_node_pair_loss(targets, preds, 0.7)
    pred = ad.Var(preds.copy())
    node, ce = cross_entropy_var(targets if explainer_side else y, pred, (1.0, 0.7))
    ad.backward(node)
    assert node.value.tobytes() == want_total.tobytes()
    assert ce[0].tobytes() == want_ce[0].tobytes() and ce[1].tobytes() == want_ce[1].tobytes()
    assert np.array_equal(pred.grad, want_grad)
    assert np.all(pred.grad[preds <= CE_EPS] == 0.0)


def test_relativistic_flip_binary_and_multiclass():
    y = np.array([[0.8, 0.2], [0.3, 0.7]])
    assert np.array_equal(relativistic_flip(y), 1.0 - y)
    y3 = np.array([[0.6, 0.3, 0.1]])
    flipped = relativistic_flip(y3)
    assert np.allclose(flipped.sum(axis=1), 1.0)
    assert np.allclose(flipped, (1.0 - y3) / 2.0)


def test_sliced_wasserstein_zero_for_identical_batches(rng):
    a = rng.random((10, 3))
    a /= a.sum(axis=1, keepdims=True)
    assert sliced_wasserstein(a, a.copy(), 16, rng) < 1e-12


def test_sliced_wasserstein_detects_shift(rng):
    a = np.tile([0.9, 0.1], (12, 1))
    b = np.tile([0.1, 0.9], (12, 1))
    assert sliced_wasserstein(a, b, 32, rng) > 0.1


def test_sliced_wasserstein_is_permutation_invariant(rng):
    a = rng.random((8, 2))
    b = rng.random((8, 2))
    d1 = sliced_wasserstein(a, b, 16, np.random.default_rng(3))
    d2 = sliced_wasserstein(a, b[::-1].copy(), 16, np.random.default_rng(3))
    assert np.isclose(d1, d2)


def test_sliced_wasserstein_var_matches_scalar(rng):
    """The node is L_s + SW at weights (1, 1), each term its closed form."""
    a = rng.random((6, 3))
    b = rng.random((2, 6, 3))
    thetas = sw_directions(3, 8, rng)
    node, (l_s, sw) = sliced_wasserstein_var(a, ad.Var(b), thetas, (1.0, 1.0))
    proj_a = np.sort(a @ thetas, axis=0)
    proj_b = np.sort(b[1] @ thetas, axis=0)
    assert np.isclose(sw, np.mean((proj_a - proj_b) ** 2))
    assert np.isclose(l_s, np.mean(-(a * np.log(b[0])).sum(axis=1)))
    assert node.value == l_s + sw


def simplex_rows(rng, n, c, kind):
    """n rows on the simplex of R^c: random, with exact duplicates of row 0,
    rounded to one decimal (many ties), or one-hot; or random rows each
    scaled off the simplex by a factor of its own."""
    rows = rng.random((n, c)) + 0.01
    rows /= rows.sum(axis=1, keepdims=True)
    if kind == "duplicates":
        rows[rng.integers(0, n, n // 2 + 1)] = rows[0]
    elif kind == "rounded":
        rows = np.round(rows, 1)
    elif kind == "one-hot":
        rows = np.eye(c)[rng.integers(0, c, n)]
    elif kind == "scaled":
        rows *= rng.uniform(0.5, 1.5, (n, 1))
    return rows


def on_a_line(rows):
    """The closed form's condition, checked apart from the package's own
    check: the row sums spread by at most 1e-12."""
    return np.ptp(rows.sum(axis=1)) <= 1e-12


def test_sliced_wasserstein_equals_the_explicit_form_bit_for_bit(monkeypatch):
    """Over seeded random (n, c, P), n = 1 included. Rows with c > 2, and
    two-class rows off the simplex (scaled, n > 1), sort once per projection:
    value and VJP equal the axis-0 form bit for bit. There ties (duplicates,
    rounded and one-hot rows) take the stable branch, tie-free batches the
    default sort, and both branches run. Two-class rows on the simplex
    (random, duplicates, rounded, one-hot, and any single row) take the closed
    form: value and VJP are within 1e-12 relative of the axis-0 form, and
    equal the two-class reference of tests/helpers.py bit for bit."""
    rising_rows, branches = approximators._rising_rows, []

    def recording(rows):
        branches.append(rising_rows(rows))
        return branches[-1]

    monkeypatch.setattr(approximators, "_rising_rows", recording)
    paths = record_sw_paths(monkeypatch)
    rng = np.random.default_rng(21)
    shapes = [(1, 2, 1), (1, 3, 7), (2, 2, 5), (7, 2, 3), (64, 2, 128), (130, 2, 199),
              (33, 10, 199)]
    shapes += [tuple(int(v) for v in rng.integers((1, 2, 1), (130, 11, 200)))
               for _ in range(40)]
    for n, c, n_proj in shapes:
        for kind in ("random", "duplicates", "rounded", "one-hot", "scaled"):
            batch_a, batch_b = simplex_rows(rng, n, c, kind), simplex_rows(rng, n, c, kind)
            thetas = sw_directions(c, n_proj, rng)
            g = rng.standard_normal()
            want_value, want_vjp = explicit_sliced_wasserstein(batch_a, batch_b, thetas)
            node, (_, sw) = sliced_wasserstein_var(batch_a, ad.Var(np.stack([batch_a, batch_b])),
                                                   thetas, (1.0, 1.0))
            grad = node._backward(g)[0][1]
            case = (n, c, n_proj, kind)
            two_class = c == 2 and on_a_line(batch_a) and on_a_line(batch_b)
            assert two_class == (c == 2 and (kind != "scaled" or n == 1)), case
            assert paths.pop() == ("two-class" if two_class else "per-projection"), case
            if two_class:
                assert relative_error(sw, want_value) < 1e-12, case
                assert relative_error(grad, want_vjp(g)) < 1e-12, case
                ref_value, ref_vjp = two_class_sliced_wasserstein(batch_a, batch_b, thetas)
                assert sw.tobytes() == ref_value.tobytes(), case
                assert grad.tobytes() == ref_vjp(g).tobytes(), case
            else:
                assert np.array_equal(sw, want_value), case
                assert np.array_equal(grad, want_vjp(g)), case
    assert True in branches and False in branches


@given(st.integers(1, 130), st.integers(1, 200), st.integers(0, 130), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_two_class_sliced_wasserstein_is_within_1e_12_of_the_explicit_form(
        n, n_proj, ties, seed):
    """Two-class rows on the simplex, with up to `ties` rows of each side
    overwritten by copies of other rows, take the closed form. Its value and
    VJP are within 1e-12 relative of the axis-0 form, and so is the
    two-class reference of tests/helpers.py."""
    rng = np.random.default_rng(seed)
    batches = [simplex_rows(rng, n, 2, "random") for _ in range(2)]
    for rows in batches:
        copies = rng.integers(0, n, min(ties, n))
        rows[copies] = rows[rng.integers(0, n, len(copies))]
    batch_a, batch_b = batches
    thetas = sw_directions(2, n_proj, rng)
    g = rng.standard_normal()
    want_value, want_vjp = explicit_sliced_wasserstein(batch_a, batch_b, thetas)
    with pytest.MonkeyPatch.context() as monkeypatch:
        paths = record_sw_paths(monkeypatch)
        node, (_, sw) = sliced_wasserstein_var(batch_a, ad.Var(np.stack([batch_a, batch_b])),
                                               thetas, (1.0, 1.0))
    assert paths == ["two-class"]
    ref_value, ref_vjp = two_class_sliced_wasserstein(batch_a, batch_b, thetas)
    for value, grad in ((sw, node._backward(g)[0][1]), (ref_value, ref_vjp(g))):
        assert relative_error(value, want_value) < 1e-12
        assert relative_error(grad, want_vjp(g)) < 1e-12


@pytest.mark.parametrize("explainer_side", [False, True])
@pytest.mark.parametrize("n, kind", [(1, "random"), (7, "random"), (40, "random"),
                                     (40, "duplicates"), (40, "one-hot")])
def test_sliced_wasserstein_pair_node_equals_the_two_node_form_bit_for_bit(
        monkeypatch, explainer_side, n, kind):
    """One node over the pair's (2, n, c) stack with weights (1, lambda_u), or
    (1, -lambda_u) on the explainer's side: value, both terms and VJP equal
    the two-node tape form, a take and a cross-entropy node for A_s and a
    take and a sliced Wasserstein node for A_u joined by add/mul (sub/mul)
    glue. Duplicate and one-hot rows tie in every projection and take the
    stable-sort branch. Gradients compare by value: the tape summed two take
    VJPs, which turns a -0.0 into +0.0."""
    rising_rows, branches = approximators._rising_rows, []

    def recording(rows):
        branches.append(rising_rows(rows))
        return branches[-1]

    monkeypatch.setattr(approximators, "_rising_rows", recording)
    rng = np.random.default_rng(n)
    y = simplex_rows(rng, n, 3, "random")
    preds = np.stack([simplex_rows(rng, n, 3, "random"), simplex_rows(rng, n, 3, kind)])
    preds[0, 0, 0] = 0.5 * CE_EPS  # below CE_EPS: clamped, so it gets no gradient
    thetas = sw_directions(3, 16, rng)
    lambda_u = 0.7
    pred = ad.Var(preds.copy())
    l_s_node = cross_entropy_var(y, take(pred, 0))[0]
    sw_node = sliced_wasserstein_node(y, take(pred, 1), thetas)
    glue = sub if explainer_side else ad.add
    want = glue(l_s_node, mul(sw_node, lambda_u))
    ad.backward(want)
    got_pred = ad.Var(preds.copy())
    weights = (1.0, -lambda_u if explainer_side else lambda_u)
    node, (l_s, sw) = sliced_wasserstein_var(y, got_pred, thetas, weights)
    ad.backward(node)
    assert node.value.tobytes() == want.value.tobytes()
    assert l_s.tobytes() == l_s_node.value.tobytes() and sw.tobytes() == sw_node.value.tobytes()
    assert np.array_equal(got_pred.grad, pred.grad)
    assert got_pred.grad[0, 0, 0] == 0.0
    assert branches[-1] == (kind == "random")


def test_make_pair(rng):
    pair = make_pair(d=5, c=2, hidden=(8,), rng=rng)
    assert isinstance(pair, ApproximatorPair)
    assert pair.a_selected.widths == pair.a_unselected.widths
    assert not np.shares_memory(pair.a_selected.parameters, pair.a_unselected.parameters)
    assert not np.allclose(pair.a_selected.parameters, pair.a_unselected.parameters)


def test_make_pair_equals_two_mlps_drawn_from_one_rng():
    pair = make_pair(d=5, c=3, hidden=(8, 4), rng=np.random.default_rng(7))
    rng = np.random.default_rng(7)
    first, second = Mlp(5, (8, 4, 3), rng=rng), Mlp(5, (8, 4, 3), rng=rng)
    assert pair.net.nets == 2
    assert np.array_equal(pair.a_selected.parameters, first.parameters)
    assert np.array_equal(pair.a_unselected.parameters, second.parameters)
    assert np.array_equal(pair.net.parameters,
                          np.concatenate([first.parameters, second.parameters]))


def test_pair_views_write_through_to_the_stacked_net(rng):
    pair = make_pair(d=5, c=2, hidden=(8,), rng=rng)
    for i, view in enumerate((pair.a_selected, pair.a_unselected)):
        assert view.nets == 1 and view.n_params == pair.net.n_params // 2
        assert np.shares_memory(view.parameters, pair.net.parameters)
        fresh = rng.standard_normal(view.n_params)
        view.set_parameters(fresh)
        assert np.array_equal(np.split(pair.net.parameters, 2)[i], fresh)
    x = rng.standard_normal((4, 5))
    stacked = pair.net.predict(np.stack([x, 2.0 * x]))
    assert np.array_equal(stacked[0], pair.a_selected.predict(x))
    assert np.array_equal(stacked[1], pair.a_unselected.predict(2.0 * x))


def test_pair_outputs_are_simplex(rng):
    pair = make_pair(d=5, c=3, hidden=(8,), rng=rng)
    x = rng.standard_normal((4, 5))
    for net in (pair.a_selected, pair.a_unselected):
        out = net.predict(x)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= 0).all()
