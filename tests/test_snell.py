import numpy as np
import pytest

from rbsdetree import (
    NotSupermartingale,
    cexp_level,
    doob_meyer,
    envelope_jump_support,
    snell_envelope,
)
from rbsdetree.instances import make_tree


def _random_eta(tree, rng):
    return [rng.normal(size=tree.level_size(k)) for k in range(tree.n_steps + 1)]


def test_envelope_dominates_and_is_supermartingale():
    tree = make_tree(3, 1.0, ("a",), rate=0.8)
    rng = np.random.default_rng(0)
    eta = _random_eta(tree, rng)
    r = snell_envelope(tree, eta)
    for k in range(tree.n_steps + 1):
        assert np.all(r[k] >= eta[k] - 1e-14)
    for k in range(tree.n_steps):
        assert np.all(r[k] >= cexp_level(tree, k, r[k + 1]) - 1e-12)


def test_envelope_minimality_against_random_dominating_supermartingales():
    tree = make_tree(3, 1.0, ("a",), rate=0.8)
    rng = np.random.default_rng(1)
    eta = _random_eta(tree, rng)
    r = snell_envelope(tree, eta)
    for _ in range(50):
        # Q = max(eta, E[Q_{k+1}]) + nonneg slack dominates eta and is a
        # supermartingale; the envelope must sit below every such Q.
        q = [None] * (tree.n_steps + 1)
        q[-1] = eta[-1] + rng.uniform(0, 1, size=tree.n_leaves)
        for k in range(tree.n_steps - 1, -1, -1):
            slack = rng.uniform(0, 1, size=tree.level_size(k))
            q[k] = np.maximum(eta[k], cexp_level(tree, k, q[k + 1])) + slack
        for k in range(tree.n_steps + 1):
            assert np.all(r[k] <= q[k] + 1e-12)


def test_martingale_shift_equivariance():
    tree = make_tree(3, 1.0, ("a",), rate=0.6)
    rng = np.random.default_rng(2)
    eta = _random_eta(tree, rng)
    x = [None] * (tree.n_steps + 1)
    x[-1] = rng.normal(size=tree.n_leaves)
    for k in range(tree.n_steps - 1, -1, -1):
        x[k] = cexp_level(tree, k, x[k + 1])
    shifted = snell_envelope(tree, [eta[k] + x[k] for k in range(tree.n_steps + 1)])
    base = snell_envelope(tree, eta)
    for k in range(tree.n_steps + 1):
        assert np.allclose(shifted[k], base[k] + x[k], atol=1e-12)


def test_doob_meyer_decomposition():
    tree = make_tree(3, 1.0, ("a",), rate=0.8)
    rng = np.random.default_rng(3)
    eta = _random_eta(tree, rng)
    r = snell_envelope(tree, eta)
    dec = doob_meyer(tree, r)
    m = [r[k] + dec.k_cum[k] for k in range(tree.n_steps + 1)]
    for k in range(tree.n_steps):
        assert np.all(dec.dk[k] >= 0)
        # martingale property of M = R + K
        assert np.allclose(cexp_level(tree, k, m[k + 1]), m[k], atol=1e-12)
        assert np.allclose(m[k] - dec.k_cum[k], r[k], atol=1e-14)
    assert np.all(dec.k_cum[0] == 0.0)


def test_decomposition_uniqueness():
    # Any split R = M - K with M martingale, K predictable from the node one
    # step ahead, K_0 = 0 must reproduce dK = R - E[R'].
    tree = make_tree(2, 1.0, ("a",), rate=1.0)
    rng = np.random.default_rng(4)
    eta = _random_eta(tree, rng)
    r = snell_envelope(tree, eta)
    dec = doob_meyer(tree, r)
    for k in range(tree.n_steps):
        drift = r[k] - cexp_level(tree, k, r[k + 1])
        assert np.allclose(dec.dk[k], drift, atol=1e-14)


def test_not_supermartingale_raises():
    tree = make_tree(2, 1.0, ("a",), rate=0.5)
    # strictly increasing in expectation: a submartingale
    x = [np.full(tree.level_size(k), float(k)) for k in range(tree.n_steps + 1)]
    with pytest.raises(NotSupermartingale):
        doob_meyer(tree, x)


def test_jump_support_clean_for_envelope_and_dirty_when_tampered():
    tree = make_tree(3, 1.0, ("a",), rate=0.8)
    rng = np.random.default_rng(5)
    eta = _random_eta(tree, rng)
    r = snell_envelope(tree, eta)
    dec = doob_meyer(tree, r)
    assert envelope_jump_support(tree, dec, eta) == []
    # tamper: inject push at a node strictly above eta
    k_bad = next(
        (k for k in range(tree.n_steps) if np.any(dec.r[k] > eta[k] + 1e-6)), None
    )
    assert k_bad is not None
    i_bad = int(np.argmax(dec.r[k_bad] - eta[k_bad]))
    dec.dk[k_bad][i_bad] += 1.0
    viols = envelope_jump_support(tree, dec, eta)
    assert any(v[0] == k_bad and v[1] == i_bad for v in viols)


def test_envelope_monotone_in_reward():
    tree = make_tree(3, 1.0, ("a",), rate=0.7)
    rng = np.random.default_rng(6)
    eta = _random_eta(tree, rng)
    bigger = [e + rng.uniform(0, 1, size=e.shape) for e in eta]
    r1 = snell_envelope(tree, eta)
    r2 = snell_envelope(tree, bigger)
    for k in range(tree.n_steps + 1):
        assert np.all(r1[k] <= r2[k] + 1e-14)
