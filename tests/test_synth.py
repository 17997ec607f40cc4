import math

import numpy as np
import pytest

from sptlab.dataset import PriceGrid
from sptlab.synth import (SPEC_IDS, baseline_utility, fine_price_grid,
                          generate, make_spec, oracle_optimal_batch,
                          oracle_teacher, price_sensitivity,
                          standard_normal_cdf, true_probability_batch)


def erf_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# --- standard normal CDF ------------------------------------------------------

def test_cdf_zero():
    assert standard_normal_cdf(0.0) == 0.5


def test_cdf_975_quantile():
    assert standard_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)


def test_cdf_deep_tail():
    assert standard_normal_cdf(-8.0) < 1e-15


def test_cdf_symmetry():
    z = np.linspace(-6, 6, 41)
    np.testing.assert_allclose(standard_normal_cdf(-z),
                               1.0 - standard_normal_cdf(z), atol=1e-15)


def test_cdf_matches_independent_erf():
    for z in np.linspace(-7.5, 7.5, 61):
        assert standard_normal_cdf(z) == pytest.approx(erf_cdf(z), abs=1e-12)


# --- spec functions -----------------------------------------------------------

def test_spec3_step():
    spec = make_spec(3)
    assert price_sensitivity(spec, [[-2.0, 0.0]])[0] == -1.2
    assert price_sensitivity(spec, [[-0.5, 0.0]])[0] == -1.1
    assert price_sensitivity(spec, [[0.5, 0.0]])[0] == -0.9
    assert price_sensitivity(spec, [[1.5, 0.0]])[0] == -0.8


def test_spec4_two_dim_step():
    spec = make_spec(4)
    assert price_sensitivity(spec, [[1.5, -0.5]])[0] == pytest.approx(-0.85)
    assert price_sensitivity(spec, [[-2.0, 1.0]])[0] == pytest.approx(-1.15)


def test_spec1_probability():
    spec = make_spec(1)
    assert true_probability_batch(spec, [[5.0, 0.0]], 5.0)[0] == 0.5
    assert (true_probability_batch(spec, [[5.0, 0.0]], 4.0)[0]
            == pytest.approx(0.841345, abs=5e-7))


def test_spec6_degenerate_sensitivity():
    spec = make_spec(6)
    for p in (0.0, 3.0, 100.0):
        assert true_probability_batch(spec, [[0.0, 0.0]], p)[0] == 0.5


def test_spec2_beta_sparse_and_seeded():
    spec = make_spec(2, seed=4)
    assert spec.beta.shape == (20,)
    assert np.all(spec.beta[5:] == 0.0)
    assert np.any(spec.beta[:5] != 0.0)
    again = make_spec(2, seed=4)
    np.testing.assert_array_equal(spec.beta, again.beta)
    other = make_spec(2, seed=5)
    assert not np.array_equal(spec.beta, other.beta)


def test_spec2_invariant_to_zero_beta_features():
    spec = make_spec(2, seed=1)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 20))
    Xp = X.copy()
    Xp[:, 5:] = Xp[:, 5:][:, ::-1]  # permute the zero-beta block
    np.testing.assert_array_equal(true_probability_batch(spec, X, 1.3),
                                  true_probability_batch(spec, Xp, 1.3))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        true_probability_batch(make_spec(2, seed=0), [[1.0, 2.0]], 1.0)


# --- generate -----------------------------------------------------------------

def test_generate_deterministic():
    spec = make_spec(4)
    a = generate(spec, 500, 9)
    b = generate(spec, 500, 9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.prices, b.prices)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)
    c = generate(spec, 500, 10)
    assert not np.array_equal(a.prices, c.prices)


def test_generate_laws():
    d1 = generate(make_spec(1), 20000, 0)
    assert d1.features.mean() == pytest.approx(5.0, abs=0.05)
    assert d1.prices.mean() == pytest.approx(5.0, abs=0.05)
    assert d1.prices.std() == pytest.approx(1.0, abs=0.05)
    d4 = generate(make_spec(4), 20000, 0)
    # P ~ N(X0 + 5, variance 2) so total variance is 3
    assert d4.prices.std() == pytest.approx(math.sqrt(3.0), abs=0.05)
    np.testing.assert_allclose(np.corrcoef(d4.features[:, 0], d4.prices)[0, 1],
                               1 / math.sqrt(3), atol=0.05)


def test_generate_spec5_confounded_prices():
    # prices track the valuation level (mean ~5) with unit confounding slope
    d5 = generate(make_spec(5), 20000, 0)
    assert d5.prices.mean() == pytest.approx(5.0, abs=0.05)
    assert d5.prices.std() == pytest.approx(math.sqrt(3.0), abs=0.05)
    np.testing.assert_allclose(np.corrcoef(d5.features[:, 0], d5.prices)[0, 1],
                               1 / math.sqrt(3), atol=0.05)
    assert 0.3 < d5.outcomes.mean() < 0.7


def test_generate_probit_symmetry_near_zero_index():
    spec = make_spec(1)
    data = generate(spec, 50000, 2)
    z = baseline_utility(spec, data.features) + \
        price_sensitivity(spec, data.features) * data.prices
    close = np.abs(z) < 0.05
    assert close.sum() > 300
    assert data.outcomes[close].mean() == pytest.approx(0.5, abs=0.05)


def test_generate_all_specs_shapes():
    for sid in SPEC_IDS:
        spec = make_spec(sid, seed=0)
        data = generate(spec, 50, 1)
        assert data.n == 50
        assert data.d == (20 if sid == 2 else 2)


# --- oracle optima --------------------------------------------------------------

def test_oracle_optimal_monotone_case():
    # h = 0: revenue is increasing in price, so the top grid price wins
    spec = make_spec(6)
    grid = PriceGrid(np.asarray([1.0, 2.0, 3.0]))
    (price,), (rev,) = oracle_optimal_batch(spec, [[0.0, 0.0]], grid)
    assert price == 3.0
    assert rev == pytest.approx(1.5)


def test_oracle_optimal_dataset1():
    spec = make_spec(1)
    grid = PriceGrid(np.asarray([4.0, 5.0, 6.0]))
    (price,), (rev,) = oracle_optimal_batch(spec, [[5.0, 0.0]], grid)
    assert price == 4.0
    assert rev == pytest.approx(4.0 * erf_cdf(1.0), abs=1e-12)


def test_oracle_optimal_single_grid():
    spec = make_spec(1)
    grid = PriceGrid(np.asarray([4.5]))
    (price,), _ = oracle_optimal_batch(spec, [[5.0, 0.0]], grid)
    assert price == 4.5


def test_oracle_optimal_dominance():
    spec = make_spec(4)
    data = generate(spec, 200, 5)
    grid = PriceGrid(np.percentile(data.prices, [10, 30, 50, 70, 90]))
    prices, revs = oracle_optimal_batch(spec, data.features, grid)
    for p in grid.prices:
        alt = p * true_probability_batch(spec, data.features, float(p))
        assert np.all(revs >= alt - 1e-12)


def test_fine_price_grid():
    grid = fine_price_grid(1.0, 2.0, 101)
    assert grid.m == 101
    assert grid.prices[0] == 1.0 and grid.prices[-1] == 2.0


def test_oracle_teacher_matches_truth():
    spec = make_spec(3)
    t = oracle_teacher(spec)
    X = generate(spec, 40, 8).features
    np.testing.assert_array_equal(t.predict_proba_batch(X, 4.5),
                                  true_probability_batch(spec, X, 4.5))
