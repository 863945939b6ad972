import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from matchbench import (
    DegenerateIndexError,
    EstimatorResult,
    MatchedSample,
    cca,
    compute_moments,
    counterexample_market,
    gaussian_market,
    normalize_weights,
    simulate_market,
    spearman_estimate,
    spearman_objective,
    spearman_objective_prob_form,
    spearman_upper_bound,
)
from matchbench.distributions import average_ranks
from matchbench.errors import NumericalError
from matchbench import estimators
from matchbench.estimators import (
    _COARSE_CIRCLE,
    _EXACT_DOT_MAX_N,
    _exact_dot4,
    _nelder_mead,
    _rank_product_mean,
    _unit_from_angles,
)


def comonotone_sample(n: int) -> MatchedSample:
    values = np.arange(n, dtype=float).reshape(-1, 1)
    return MatchedSample(xs=values, ys=values.copy())


def anti_comonotone_sample(n: int) -> MatchedSample:
    values = np.arange(n, dtype=float).reshape(-1, 1)
    return MatchedSample(xs=values, ys=-values)


def search_alone(sample: MatchedSample, restarts: int, seed: int) -> EstimatorResult:
    """The restarts and the grid of ``spearman_estimate``, with no arc to answer first."""
    with mock.patch.object(estimators, "_comonotone_arc", lambda s: None):
        return spearman_estimate(sample, restarts, seed)


class TestObjective:
    @pytest.mark.parametrize("n", [2, 3, 10, 97, 1000, 100_000])
    def test_comonotone_attains_bound_exactly(self, n):
        sample = comonotone_sample(n)
        assert spearman_objective(sample, [1.0], [1.0]) == spearman_upper_bound(n)

    def test_comonotone_attains_bound_exactly_at_one_million(self):
        # the float dot of the raw ranks rounds here; the chunked sum does not
        n = 1_000_000
        assert spearman_objective(comonotone_sample(n), [1.0], [1.0]) == spearman_upper_bound(n)

    def test_chunked_sum_is_exact(self, rng):
        # 3e5 terms take 12 chunks; tied ranks exercise the half-integers
        n = 300_000
        ru = average_ranks(rng.integers(0, 1000, n).astype(float))
        rv = average_ranks(rng.normal(size=n))
        twice_u = (2 * ru).astype(np.int64)
        twice_v = (2 * rv).astype(np.int64)
        assert _exact_dot4(ru, rv) == int(twice_u @ twice_v)
        expected = int(twice_u @ twice_v) / (4 * n * (n + 1) ** 2)
        assert spearman_objective(
            MatchedSample(xs=ru.reshape(-1, 1), ys=rv.reshape(-1, 1)), [1.0], [1.0]
        ) == expected

    def test_size_beyond_exact_range_rejected(self):
        # the largest n whose single rank products still leave a chunk of one
        assert _EXACT_DOT_MAX_N**2 <= 2**51 < (_EXACT_DOT_MAX_N + 1) ** 2
        # a broadcast view has the size without the memory
        ranks = np.broadcast_to(1.0, (_EXACT_DOT_MAX_N + 1,))
        with pytest.raises(NumericalError, match="exact only up to n"):
            _rank_product_mean(ranks, ranks)

    def test_bound_approaches_one_third(self):
        n = 100_000
        value = spearman_objective(comonotone_sample(n), [1.0], [1.0])
        assert abs(value - 1.0 / 3.0) < 0.005

    @pytest.mark.parametrize("n", [2, 5, 50, 333])
    def test_anti_comonotone_value(self, n):
        # sum of k(n+1-k) has the closed form below; same single rounding
        expected = float(n * (n + 1) ** 2 // 2 - n * (n + 1) * (2 * n + 1) // 6) / float(
            n * (n + 1) * (n + 1)
        )
        assert spearman_objective(anti_comonotone_sample(n), [1.0], [1.0]) == expected
        assert abs(expected - (n + 2) / (6.0 * (n + 1))) < 1e-15

    def test_independent_pairing_near_quarter(self, rng):
        n = 100_000
        sample = MatchedSample(xs=rng.normal(size=(n, 1)), ys=rng.normal(size=(n, 1)))
        assert abs(spearman_objective(sample, [1.0], [1.0]) - 0.25) < 0.005

    def test_degenerate_index_rejected(self):
        sample = MatchedSample(xs=np.ones((10, 1)), ys=np.arange(10.0).reshape(-1, 1))
        with pytest.raises(DegenerateIndexError):
            spearman_objective(sample, [1.0], [1.0])

    def test_bound_holds_for_random_weights(self, rng):
        n = 300
        xs = rng.normal(size=(n, 2))
        ys = rng.normal(size=(n, 2))
        sample = MatchedSample(xs=xs, ys=ys)
        bound = spearman_upper_bound(n)
        for _ in range(100):
            alpha = rng.normal(size=2)
            beta = rng.normal(size=2)
            value = spearman_objective(sample, alpha, beta)
            assert value <= bound
            # equality only when the two rankings coincide
            ru = np.argsort(np.argsort(xs @ alpha))
            rv = np.argsort(np.argsort(ys @ beta))
            if value == bound:
                np.testing.assert_array_equal(ru, rv)


class TestProbabilityForm:
    def test_single_couple(self):
        sample = MatchedSample(xs=[[0.0]], ys=[[0.0]])
        assert spearman_objective_prob_form(sample, [1.0], [1.0]) == 1.0

    def test_two_couples_comonotone(self):
        sample = comonotone_sample(2)
        assert spearman_objective_prob_form(sample, [1.0], [1.0]) == 0.625

    def test_agrees_with_rank_form(self, rng):
        n = 500
        sample = MatchedSample(xs=rng.normal(size=(n, 2)), ys=rng.normal(size=(n, 1)))
        alpha, beta = [0.8, 0.6], [1.0]
        a = spearman_objective(sample, alpha, beta)
        b = spearman_objective_prob_form(sample, alpha, beta)
        assert abs(a - b) <= 3.0 / n

    def test_agrees_with_rank_form_comonotone(self):
        n = 500
        sample = comonotone_sample(n)
        a = spearman_objective(sample, [1.0], [1.0])
        b = spearman_objective_prob_form(sample, [1.0], [1.0])
        assert abs(a - b) <= 3.0 / n

    def test_agrees_with_rank_form_at_large_n(self, rng):
        n = 10_000
        sample = MatchedSample(xs=rng.normal(size=(n, 2)), ys=rng.normal(size=(n, 1)))
        alpha, beta = [0.8, 0.6], [1.0]
        a = spearman_objective(sample, alpha, beta)
        b = spearman_objective_prob_form(sample, alpha, beta)
        assert abs(a - b) <= 3.0 / n


class TestEstimate:
    def test_trivial_scalar_sides(self):
        sample = comonotone_sample(50)
        result = spearman_estimate(sample, restarts=2, seed=0)
        assert result.objective == spearman_upper_bound(50)
        np.testing.assert_allclose(result.alpha_hat, [1.0])
        np.testing.assert_allclose(result.beta_hat, [1.0])

    def test_anti_comonotone_scalar_sides_flip_sign(self):
        sample = anti_comonotone_sample(50)
        result = spearman_estimate(sample, restarts=2, seed=0)
        assert result.objective == spearman_upper_bound(50)
        # maximizing pair flips one sign; diagnostics keep the raw argmax
        assert result.diagnostics["beta_argmax"][0] == -1.0

    def test_counterexample_recovery_smoke(self):
        # the search alone: spearman_estimate answers this sample from its arc
        sample = simulate_market(counterexample_market(), 10_000, seed=23)
        result = search_alone(sample, 4, 0)
        ratio = result.alpha_hat[1] / result.alpha_hat[0]
        assert abs(ratio - 1.0) < 0.1
        assert result.diagnostics["grid"] is not None
        assert len(result.diagnostics["local_optima"]) == 4

    def test_beats_cca_weights_on_counterexample(self):
        spec = counterexample_market()
        sample = simulate_market(spec, 10_000, seed=23)
        cca_alpha = cca(compute_moments(sample)).alpha_hat
        at_truth = spearman_objective(sample, spec.alpha, spec.beta)
        at_cca = spearman_objective(sample, cca_alpha, spec.beta)
        assert at_truth > at_cca

    def test_gaussian_market_recovery_smoke(self):
        spec = gaussian_market([[1, 0.3], [0.3, 1]], [[1, -0.2], [-0.2, 1]],
                               [1.0, 2.0], [3.0, 1.0])
        sample = simulate_market(spec, 20_000, seed=29)
        result = spearman_estimate(sample, restarts=8, seed=1)
        assert np.max(np.abs(result.alpha_hat - normalize_weights(spec.alpha))) < 0.1
        assert np.max(np.abs(result.beta_hat - normalize_weights(spec.beta))) < 0.1

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_side_without_a_varying_attribute_refused(self, side):
        # every index of that side is constant, so no weights can be read off its ranks
        rng = np.random.default_rng(11)
        xs, ys = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
        if side == "x":
            xs[:] = [1.5, -2.0]
        else:
            ys[:] = 0.5
        with pytest.raises(DegenerateIndexError, match=f"every {side} attribute is constant"):
            spearman_estimate(MatchedSample(xs, ys), restarts=2, seed=0)

    def test_deterministic_given_seed(self):
        sample = simulate_market(counterexample_market(), 2_000, seed=31)
        r1 = spearman_estimate(sample, restarts=3, seed=7)
        r2 = spearman_estimate(sample, restarts=3, seed=7)
        np.testing.assert_array_equal(r1.alpha_hat, r2.alpha_hat)
        assert r1.objective == r2.objective

    def test_restarts_report_convergence(self):
        sample = simulate_market(counterexample_market(), 2_000, seed=31)
        runs = [search_alone(sample, 3, 7).diagnostics for _ in range(2)]
        assert runs[0]["objective_evaluations"] == runs[1]["objective_evaluations"]
        restarts = [o for o in runs[0]["local_optima"] if o["source"].startswith("restart")]
        assert len(restarts) == 3
        for first, second in zip(runs[0]["local_optima"], runs[1]["local_optima"]):
            assert [first[k] for k in ("nfev", "nit", "success")] == [
                second[k] for k in ("nfev", "nit", "success")
            ]
        for entry in restarts:
            assert isinstance(entry["success"], bool)
            assert 0 < entry["nit"] <= entry["nfev"]
        # every sorted evaluation is a Nelder-Mead point, a fine-grid point
        # or a coarse point whose antipode is mirrored rather than sorted
        grid = runs[0]["grid"]
        assert grid["mirrored_points"] == grid["coarse_points"] // 2 == 256
        assert runs[0]["objective_evaluations"] + grid["mirrored_points"] == (
            sum(o["nfev"] for o in restarts) + grid["coarse_points"] + grid["fine_points"]
        )

    def test_every_sorted_evaluation_is_counted(self, monkeypatch):
        sample = simulate_market(counterexample_market(), 2_000, seed=31)
        calls = 0
        real = estimators.average_ranks

        def counting(values):
            nonlocal calls
            calls += 1
            return real(values)

        monkeypatch.setattr(estimators, "average_ranks", counting)
        result = spearman_estimate(sample, restarts=2, seed=7)
        # the one extra call ranks the y side once, up front
        assert calls == result.diagnostics["objective_evaluations"] + 1

    def test_gaussian_restarts_report_convergence(self):
        spec = gaussian_market(np.eye(3), np.eye(2), [1.0, 2.0, 3.0], [3.0, 1.0])
        sample = simulate_market(spec, 2_000, seed=29)
        runs = [spearman_estimate(sample, restarts=2, seed=5).diagnostics for _ in range(2)]
        counts = [[(o["nfev"], o["nit"], o["success"]) for o in d["local_optima"]] for d in runs]
        assert counts[0] == counts[1]
        assert runs[0]["grid"] is None
        assert runs[0]["objective_evaluations"] == sum(n for n, _, _ in counts[0])
        assert runs[0]["objective_evaluations"] == runs[1]["objective_evaluations"]

    @pytest.mark.parametrize("spec", [
        counterexample_market(),
        gaussian_market(np.eye(3), np.eye(2), [1.0, 2.0, 3.0], [3.0, 1.0]),
    ], ids=["grid", "nelder-mead"])
    def test_reported_objective_is_exact_above_ten_thousand(self, spec):
        # beyond n = 1e4 a BLAS dot may thread; the reported objective is
        # still the integer rank-product sum with one rounding
        n = 20_000
        sample = simulate_market(spec, n, seed=37)
        result = spearman_estimate(sample, restarts=1, seed=3)
        ru = average_ranks(sample.x_index(result.diagnostics["alpha_argmax"]))
        rv = average_ranks(sample.y_index(result.diagnostics["beta_argmax"]))
        reference = int((2 * ru).astype(np.int64) @ (2 * rv).astype(np.int64))
        assert result.objective == reference / (4 * n * (n + 1) ** 2)


class TestMirroredGrid:
    def test_default_grid_is_the_full_circle_arange(self):
        assert _COARSE_CIRCLE.tobytes() == np.arange(0.0, 2.0 * np.pi, 2.0 * np.pi / 512.0).tobytes()

    def test_antipode_dot_is_the_reversed_rank_dot(self):
        n = 20_000
        sample = simulate_market(counterexample_market(), n, seed=47)
        rank_v = average_ranks(sample.ys[:, 0])
        for t in _COARSE_CIRCLE[:256]:
            u = sample.xs @ _unit_from_angles(np.array([t]), 2)
            mirrored = 2 * n * (n + 1) ** 2 - _exact_dot4(average_ranks(u), rank_v)
            assert mirrored == _exact_dot4(average_ranks(-u), rank_v)


# alpha_argmax bytes, objective and refined centres of the search
# (spearman_estimate(sample, restarts=2) before the comonotone arc came
# first) on the benchmark market at n = 10,000, recorded before the
# antipodal half of the coarse grid was mirrored instead of sorted; a
# change that moves them should be deliberate
PINNED_SEARCH = {
    41: [0.7853981633974483, 0.760854470791278, 0.8099418560036186],
    42: [0.7853981633974483, 0.8099418560036186, 0.760854470791278],
    43: [0.7853981633974483, 0.8099418560036186, 0.760854470791278],
}
PINNED_ALPHA = "d0d893ab9ea0e63ff69d6a219ea0e63f"
PINNED_OBJECTIVE = 0.3333166683331667


@pytest.mark.parametrize("seed", sorted(PINNED_SEARCH))
def test_search_pinned_on_benchmark_market(seed):
    sample = simulate_market(counterexample_market(), 10_000, seed=seed)
    result = search_alone(sample, 2, 0)
    assert result.diagnostics["alpha_argmax"].tobytes().hex() == PINNED_ALPHA
    assert result.objective == PINNED_OBJECTIVE
    assert result.diagnostics["grid"]["refined_centers"] == PINNED_SEARCH[seed]


def _at_angle(sample: MatchedSample, t: float) -> float:
    return spearman_objective(sample, _unit_from_angles(np.array([t]), 2), [1.0])


def _assert_arc_or_search(sample: MatchedSample, restarts: int = 1, seed: int = 0) -> None:
    """The arc's midpoint when it is taken, else the search's result bit for bit."""
    result = spearman_estimate(sample, restarts, seed)
    arc = result.diagnostics["argmax_interval"]
    bound = spearman_upper_bound(sample.n)
    if arc is None:
        search = search_alone(sample, restarts, seed)
        assert result.alpha_hat.tobytes() == search.alpha_hat.tobytes()
        assert result.beta_hat.tobytes() == search.beta_hat.tobytes()
        assert json.dumps(result.to_json_dict()) == json.dumps(search.to_json_dict())
        assert result.diagnostics["gap"] == round((bound - result.objective) * 4 * sample.n * (sample.n + 1) ** 2)
        return
    lo, hi = arc["lo"], arc["hi"]
    mid = 0.5 * (lo + hi)
    assert lo < mid < hi and arc["width"] == hi - lo
    assert result.diagnostics["alpha_argmax"].tobytes() == _unit_from_angles(np.array([mid]), 2).tobytes()
    assert result.objective == bound == _at_angle(sample, mid)
    assert result.diagnostics["gap"] == 0 and result.diagnostics["objective_evaluations"] == 1
    # the arc is the argmax set: inside it the bound holds, just outside it does not
    quarter = 0.25 * (hi - lo)
    assert _at_angle(sample, lo + quarter) == _at_angle(sample, hi - quarter) == bound
    assert _at_angle(sample, lo - quarter) < bound and _at_angle(sample, hi + quarter) < bound


# 2x1 samples on a small integer lattice, so an arc is either empty or far
# wider than float noise; a coin column repeats rows, integer y values tie
SMALL_INTS = st.integers(-3, 3)


@st.composite
def lattice_samples(draw):
    n = draw(st.integers(2, 12))
    coin = draw(st.booleans())
    first = st.sampled_from([-1, 1]) if coin else SMALL_INTS
    xs = np.array([[draw(first), draw(SMALL_INTS)] for _ in range(n)], dtype=float)
    kind = draw(st.sampled_from(["index", "permutation", "integers"]))
    if kind == "index":
        # comonotone in the index at angle t: ties only where x indexes tie
        t = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
        ys = xs @ np.array([math.cos(t), math.sin(t)])
    elif kind == "permutation":
        ys = np.array(draw(st.permutations(range(n))), dtype=float)
    else:
        ys = np.array([draw(SMALL_INTS) for _ in range(n)], dtype=float)
    return MatchedSample(xs=xs, ys=ys.reshape(-1, 1))


def _sample(rows) -> MatchedSample:
    data = np.array(rows, dtype=float)
    return MatchedSample(xs=data[:, :2], ys=data[:, 2:])


class TestComonotoneArc:
    @settings(max_examples=80, deadline=None)
    @given(sample=lattice_samples(), via_csv=st.booleans())
    @example(sample=_sample([[0, 0, 0], [2, 1, 2], [1, 3, 1], [3, 2, 3]]), via_csv=True)  # not comonotone
    def test_midpoint_is_an_exact_maximizer_or_the_search_runs(self, sample, via_csv):
        if via_csv:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "sample.csv"
                sample.to_csv(path)
                sample = MatchedSample.from_csv(path)
        if np.all(sample.xs == sample.xs[0]) or np.all(sample.ys == sample.ys[0]):
            # a side with no varying attribute has only constant indexes, which are refused
            with pytest.raises(DegenerateIndexError, match="attribute is constant"):
                spearman_estimate(sample, 1, 0)
            return
        _assert_arc_or_search(sample)

    @pytest.mark.parametrize("rows, taken", [
        ([[0, 1, 0], [1, 0, 1]], True),
        ([[1, 2, 0], [-1, 1, 1], [1, 2, 2]], False),
        ([[0, 0, 0], [1, 0, 1], [2, 1, 1]], False),
        ([[0, 0, 0], [1, 0, 1], [0, 0, 2]], False),
    ], ids=["n=2", "repeated-row", "tie-in-y", "zero-span"])
    def test_which_path_answers(self, rows, taken):
        result = spearman_estimate(_sample(rows), restarts=1)
        assert (estimators._comonotone_arc(_sample(rows)) is not None) is taken
        assert (result.diagnostics["argmax_interval"] is not None) is taken
        _assert_arc_or_search(_sample(rows))

    def test_midpoint_that_misses_the_bound_goes_to_the_search(self, monkeypatch):
        # an arc away from the true one, near pi/4: its midpoint is checked, found short, and dropped
        sample = simulate_market(counterexample_market(), 500, seed=59)
        monkeypatch.setattr(estimators, "_comonotone_arc", lambda s: (1.0, 1.2))
        result = spearman_estimate(sample, restarts=1)
        assert result.diagnostics["argmax_interval"] is None
        assert json.dumps(result.to_json_dict()) == json.dumps(search_alone(sample, 1, 0).to_json_dict())

    def test_half_circle_at_n_2(self):
        # one difference, (-1, 1) at angle 3 pi/4: the arc is the half circle about it
        interval = spearman_estimate(_sample([[1, 0, 0], [0, 1, 1]]), restarts=1).diagnostics["argmax_interval"]
        assert interval["lo"] == pytest.approx(0.25 * math.pi, abs=1e-15)
        assert interval["hi"] == pytest.approx(1.25 * math.pi, abs=1e-15)

    def test_non_comonotone_csv_sample_takes_the_search(self, tmp_path):
        sample = simulate_market(counterexample_market(), 2_000, seed=53)
        ys = sample.ys.copy()
        ys[:200] = ys[:200][::-1]
        MatchedSample(xs=sample.xs, ys=ys).to_csv(tmp_path / "sample.csv")
        read = MatchedSample.from_csv(tmp_path / "sample.csv")
        result = spearman_estimate(read, restarts=2, seed=0)
        assert result.diagnostics["argmax_interval"] is None
        assert result.diagnostics["gap"] > 0
        _assert_arc_or_search(read, restarts=2)

    def test_arc_and_search_report_the_same_diagnostics_keys(self):
        sample = simulate_market(counterexample_market(), 2_000, seed=31)
        arc = spearman_estimate(sample, restarts=1)
        search = search_alone(sample, 1, 0)
        assert arc.diagnostics["argmax_interval"] is not None and search.diagnostics["argmax_interval"] is None
        assert list(arc.diagnostics) == list(search.diagnostics)
        assert list(arc.to_json_dict()["diagnostics"]) == list(search.to_json_dict()["diagnostics"])

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_benchmark_market_at_one_hundred_thousand(self, seed):
        sample = simulate_market(counterexample_market(), 100_000, seed=seed)
        result = spearman_estimate(sample, restarts=4, seed=0)
        arc = result.diagnostics["argmax_interval"]
        assert arc is not None and arc["lo"] < math.pi / 4 < arc["hi"]
        _assert_arc_or_search(sample, restarts=4)


def rosenbrock(x):
    return sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)


COIN_SAMPLE = simulate_market(counterexample_market(), 40, seed=3)


def coin_objective(params):
    # the rank objective on 40 couples is a step function of the angle, so
    # simplex vertices tie, and a converged simplex has tied values only
    alpha = _unit_from_angles(params, 2)
    return -_exact_dot4(average_ranks(COIN_SAMPLE.xs @ alpha), average_ranks(COIN_SAMPLE.ys[:, 0])) / (4 * 40 * 41**2)


class TestNelderMead:
    """``_nelder_mead`` returns scipy's Nelder-Mead result bit for bit."""

    @pytest.mark.parametrize("f, x0, maxiter, converges", [
        (coin_objective, [0.3], 400, True),
        (coin_objective, [4.0], 400, True),
        (rosenbrock, [-1.2, 1.0], 400, True),
        (rosenbrock, [1.3, 0.7, 0.8], 1200, True),
        (rosenbrock, [-1.2, 1.0, 0.5], 40, False),
        (lambda x: float(np.floor(3.0 * x[0]) + np.floor(2.0 * x[1])), [0.7, -0.4], 400, True),
        (rosenbrock, [0.0, 0.0], 400, True),
    ], ids=["coin-ties", "coin-far-start", "rosenbrock-2d", "rosenbrock-3d", "rosenbrock-cut-at-maxiter",
            "step-function", "zero-start"])
    def test_matches_scipy(self, f, x0, maxiter, converges):
        x, fun, nfev, nit, success = _nelder_mead(f, np.array(x0), xatol=1e-6, fatol=1e-10, maxiter=maxiter)
        ref = minimize(f, np.array(x0), method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": maxiter})
        assert x.tobytes() == ref.x.tobytes()
        assert (fun, nfev, nit, success) == (ref.fun, ref.nfev, ref.nit, ref.success)
        assert success is converges
