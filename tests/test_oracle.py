import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchbench import (
    DistributionModel,
    MarketSpec,
    NumericalError,
    QuadratureConvergenceError,
    closed_form,
    closed_form_counterexample,
    counterexample_market,
    exponential,
    gaussian,
    monte_carlo_counterexample,
    numeric_counterexample,
    quad_integrate,
    rademacher,
    uniform01,
)
from matchbench import oracle
from matchbench.oracle import QuadratureStats, population_transfer_map

E2 = math.exp(-2.0)


class TestClosedForms:
    def test_constants(self):
        report = closed_form_counterexample()
        assert abs(report.cov_x1 - (1.0 - E2) / 4.0) <= 1e-12
        assert abs(report.cov_x2 - (3.0 * E2 + 1.0) / 8.0) <= 1e-12
        assert abs(report.ratio_cca - (3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0)) <= 1e-12
        assert report.ratio_true == 1.0

    def test_internal_consistency(self):
        report = closed_form_counterexample()
        assert abs(report.ratio_cca * report.cov_x1 - report.cov_x2) <= 1e-12

    def test_expectation_terms(self):
        terms = closed_form_counterexample().expectation_terms
        assert terms["mean_x_cdf_shift0"] == 0.75
        assert abs(terms["mean_x_matched_outcome"] - (3.0 * E2 + 5.0) / 8.0) <= 1e-15
        assert abs(terms["mean_cdf_shift_plus2"] - (1.0 - E2 / 2.0)) <= 1e-15
        assert abs(terms["mean_cdf_shift_minus2"] - E2 / 2.0) <= 1e-15
        assert abs(terms["mean_x_cdf_shift_minus2"] - 7.0 * E2 / 4.0) <= 1e-15
        assert abs(terms["mean_x_cdf_shift_plus2"] - (1.0 - E2 / 4.0)) <= 1e-15

    def test_json_has_symbolic_and_decimals(self):
        obj = closed_form_counterexample().to_json_dict()
        assert obj["ratio_cca"]["symbolic"] == "(3+e^2)/(2e^2-2)"
        assert len(obj["ratio_cca"]["decimal17"].replace("0.", "")) >= 16

    def test_benchmark_market_gets_its_formulas_and_terms(self):
        closed, terms = closed_form(counterexample_market())
        assert terms is oracle._TERMS
        assert closed.to_json_dict() == closed_form_counterexample().to_json_dict()

    def test_non_gaussian_market_is_refused(self):
        # closed_form knows the benchmark market and two-attribute Gaussian markets only
        with pytest.raises(ValueError, match="P components must all be gaussian"):
            closed_form(EXP_EXP_MARKET)
        with pytest.raises(ValueError, match="^market: .* got dx = 3$"):
            closed_form(MarketSpec(dx=3, dy=1, alpha=[1.0, 1.0, 1.0], beta=[1.0],
                                   p_components=(gaussian(1.0),) * 3, q_components=(gaussian(1.0),)))


class TestMatchedOutcome:
    """The benchmark market's transfer map at the index (x1 + x2)/sqrt(2)."""

    @staticmethod
    def matched(x1, x2):
        return population_transfer_map(counterexample_market(), 1e-9)((x1 + x2) / math.sqrt(2.0))

    def test_low_coin_at_origin(self):
        # the map floors the index's lower tail at the smallest positive double
        assert abs(self.matched(-1.0, 0.0)) <= 1e-15

    def test_high_coin_at_origin(self):
        assert abs(self.matched(1.0, 0.0) - 0.5 * (1.0 - E2)) <= 1e-15

    def test_limits_to_one(self):
        assert self.matched(1.0, 80.0) == 1.0

    def test_equals_index_cdf_at_combined_index(self, rng):
        x1 = rng.choice([-1.0, 1.0], size=10_000)
        x2 = rng.exponential(size=10_000)
        g = exponential(1.0).cdf
        # closed form: the index CDF at x1 + x2, averaged over the coin, 1/2 [G(x2) + G(x2 + 2 x1)]
        closed = 0.5 * (g(x2) + g(x2 + 2.0 * x1))
        assert np.max(np.abs(self.matched(x1, x2) - closed)) <= 1e-12


class TestQuadrature:
    def test_exponential_mean(self):
        assert abs(quad_integrate(lambda z: z, exponential(1.0), 1e-10) - 1.0) <= 1e-10

    def test_shifted_cdf_expectation(self):
        g = exponential(1.0).cdf
        got = quad_integrate(lambda z: g(z + 2.0), exponential(1.0), 1e-10)
        assert abs(got - (1.0 - E2 / 2.0)) <= 1e-10

    def test_kinked_integrand(self):
        g = exponential(1.0).cdf
        got = quad_integrate(lambda z: z * g(z - 2.0), exponential(1.0), 1e-10)
        assert abs(got - 7.0 * E2 / 4.0) <= 1e-10

    def test_atomic_weight_is_exact_sum(self):
        got = quad_integrate(lambda z: z**3 + 2.0, rademacher(), 1e-6)
        assert got == 2.0

    def test_uniform_weight(self):
        got = quad_integrate(lambda z: z**2, uniform01(), 1e-12)
        assert abs(got - 1.0 / 3.0) <= 1e-12

    def test_gaussian_weight_moments(self):
        d = gaussian(1.5)
        assert abs(quad_integrate(lambda z: z, d, 1e-10)) <= 1e-10
        assert abs(quad_integrate(lambda z: z**2, d, 1e-10) - 2.25) <= 1e-9

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            quad_integrate(lambda z: z, exponential(1.0), 0.0)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
    def test_rejects_non_finite_or_negative_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            quad_integrate(lambda z: z, exponential(1.0), tol)

    @pytest.mark.parametrize("weight, tol", [(exponential(1.0), 5.5e-16), (gaussian(1.0), 1.1e-15)],
                             ids=["exponential", "gaussian"])
    def test_rejects_tolerance_whose_tail_cut_rounds_away(self, weight, tol):
        # the cut keeps 1 - tol/10 (exponential) or 1 - tol/20 (gaussian) of the mass, which rounds to 1 here
        with pytest.raises(ValueError, match=f"tol: {tol!r} is too small"):
            quad_integrate(lambda z: z, weight, tol)

    def test_vector_valued_integrand(self):
        d = gaussian(1.5)
        got = quad_integrate(lambda z: np.stack([np.ones_like(z), z, z**2]), d, 1e-10)
        np.testing.assert_allclose(got, [1.0, 0.0, 2.25], atol=1e-9)

    def test_breaks_split_each_component_at_its_kink(self):
        kinks = np.array([[0.1], [0.5], [0.73]])
        exact = (kinks[:, 0] ** 2 + (1.0 - kinks[:, 0]) ** 2) / 2.0  # E|U - c|
        plain, split = QuadratureStats(), QuadratureStats()
        f = lambda u: np.abs(u - kinks)
        np.testing.assert_allclose(quad_integrate(f, uniform01(), 1e-12, plain), exact, atol=1e-12)
        np.testing.assert_allclose(quad_integrate(f, uniform01(), 1e-12, split, breaks=kinks), exact, atol=1e-14)
        assert split.panels == 2 < plain.panels

    def test_nonconvergence_raises(self):
        # divergent integrand: the leftmost panel chain never meets its budget
        with pytest.raises(QuadratureConvergenceError):
            quad_integrate(lambda z: 1.0 / z, uniform01(), 1e-10)

    def test_terms_match_closed_forms(self):
        closed = closed_form_counterexample().expectation_terms
        quad = numeric_counterexample(counterexample_market(), 1e-9, oracle._TERMS).expectation_terms
        for key, value in closed.items():
            assert abs(quad[key] - value) <= 1e-9, key


N01_MARKET = MarketSpec(dx=2, dy=1, alpha=[math.sqrt(0.5), math.sqrt(0.5)], beta=[1.0],
                        p_components=(gaussian(1.0), gaussian(1.0)),
                        q_components=(gaussian(1.0),))
EXP_EXP_MARKET = MarketSpec(dx=2, dy=1, alpha=[0.6, 0.8], beta=[1.0],
                            p_components=(exponential(1.0), exponential(1.0)),
                            q_components=(uniform01(),))
UNIFORM_EXP_MARKET = MarketSpec(dx=2, dy=1, alpha=[0.6, 0.8], beta=[1.0],
                                p_components=(uniform01(), exponential(1.0)),
                                q_components=(uniform01(),))


class TestNumericCounterexample:
    def test_benchmark_market_ratio(self):
        report = numeric_counterexample(counterexample_market(), 1e-9)
        expected = (3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0)
        assert abs(report.ratio_cca - expected) <= 1e-6
        assert abs(report.cov_x1 - (1.0 - E2) / 4.0) <= 1e-8
        assert abs(report.cov_x2 - (3.0 * E2 + 1.0) / 8.0) <= 1e-8
        # the benchmark's named terms are integrated only when asked for (closed_form returns them)
        assert report.expectation_terms == {}

    @pytest.mark.parametrize("spec, terms", [(counterexample_market(), oracle._TERMS), (EXP_EXP_MARKET, ())],
                             ids=["benchmark-terms", "exp+exp"])
    def test_one_quadrature_pass_per_market(self, monkeypatch, spec, terms):
        # both covariances and every named term are rows of one integrand
        passes = []
        monkeypatch.setattr(oracle, "_mean_over",
                            lambda *args, real=oracle._mean_over: passes.append(args) or real(*args))
        report = numeric_counterexample(spec, 1e-6, terms)
        assert len(passes) == 1
        assert sorted(report.expectation_terms) == sorted(key for key, *_ in terms)

    def test_gaussian_market_is_consistent(self):
        spec = MarketSpec(dx=2, dy=1, alpha=np.array([1.0, 2.0]) / math.sqrt(5.0), beta=[1.0],
                          p_components=(gaussian(1.0), gaussian(1.0)),
                          q_components=(gaussian(1.0),))
        report = numeric_counterexample(spec, 1e-8)
        assert abs(report.ratio_cca - report.ratio_true) <= 1e-6

    def test_degenerate_weight_has_zero_covariance(self):
        # with a2 = 0 the index is the coin alone, whose atoms no transfer map
        # can match: refused (TestGenericBranch covers a2 = 0 with a continuous X1)
        spec = MarketSpec(dx=2, dy=1, alpha=[1.0, 0.0], beta=[1.0],
                          p_components=(rademacher(), exponential(1.0)),
                          q_components=(uniform01(),))
        with pytest.raises(ValueError, match="alpha: a zero second weight leaves the coin alone"):
            numeric_counterexample(spec, 1e-9)

    def test_validates_shape(self):
        spec = MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                          p_components=(uniform01(),), q_components=(uniform01(),))
        with pytest.raises(ValueError):
            numeric_counterexample(spec, 1e-9)

    def test_gaussian_closed_form_matches_quadrature(self):
        scaled = MarketSpec(dx=2, dy=1, alpha=[0.6, 0.8], beta=[2.0],
                            p_components=(gaussian(1.0), gaussian(2.0)),
                            q_components=(gaussian(0.7),))
        for spec in (scaled, N01_MARKET):
            # cov(X, T) with T = beta * Y the matched y-side index
            closed, terms = closed_form(spec)
            quad = numeric_counterexample(spec, 1e-8)
            assert terms == () and closed.method == "closed_form"
            assert abs(closed.cov_x1 - quad.cov_x1) <= 1e-6
            assert abs(closed.cov_x2 - quad.cov_x2) <= 1e-6


class TestTripleAgreement:
    def test_all_three_routes_agree(self):
        spec = counterexample_market()
        closed, terms = closed_form(spec)
        quad = numeric_counterexample(spec, 1e-9, terms)
        mc = monte_carlo_counterexample(spec, 1_000_000, seed=99, terms=terms)
        assert abs(quad.cov_x1 - closed.cov_x1) <= 1e-8
        assert abs(quad.cov_x2 - closed.cov_x2) <= 1e-8
        assert abs(mc.cov_x1 - closed.cov_x1) <= 3 * mc.stderrs["cov_x1"]
        assert abs(mc.cov_x2 - closed.cov_x2) <= 3 * mc.stderrs["cov_x2"]
        for key, value in closed.expectation_terms.items():
            assert abs(quad.expectation_terms[key] - value) <= 1e-8, key
            assert abs(mc.expectation_terms[key] - value) <= 3 * mc.stderrs[key], key

    def test_monte_carlo_deterministic(self):
        a = monte_carlo_counterexample(counterexample_market(), 10_000, seed=4, terms=oracle._TERMS)
        b = monte_carlo_counterexample(counterexample_market(), 10_000, seed=4, terms=oracle._TERMS)
        assert a.cov_x1 == b.cov_x1 and a.cov_x2 == b.cov_x2

    def test_zero_sample_covariance_is_a_numerical_error(self):
        # both draws share a coin value, so the sample cov_x1 is exactly 0
        with pytest.raises(NumericalError, match="cov_x1"):
            monte_carlo_counterexample(counterexample_market(), 2, seed=2, terms=oracle._TERMS)


class TestTailPrecision:
    @pytest.mark.parametrize("z", [6.0, 8.0, 9.0, 12.0, 30.0])
    def test_gaussian_transfer_map_is_identity_in_the_tails(self, z):
        # index and y side are both N(0, 1), so T(z) = z; quantile(cdf(z)) is inf from z = 9 on
        tmap = population_transfer_map(N01_MARKET, 1e-9)
        assert tmap(z) == pytest.approx(z, rel=1e-12)
        assert tmap(-z) == pytest.approx(-z, rel=1e-12)

    def test_gaussian_market_at_tight_tol(self):
        tol = 1e-9
        report = numeric_counterexample(N01_MARKET, tol)
        closed, _ = closed_form(N01_MARKET)
        assert abs(report.cov_x1 - closed.cov_x1) <= 10 * tol
        assert abs(report.cov_x2 - closed.cov_x2) <= 10 * tol
        assert report.diagnostics.panels < 20_000

    def test_consistency_condition_holds_at_tight_tol(self):
        spec = MarketSpec(dx=2, dy=1, alpha=np.array([1.0, 2.0]) / math.sqrt(5.0), beta=[1.0],
                          p_components=(gaussian(1.0), gaussian(1.0)),
                          q_components=(gaussian(1.0),))
        tol = 1e-9
        report = numeric_counterexample(spec, tol)
        a1, a2 = spec.alpha
        assert abs(a1 * report.cov_x2 - a2 * report.cov_x1) <= 10 * tol
        assert report.cov_x1 / report.cov_x2 == pytest.approx(0.5, rel=1e-8)

    def test_diagnostics_repeat_exactly(self):
        for spec in (counterexample_market(), N01_MARKET, EXP_EXP_MARKET):
            first = numeric_counterexample(spec, 1e-6).diagnostics
            second = numeric_counterexample(spec, 1e-6).diagnostics
            assert first.to_json_dict() == second.to_json_dict()
            assert first.panels > 0 and first.max_depth >= 0


class TestGenericBranch:
    """Markets whose first attribute is continuous but not Gaussian: the index
    CDF itself comes from quadrature."""

    @pytest.mark.parametrize("spec", [EXP_EXP_MARKET, UNIFORM_EXP_MARKET], ids=["exp+exp", "uniform+exp"])
    def test_matches_simulated_monte_carlo(self, spec):
        started = time.perf_counter()
        quad = numeric_counterexample(spec, 1e-4)
        elapsed = time.perf_counter() - started
        mc = monte_carlo_counterexample(spec, 1_000_000, seed=11)
        assert elapsed < 1.0
        for key in ("cov_x1", "cov_x2"):
            assert abs(getattr(quad, key) - getattr(mc, key)) <= 3 * mc.stderrs[key], key

    def test_exp_exp_closed_form(self):
        # with Z = 3/5 X1 + 4/5 X2 hypoexponential and T = F(Z), integrating
        # x_i F(z) against the product density gives E[X_i T] - E[X_i] / 2
        tol = 1e-8
        report = numeric_counterexample(EXP_EXP_MARKET, tol)
        assert abs(report.cov_x1 - 33.0 / 196.0) <= 10 * tol
        assert abs(report.cov_x2 - 10.0 / 49.0) <= 10 * tol

    # with one weight zero T is the CDF of the other attribute: T = U gives
    # cov(U, T) = var(U) = 1/12, T = 1 - e^-E gives cov(E, T) = 3/4 - 1/2
    @pytest.mark.parametrize("alpha, covs", [([1.0, 0.0], (1.0 / 12.0, 0.0)), ([0.0, 1.0], (0.0, 0.25))])
    def test_zero_weight(self, alpha, covs):
        spec = MarketSpec(dx=2, dy=1, alpha=alpha, beta=[1.0],
                          p_components=(uniform01(), exponential(1.0)),
                          q_components=(uniform01(),))
        report = numeric_counterexample(spec, 1e-8)
        assert report.cov_x1 == pytest.approx(covs[0], abs=1e-8)
        assert report.cov_x2 == pytest.approx(covs[1], abs=1e-8)


class TestRelabeling:
    """Which continuous attribute is called X1 is a label: swapping the two,
    with their weights, swaps cov_x1 and cov_x2."""

    @pytest.mark.parametrize("first, second, alpha", [
        (uniform01(), exponential(1.0), (0.6, 0.8)),
        (gaussian(1.0), uniform01(), (0.6, 0.8)),
        (exponential(1.0), uniform01(), (1.0, 3e-4)),
        (uniform01(), exponential(1.0), (1.0, 3e-4)),
    ], ids=["uniform+exp", "gaussian+uniform", "exp+uniform-a2=3e-4", "uniform+exp-a2=3e-4"])
    def test_swapping_the_attributes_swaps_the_covariances(self, first, second, alpha):
        tol = 1e-6

        def report(components, weights):
            return numeric_counterexample(MarketSpec(dx=2, dy=1, alpha=list(weights), beta=[1.0],
                                                     p_components=components, q_components=(gaussian(0.7),)), tol)

        given, swapped = report((first, second), alpha), report((second, first), alpha[::-1])
        assert abs(given.cov_x1 - swapped.cov_x2) <= 10 * tol
        assert abs(given.cov_x2 - swapped.cov_x1) <= 10 * tol


class TestNarrowSecondAttribute:
    """A second attribute far narrower than the first: the quadrature runs over
    it and integrates the wide one's CDF, so the value is right and quick."""

    @pytest.mark.parametrize("first, second, alpha, covs, within", [
        # as a2 -> 0, T -> 0.7 Phi^-1(X1), so cov(X1, T) -> 0.7 / (2 sqrt(pi)) and cov(X2, T) -> 0
        (uniform01(), exponential(1.0), (1.0, 1e-12), (0.7 / (2.0 * math.sqrt(math.pi)), 0.0), 10),
        # the values at tol 1e-9, which tol 1e-8 repeats within 1.3e-11
        (gaussian(1.0), exponential(1.0), (1.0, 1e-3), (0.6999996499987875, 0.0006999996499297794), 2),
    ], ids=["uniform+exp-a2=1e-12", "gaussian+exp-a2=1e-3"])
    def test_value_at_tol(self, first, second, alpha, covs, within):
        tol = 1e-6
        spec = MarketSpec(dx=2, dy=1, alpha=list(alpha), beta=[1.0],
                          p_components=(first, second), q_components=(gaussian(0.7),))
        started = time.perf_counter()
        report = numeric_counterexample(spec, tol)
        assert time.perf_counter() - started < 2.0
        assert abs(report.cov_x1 - covs[0]) <= within * tol
        assert abs(report.cov_x2 - covs[1]) <= within * tol


def coin_market(alpha, second, y_side) -> MarketSpec:
    return MarketSpec(dx=2, dy=1, alpha=alpha, beta=[1.0],
                      p_components=(rademacher(), second), q_components=(y_side,))


# The pin of a market whose x index is the coin alone: it has atoms, so the
# transfer map is refused with a ValueError naming alpha.
ATOMIC = "refused"

# Columns: market, repr(cov_x1) and repr(cov_x2) at tol 1e-6, panels,
# max_depth, and the sha256 of the transfer map's bytes at tol 1e-9 on
# np.linspace(-30, 30, 20001). The sha256s were recorded before the coin went
# through the generic branch of _population_index_tails: averaging over its
# two atoms there must not move a bit. The covariances, panels and depths
# were re-recorded when numeric_counterexample became one quadrature pass over
# centred products (was three passes for E[T], E[X1 T] and E[X2 T]): cov_x2
# moved by at most 1.2e-10, the panels fell by 58-76 %, and no depth moved.
COIN_PINS = [
    (coin_market([-0.6, 0.8], exponential(1.0), gaussian(0.7)),
     "-0.438656997467759", "0.5164905720069733", 124, 45,
     "17557237b5764d8f51dcf88953ade4afbda34826d4a52ab785af62196e32fa11"),
    (coin_market([0.0, 1.0], exponential(2.5), exponential(1.5)),
     "0.0", "0.2666666400000032", 10, 2,
     "41ba853e14d31d69b93d39add7e3e8e2abc2efb500f1b8ee8a70dc8f7da34ade"),
    (coin_market([1.0, 0.0], exponential(1.0), uniform01()), ATOMIC, ATOMIC, ATOMIC, ATOMIC, ATOMIC),
    (coin_market([0.6, 0.8], exponential(2.5), gaussian(0.7)),
     "0.5454488319795396", "0.15865081662437544", 116, 45,
     "27c9e017b77f016c970263eb77d38b175437d7109d39a6135c441aa6e0e146ab"),
    (coin_market([0.8, -0.6], uniform01(), exponential(1.5)),
     "0.4620981203732955", "-0.10228427314668458", 90, 44,
     "c990ad69768425011b957739c1041bb5a9182993537f0b3f7808b146f9621b8f"),
    (coin_market([math.sqrt(0.5), math.sqrt(0.5)], gaussian(1.3), uniform01()),
     "0.18083539397260945", "0.28482969433053135", 14, 2,
     "fb650dca85596311bb36ad1359d090bea92d31f1783b648737781249d77977e2"),
]
COIN_IDS = ["a1<0", "a1=0", "a2=0", "exp2.5", "uniform", "gaussian1.3"]


class TestCoinPath:
    @pytest.mark.parametrize("spec, cov_x1, cov_x2, panels, max_depth, _", COIN_PINS, ids=COIN_IDS)
    def test_numeric_counterexample_is_pinned(self, spec, cov_x1, cov_x2, panels, max_depth, _):
        if cov_x1 is ATOMIC:
            with pytest.raises(ValueError, match="alpha:"):
                numeric_counterexample(spec, 1e-6)
            return
        report = numeric_counterexample(spec, 1e-6)
        assert (repr(report.cov_x1), repr(report.cov_x2)) == (cov_x1, cov_x2)
        assert (report.diagnostics.panels, report.diagnostics.max_depth) == (panels, max_depth)

    @pytest.mark.parametrize("spec, sha256", [(row[0], row[-1]) for row in COIN_PINS], ids=COIN_IDS)
    def test_transfer_map_is_pinned(self, spec, sha256):
        stats = QuadratureStats()
        if sha256 is ATOMIC:
            with pytest.raises(ValueError, match="alpha:"):
                population_transfer_map(spec, 1e-9, stats)
            assert stats.panels == 0
            return
        values = population_transfer_map(spec, 1e-9, stats)(np.linspace(-30.0, 30.0, 20001))
        assert hashlib.sha256(values.tobytes()).hexdigest() == sha256
        # the coin's atoms are summed, never split into panels
        assert stats.panels == 0

    def test_benchmark_expectation_terms_are_pinned(self):
        report = numeric_counterexample(counterexample_market(), 1e-9, oracle._TERMS)
        assert {key: repr(value) for key, value in report.expectation_terms.items()} == {
            "mean_cdf_shift_plus2": "0.9323323583816908",
            "mean_cdf_shift_minus2": "0.06766764161830612",
            "mean_x_cdf_shift_minus2": "0.23683674566407126",
            "mean_x_cdf_shift_plus2": "0.9661661791908437",
            "mean_x_cdf_shift0": "0.7499999999999976",
            "mean_x_matched_outcome": "0.6757507312137275",
        }
        # one pass integrates the covariances and every term, so these are all of its panels
        assert (report.diagnostics.panels, report.diagnostics.max_depth) == (102, 25)

    # with the coin at weight 1 and Exp(1) second, a2 = 1e-14 gave cov_x1 0.627
    # after 7 s and a2 <= 1e-18 gave 13.46 at once (the truth is 0.5585)
    @pytest.mark.parametrize("a2", [1e-6, 1e-16, 1e-300, 5e-324])
    def test_nearly_atomic_index_is_refused_before_quadrature(self, monkeypatch, a2):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(oracle, "quad_integrate", no_quadrature)
        spec = coin_market([1.0, a2], exponential(1.0), gaussian(0.7))
        with pytest.raises(ValueError, match=r"alpha: the second weight .* interquartile range under 1e-05"):
            numeric_counterexample(spec, 1e-5)

    def test_small_second_weight_above_the_bound_matches_simulation(self):
        spec = coin_market([1.0, 1e-4], exponential(1.0), gaussian(0.7))
        quad = numeric_counterexample(spec, 1e-9)
        mc = monte_carlo_counterexample(spec, 200_000, seed=3)
        for key in ("cov_x1", "cov_x2"):
            assert abs(getattr(quad, key) - getattr(mc, key)) <= 5 * mc.stderrs[key], key


def laws(kinds):
    """A law of one of ``kinds``, its parameter (where it takes one) in [0.5, 2.5]."""
    return st.builds(
        lambda kind, param: DistributionModel(kind, param if kind in ("gaussian", "exponential") else None),
        st.sampled_from(kinds), st.floats(0.5, 2.5),
    )


CONTINUOUS = ("gaussian", "exponential", "uniform01")
# the exact axis weights, and 72 directions at least 2.5 degrees off the axes:
# with a2 nearer 0, a coin market's index is almost atomic and the quadrature
# slow (about 0.7 s at a2 = 1e-5, just above where it is refused)
WEIGHTS = st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]) | st.integers(0, 71).map(
    lambda k: (math.cos((k + 0.5) * math.pi / 36), math.sin((k + 0.5) * math.pi / 36)))
# a continuous first attribute also takes |a2/a1| log-uniform down to 1e-12, of
# either sign: the quadrature then runs over the narrow a2 X2 (see TestNarrowSecondAttribute)
NARROW = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-12.0, 0.0), st.sampled_from([1.0, -1.0])).map(
    lambda t: (t[0], t[2] * 10.0 ** t[1]))
X_SIDES = st.tuples(laws(CONTINUOUS), WEIGHTS | NARROW) | st.tuples(laws(("rademacher",)), WEIGHTS)


class TestCrossRoute:
    @given(x_side=X_SIDES, second=laws(CONTINUOUS), y_side=laws(CONTINUOUS))
    @example(x_side=(rademacher(), (1.0, 0.0)), second=exponential(1.0), y_side=gaussian(0.7))
    @settings(max_examples=20, deadline=None)
    def test_quadrature_agrees_with_simulation(self, x_side, second, y_side):
        """Quadrature and simulated Monte Carlo agree within 5 standard errors
        on both covariances, or the market's atomic x index is refused."""
        first, alpha = x_side
        spec = MarketSpec(dx=2, dy=1, alpha=alpha, beta=[1.0],
                          p_components=(first, second), q_components=(y_side,))
        try:
            quad = numeric_counterexample(spec, 1e-5)
        except ValueError as exc:
            assert alpha[1] == 0.0 and first.kind == "rademacher", exc
            assert "alpha: a zero second weight leaves the coin alone" in str(exc)
            return
        mc = monte_carlo_counterexample(spec, 200_000, seed=3)
        for key in ("cov_x1", "cov_x2"):
            assert abs(getattr(quad, key) - getattr(mc, key)) <= 5 * mc.stderrs[key], key
