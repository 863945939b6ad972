"""End-to-end acceptance runs, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criteria with stated runtime budgets assert them with perf counters.
"""

import json
import math
import time

import numpy as np

from matchbench import (
    assignment_oracle,
    cca,
    closed_form_counterexample,
    compute_moments,
    counterexample_market,
    gaussian_market,
    mrs_estimate,
    normalize_weights,
    numeric_counterexample,
    ols_index,
    population_moments_gaussian,
    rank1_weights,
    simulate_market,
    spearman_estimate,
    spearman_objective,
    spearman_objective_prob_form,
    spearman_upper_bound,
    svd_decompose,
    verify_surplus_identity,
)
from matchbench.cli import main as cli_main
from matchbench.market import (
    MarketSpec,
    MatchedSample,
    matching_value,
    pair_surplus_matrix,
    rank_sorted_permutation,
)
from matchbench.distributions import uniform01

E2 = math.exp(-2.0)
COV_X1 = (1.0 - E2) / 4.0
COV_X2 = (3.0 * E2 + 1.0) / 8.0
CCA_RATIO = (3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0)

_SUITE_START = time.perf_counter()


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def test_criterion_01_closed_forms_and_quadrature():
    started = time.perf_counter()
    closed = closed_form_counterexample()
    quad = numeric_counterexample(counterexample_market(), 1e-10)
    elapsed = time.perf_counter() - started
    ok = (
        abs(closed.cov_x1 - COV_X1) <= 1e-12
        and abs(closed.cov_x2 - COV_X2) <= 1e-12
        and abs(closed.ratio_cca - CCA_RATIO) <= 1e-12
        and abs(quad.cov_x1 - COV_X1) <= 1e-9
        and abs(quad.cov_x2 - COV_X2) <= 1e-9
        and abs(quad.ratio_cca - CCA_RATIO) <= 1e-9
        and elapsed < 1.0
    )
    _report(1, ok, f"closed forms exact to 1e-12, quadrature to 1e-9, {elapsed:.2f}s < 1s")


def test_criterion_02_monte_carlo_inconsistency():
    started = time.perf_counter()
    sample = simulate_market(counterexample_market(), 1_000_000, seed=106)
    result = cca(compute_moments(sample))
    ratio = result.alpha_hat[1] / result.alpha_hat[0]
    elapsed = time.perf_counter() - started
    ok = abs(ratio - 0.813036) <= 0.01 and abs(ratio - 1.0) >= 0.15 and elapsed < 30.0
    _report(2, ok, f"cca ratio {ratio:.6f} within 0.01 of 0.813036 and 0.15 off 1, {elapsed:.1f}s < 30s")


def test_criterion_03_gaussian_consistency():
    started = time.perf_counter()
    spec = gaussian_market(
        [[1.0, 0.3], [0.3, 1.0]],
        [[1.0, -0.2], [-0.2, 1.0]],
        np.array([1.0, 2.0]),
        np.array([3.0, 1.0]),
    )
    pop = cca(population_moments_gaussian(spec))
    alpha_star = normalize_weights(spec.alpha)
    beta_star = normalize_weights(spec.beta)
    pop_ok = (
        np.max(np.abs(pop.alpha_hat - alpha_star)) <= 1e-6
        and np.max(np.abs(pop.beta_hat - beta_star)) <= 1e-6
        and abs(pop.objective - 1.0) <= 1e-6
    )
    sample = simulate_market(spec, 100_000, seed=331)
    emp = cca(compute_moments(sample))
    emp_ok = (
        np.max(np.abs(emp.alpha_hat - alpha_star)) <= 0.02
        and np.max(np.abs(emp.beta_hat - beta_star)) <= 0.02
    )
    elapsed = time.perf_counter() - started
    ok = pop_ok and emp_ok and elapsed < 10.0
    _report(3, ok, f"population exact to 1e-6 with objective 1, n=1e5 within 0.02, {elapsed:.1f}s < 10s")


def test_criterion_04_ols_cca_coincide():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(50, 400))
        dx = int(rng.integers(1, 5))
        xs = rng.normal(size=(n, dx))
        ys = (xs @ rng.normal(size=dx) + 0.5 * rng.normal(size=n)).reshape(-1, 1)
        sample = MatchedSample(xs=xs, ys=ys)
        r_ols = ols_index(sample)
        r_cca = cca(compute_moments(sample))
        worst = max(worst, float(np.max(np.abs(r_ols.alpha_hat - r_cca.alpha_hat))))
        worst = max(worst, float(np.max(np.abs(r_ols.beta_hat - r_cca.beta_hat))))
    ok = worst <= 1e-8
    _report(4, ok, f"20 random scalar-y samples, max weight gap {worst:.2e} <= 1e-8")


def test_criterion_05_pam_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    spec = MarketSpec(dx=1, dy=1, alpha=[1.0], beta=[1.0],
                      p_components=(uniform01(),), q_components=(uniform01(),))
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        xs = rng.normal(size=(n, 1))
        ys = rng.normal(size=(n, 1))
        _, optimum = assignment_oracle(xs, ys, spec)
        pair = pair_surplus_matrix(xs, ys, spec)
        sorted_value = matching_value(pair, rank_sorted_permutation(xs, ys, spec))
        if sorted_value != optimum:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 5.0
    _report(5, ok, f"rank-sorted matching exactly optimal in 50/50 instances, {elapsed:.1f}s < 5s")


def test_criterion_06_spearman_bound():
    values = np.arange(100_000, dtype=float).reshape(-1, 1)
    big = MatchedSample(xs=values, ys=values.copy())
    attained = spearman_objective(big, [1.0], [1.0])
    exact_ok = attained == spearman_upper_bound(100_000)
    third_ok = abs(attained - 1.0 / 3.0) <= 0.005
    small_exact = all(
        spearman_objective(
            MatchedSample(xs=np.arange(n, dtype=float).reshape(-1, 1),
                          ys=np.arange(n, dtype=float).reshape(-1, 1)),
            [1.0], [1.0],
        )
        == spearman_upper_bound(n)
        for n in (2, 7, 61, 500)
    )
    rng = np.random.default_rng(606)
    sample = MatchedSample(xs=rng.normal(size=(500, 2)), ys=rng.normal(size=(500, 1)))
    gap = abs(
        spearman_objective(sample, [0.8, 0.6], [1.0])
        - spearman_objective_prob_form(sample, [0.8, 0.6], [1.0])
    )
    pr_ok = gap <= 3.0 / 500
    ok = exact_ok and third_ok and small_exact and pr_ok
    _report(6, ok, f"bound exact, {attained:.6f} near 1/3, probability-form gap {gap:.5f} <= 3/n")


def test_criterion_07_spearman_recovery():
    spec = counterexample_market()
    sample = simulate_market(spec, 100_000, seed=707)
    result = spearman_estimate(sample, restarts=4, seed=0)
    ratio = result.alpha_hat[1] / result.alpha_hat[0]
    at_truth = spearman_objective(sample, spec.alpha, spec.beta)
    cca_alpha = cca(compute_moments(sample)).alpha_hat
    at_cca = spearman_objective(sample, cca_alpha, spec.beta)
    ok = abs(ratio - 1.0) <= 0.05 and at_truth > at_cca
    _report(7, ok, f"grid-oracle ratio {ratio:.4f} within 0.05 of 1; objective(truth) > objective(cca)")


def test_criterion_08_saliency():
    rng = np.random.default_rng(808)
    recovery_ok = True
    for _ in range(100):
        alpha = normalize_weights(rng.normal(size=int(rng.integers(1, 6))))
        beta = normalize_weights(rng.normal(size=int(rng.integers(1, 6))))
        decomp = svd_decompose(np.outer(alpha, beta))
        got_alpha, got_beta = rank1_weights(decomp)
        d = decomp.lambdas.size
        recovery_ok &= float(np.max(np.abs(got_alpha - alpha))) <= 1e-10
        recovery_ok &= float(np.max(np.abs(got_beta - beta))) <= 1e-10
        recovery_ok &= decomp.numerical_rank == 1
        if d > 1:
            recovery_ok &= float(np.max(decomp.lambdas[1:])) <= 1e-10
            share_target = np.zeros(d)
            share_target[0] = 1.0
            recovery_ok &= float(np.max(np.abs(decomp.shares - share_target))) <= 1e-10

    sample = MatchedSample(xs=rng.normal(size=(100, 3)), ys=rng.normal(size=(100, 4)))
    identity_ok = True
    for _ in range(10):
        a = rng.normal(size=(3, 4))
        identity_ok &= verify_surplus_identity(a, svd_decompose(a), sample) <= 1e-10

    planted_ok = True
    for r in (1, 2, 3, 4):
        u = np.linalg.qr(rng.normal(size=(6, r)))[0]
        v = np.linalg.qr(rng.normal(size=(5, r)))[0]
        a = u @ np.diag(np.linspace(3.0, 1.0, r)) @ v.T
        planted_ok &= svd_decompose(a).numerical_rank == r

    ok = bool(recovery_ok and identity_ok and planted_ok)
    _report(8, ok, "rank-1 recovery to 1e-10, surplus identity to 1e-10, planted ranks detected")


def test_criterion_09_mrs_sanity():
    rng = np.random.default_rng(909)
    xs = rng.normal(size=(10_000, 2))
    alpha = np.array([1.0, 2.0]) / math.sqrt(5.0)
    sample = MatchedSample(xs=xs, ys=(xs @ alpha).reshape(-1, 1))
    result = mrs_estimate(sample)
    ratio = result.diagnostics["ratio_matrix"][0, 1]
    ok = abs(ratio - 0.5) <= 0.1
    _report(9, ok, f"median derivative ratio {ratio:.4f} within 0.1 of 0.5 at n=1e4")


def test_criterion_10_runtime_and_reproducibility(tmp_path):
    config = {
        "market": counterexample_market().to_json(),
        "n": 2000,
        "seed": 1010,
        "methods": ["cca", "ols"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["estimate", "--config", str(cfg_path),
                         "--sample", str(out / "sample.csv"), "--out", str(out)]) == 0
        assert cli_main(["counterexample", "--tol", "1e-9", "--n", "20000",
                         "--out", str(out)]) == 0
        outputs.append({
            "sample": (out / "sample.csv").read_bytes(),
            "summary": (out / "summary.json").read_bytes(),
            "cca": (out / "estimate_cca.json").read_bytes(),
            "ols": (out / "estimate_ols.json").read_bytes(),
            "counterexample": (out / "counterexample.json").read_bytes(),
        })
    reproducible = outputs[0] == outputs[1]
    elapsed = time.perf_counter() - _SUITE_START
    ok = reproducible and elapsed < 120.0
    _report(10, ok, f"byte-identical reruns; acceptance suite {elapsed:.0f}s < 120s")
