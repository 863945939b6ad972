import argparse
import hashlib
import json
import math
import multiprocessing
import os
import re
import shlex
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchbench
from matchbench import ConfigError, MatchedSample, NumericalError, cli, oracle
from matchbench.cli import _apply_overrides, angular_error, build_parser, load_config, main
from matchbench.distributions import KINDS

COUNTEREXAMPLE_MARKET = {
    "dx": 2,
    "dy": 1,
    "alpha": [0.7071067811865476, 0.7071067811865476],
    "beta": [1.0],
    "p_components": [{"kind": "rademacher"}, {"kind": "exponential", "param": 1.0}],
    "q_components": [{"kind": "uniform01"}],
    "phi": "product",
}

# the benchmark market with a Gaussian x side in place of its components
GAUSSIAN_P_MARKET = {key: value for key, value in COUNTEREXAMPLE_MARKET.items() if key != "p_components"}

MISSING = object()


def write_config(path, **overrides):
    config = {
        "market": COUNTEREXAMPLE_MARKET,
        "n": 400,
        "seed": 7,
        "methods": ["cca", "ols"],
        "replications": 2,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


class TestConfig:
    def test_load_and_overrides_validate(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", sweep=[100, 200], spearman={"restarts": 4})
        config = load_config(path)
        assert (config.n, config.seed, config.methods, config.sweep) == (400, 7, ("cca", "ols"), (100, 200))
        assert (config.replications, config.restarts) == (2, 4)
        changed = _apply_overrides(config, argparse.Namespace(n=50, seed=3, methods="spearman,mrs"))
        assert (changed.n, changed.seed, changed.methods) == (50, 3, ("spearman", "mrs"))
        assert (changed.sweep, changed.replications, changed.restarts) == ((100, 200), 2, 4)
        for bad in ({"n": 1}, {"methods": "cca,pca"}, {"methods": "cca,ols,cca"}):
            args = argparse.Namespace(**{"n": None, "seed": None, "methods": None, **bad})
            with pytest.raises(ConfigError):
                _apply_overrides(config, args)

    @pytest.mark.parametrize("key, value, shown", [
        ("market.dx", MISSING, "'dx'"),
        ("market.dy", MISSING, "'dy'"),
        ("market.alpha", MISSING, "'alpha'"),
        ("market.beta", MISSING, "'beta'"),
        ("market.dx", None, "'dx'"),
        ("n", None, "n:"),
        ("seed", None, "seed:"),
        ("sweep", None, "sweep:"),
        ("seed", -1, "seed:"),
        ("seed", 1.5, "seed:"),
        ("affinity", [[1.0, 2.0], [3.0]], "affinity:"),
        ("affinity", [["a"], ["b"]], "affinity:"),
        ("spearman", {"grid_resolution": 0}, "spearman.grid_resolution:"),
        ("spearman", {"grid_resolution": 1e-13}, "spearman.grid_resolution:"),
        ("spearman", {"restart": 2}, "spearman.restart:"),
        ("spearman", {"restarts": [1]}, "spearman.restarts:"),
        ("spearman", {"restarts": 2.7}, "spearman.restarts:"),
        ("spearman", {"restarts": True}, "spearman.restarts:"),
        ("spearman", {"restarts": -1}, "spearman.restarts:"),
        ("n", 100.7, "n:"),
        ("n", "100", "n:"),
        ("replications", 2.5, "replications:"),
        ("sweep", [100.5], "sweep:"),
        ("methods", {"cca": 1}, "methods:"),
        ("out_dir", 5, "out_dir:"),
        ("market.dx", 2.5, "market: dx:"),
        ("market.dx", "2", "market: dx:"),
        ("market.p_components", [{"kind": "rademacher"}, {"kind": "exponential", "param": True}],
         "market: p_components[1].param:"),
        ("market.p_components", [{"kind": "rademacher"}, {"kind": "exponential", "param": 1e400}],
         "market: p_components[1].param:"),
        ("market.p_components", [{"kind": "rademacher"}, {"kind": "exponential", "param": "x"}],
         "market: p_components[1].param:"),
        ("market.alpha", [1e400, 1.0], "market: alpha:"),
        ("market", [], "market:"),
        ("market.alpha", ["1", "1"], "market: alpha:"),
        ("market.alpha", [True, 1.0], "market: alpha:"),
        ("market.beta", ["2"], "market: beta:"),
        ("market", GAUSSIAN_P_MARKET | {"p_gaussian_cov": [["1", "0"], ["0", "1"]]}, "market: p_gaussian_cov:"),
        ("market", GAUSSIAN_P_MARKET | {"p_gaussian_cov": [[True, 0.0], [0.0, 1.0]]}, "market: p_gaussian_cov:"),
        ("market", COUNTEREXAMPLE_MARKET | {"q_components": None, "q_gaussian_cov": [["1"]]},
         "market: q_gaussian_cov:"),
        ("affinity", [["1"], ["2"]], "affinity:"),
        ("affinity", [[True], [1.0]], "affinity:"),
        ("market", COUNTEREXAMPLE_MARKET | {"dy": 2, "beta": [1.0, 1.0], "q_components": [
            {"kind": "uniform01"}, {"kind": "gaussian", "param": "1"}]}, "market: q_components[1].param:"),
        ("market.phi", "custom", "market: phi:"),
        ("market.alpha", [1e308, 1e308], "alpha/p_components:"),
        ("market.p_components", [{"kind": "rademacher"}, {"kind": "exponential", "param": 1e-308}],
         "alpha/p_components:"),
        ("market.p_components", [{"kind": "rademacher"}, {"kind": "exponential", "param": 10**400}],
         "market: p_components[1].param:"),
        ("market.q_components", [{"kind": "gaussian", "param": 10**400}], "market: q_components[0].param:"),
        ("market", MISSING, "market: missing"),
        ("spearmen", {"restarts": 2}, "unknown config keys ['spearmen']"),
        ("market.phy", "product", "unknown market keys ['phy']"),
        ("market", GAUSSIAN_P_MARKET | {"p_gaussian_cov": [[1.0]]}, "market: p_gaussian_cov: covariance must be 2x2"),
        ("market", GAUSSIAN_P_MARKET | {"p_gaussian_cov": [[1.0, 0.5], [0.0, 1.0]]},
         "market: p_gaussian_cov: covariance must be symmetric"),
        ("market.beta", [1.0, 1.0], "market: beta must have length dy=1"),
        ("market.beta", [0.0], "market: beta must be nonzero"),
    ], ids=["no-dx", "no-dy", "no-alpha", "no-beta", "null-dx", "null-n", "null-seed", "null-sweep",
            "negative-seed", "float-seed", "ragged-affinity", "text-affinity", "zero-grid-resolution",
            "tiny-grid-resolution", "restart-typo", "list-restarts", "float-restarts", "bool-restarts",
            "negative-restarts", "float-n", "text-n", "float-replications", "float-sweep", "object-methods",
            "int-out-dir", "float-dx", "text-dx", "bool-param", "infinite-param", "text-param",
            "infinite-alpha", "list-market", "numeric-text-alpha", "bool-alpha", "numeric-text-beta",
            "numeric-text-p-cov", "bool-p-cov", "numeric-text-q-cov", "numeric-text-affinity", "bool-affinity",
            "text-second-q-param", "custom-phi", "overflowing-alpha", "overflowing-draws", "huge-int-param",
            "huge-int-gaussian-param", "no-market", "unknown-key", "unknown-market-key", "cov-shape",
            "asymmetric-cov", "long-beta", "zero-beta"])
    def test_missing_or_null_field_is_named(self, tmp_path, capsys, key, value, shown):
        config = {"market": dict(COUNTEREXAMPLE_MARKET), "n": 400, "seed": 7}
        target = config["market"] if key.startswith("market.") else config
        name = key.removeprefix("market.")
        if value is MISSING:
            del target[name]
        else:
            target[name] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert shown in err
        assert not (tmp_path / "o" / "sample.csv").exists()

    def test_zero_weight_rejected_with_field_name(self, tmp_path, capsys):
        market = dict(COUNTEREXAMPLE_MARKET, alpha=[0.0, 0.0])
        path = write_config(tmp_path / "cfg.json", market=market)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_non_spd_covariance_rejected(self, tmp_path, capsys):
        market = {
            "dx": 2, "dy": 1, "alpha": [1.0, 1.0], "beta": [1.0],
            "p_gaussian_cov": [[1.0, 2.0], [2.0, 1.0]],
            "q_components": [{"kind": "uniform01"}],
        }
        path = write_config(tmp_path / "cfg.json", market=market)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "covariance" in capsys.readouterr().err

    def test_empty_methods_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", methods=[])
        assert main(["estimate", "--config", str(path), "--sample", "x.csv"]) == 2

    def test_unknown_method_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", methods=["pca"])
        assert main(["estimate", "--config", str(path), "--sample", "x.csv"]) == 2

    @pytest.mark.parametrize("command", ["estimate", "benchmark"])
    def test_zero_restarts_without_a_grid_are_refused_before_any_file(self, tmp_path, capsys, command):
        # a 3x2 market has neither the 1x1 signs nor the 2x1 angular grid, so
        # spearman has no candidate without restarts; cca must not write first
        market = {"dx": 3, "dy": 2, "alpha": [1.0, 1.0, 1.0], "beta": [1.0, 1.0],
                  "p_gaussian_cov": np.eye(3).tolist(), "q_gaussian_cov": np.eye(2).tolist()}
        cfg = write_config(tmp_path / "cfg.json", market=market, methods=["cca", "spearman"], sweep=[100],
                           spearman={"restarts": 0})
        sample = tmp_path / "sample.csv"
        matchbench.simulate_market(matchbench.MarketSpec.from_json(market), 100, seed=0).to_csv(sample)
        extra = ["--sample", str(sample)] if command == "estimate" else []
        rc = main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "spearman.restarts:" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("text, shown", [
        ('{"n": 400,\n "seed": 7,}', "invalid JSON at line 2, column 12"),
        ("[1, 2]", "config root must be a JSON object"),
    ], ids=["invalid-json", "list-root"])
    def test_unparsable_config_is_named(self, tmp_path, capsys, text, shown):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert shown in capsys.readouterr().err


# Any JSON value, with integers kept small so no draw asks for a long search.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# JSON numbers, and the strings and bools that numpy would read as numbers
NUMBER_LIKE = st.integers(-3, 6) | st.floats(-10, 10) | st.sampled_from(["1", "0.5", "-2", True, False])


def all_numbers(value) -> bool:
    """True if every leaf of a nested JSON list is an int or a float."""
    if isinstance(value, list):
        return all(all_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def matrices(rows: int, cols: int):
    return st.lists(st.lists(NUMBER_LIKE, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def component(kind: str):
    """A component of ``kind``; a gaussian or exponential takes a param from
    a set with an integer too large for a float and scales whose draws overflow."""
    params = st.sampled_from([10**400, 1e-308, 1e308, 1.0, 2]) if kind in ("gaussian", "exponential") else st.none()
    return st.fixed_dictionaries({"kind": st.just(kind), "param": params})


def component_lists(dim: int):
    """Either ``dim`` components, one unknown kind among the kinds, or any JSON
    value; a null list is the same as none."""
    return st.lists(st.sampled_from(KINDS + ("cauchy",)).flatmap(component), min_size=dim, max_size=dim) | JSON_VALUES


@pytest.fixture(scope="module")
def fuzz_sample(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "sample.csv"
    matchbench.simulate_market(matchbench.counterexample_market(), 200, seed=5).to_csv(path)
    return path


class TestConfigFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        spearman=st.just(MISSING) | JSON_VALUES
        | st.dictionaries(st.sampled_from(["restarts", "restart", "grid_resolution"]), JSON_VALUES, max_size=2),
        seed=st.just(MISSING) | JSON_VALUES,
        affinity=st.just(MISSING) | JSON_VALUES
        | st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3),
                   min_size=1, max_size=3),
    )
    def test_estimate_exits_with_a_code_never_a_traceback(self, fuzz_sample, spearman, seed, affinity):
        config = {"market": COUNTEREXAMPLE_MARKET, "methods": ["cca", "spearman", "saliency"]}
        for key, value in (("spearman", spearman), ("seed", seed), ("affinity", affinity)):
            if value is not MISSING:
                config[key] = value
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "cfg.json"
            path.write_text(json.dumps(config))
            rc = main(["estimate", "--config", str(path), "--sample", str(fuzz_sample), "--out", out])
        assert rc in (0, 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        command=st.sampled_from(["simulate", "benchmark"]),
        n=st.just(MISSING) | st.integers(2, 40) | JSON_VALUES,
        replications=st.just(MISSING) | st.integers(1, 3) | JSON_VALUES,
        sweep=st.just(MISSING) | st.lists(st.integers(-3, 40), max_size=2) | JSON_VALUES,
        methods=st.just(MISSING) | JSON_VALUES
        | st.lists(st.sampled_from(["cca", "ols", "spearman", "mrs", "saliency", "pca"]), max_size=3),
        out_dir=st.just(MISSING) | st.text(max_size=4) | JSON_VALUES,
        dx=st.just(MISSING) | st.integers(1, 3) | JSON_VALUES,
    )
    def test_simulate_and_benchmark_exit_with_a_code_never_a_traceback(
        self, command, n, replications, sweep, methods, out_dir, dx
    ):
        config = {"market": dict(COUNTEREXAMPLE_MARKET), "n": 50, "spearman": {"restarts": 1}}
        drawn = {"n": n, "replications": replications, "sweep": sweep, "methods": methods, "out_dir": out_dir}
        config.update((key, value) for key, value in drawn.items() if value is not MISSING)
        if dx is not MISSING:
            config["market"]["dx"] = dx
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "cfg.json"
            path.write_text(json.dumps(config))
            # --out wins over a drawn out_dir, which is then checked but never written to
            rc = main([command, "--config", str(path), "--out", out])
        assert rc in (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.just(MISSING) | JSON_VALUES | st.lists(NUMBER_LIKE, min_size=2, max_size=2),
        beta=st.just(MISSING) | JSON_VALUES | st.lists(NUMBER_LIKE, min_size=1, max_size=1),
        p_cov=st.just(MISSING) | JSON_VALUES | matrices(2, 2),
        q_cov=st.just(MISSING) | JSON_VALUES | matrices(1, 1),
        affinity=st.just(MISSING) | JSON_VALUES | matrices(2, 1),
    )
    def test_weights_covariances_and_affinity_take_json_numbers_only(self, alpha, beta, p_cov, q_cov, affinity):
        market = dict(COUNTEREXAMPLE_MARKET)
        for key, value in (("alpha", alpha), ("beta", beta)):
            if value is MISSING:
                del market[key]
            else:
                market[key] = value
        for side, cov in (("p", p_cov), ("q", q_cov)):
            if cov is not MISSING:
                del market[f"{side}_components"]
                market[f"{side}_gaussian_cov"] = cov
        config = {"market": market, "n": 50}
        if affinity is not MISSING:
            config["affinity"] = affinity
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "cfg.json"
            path.write_text(json.dumps(config))
            rc = main(["simulate", "--config", str(path), "--out", out])
        assert rc in (0, 2, 3)
        # a null affinity means none is configured
        drawn = [alpha, beta, p_cov, q_cov] + ([affinity] if affinity is not None else [])
        if not all(all_numbers(value) for value in drawn if value is not MISSING):
            assert rc == 2

    @settings(max_examples=60, deadline=None)
    @given(p_components=component_lists(2), q_components=component_lists(1))
    def test_components_exit_with_a_code_never_a_traceback(self, p_components, q_components):
        market = dict(COUNTEREXAMPLE_MARKET)
        market.update(p_components=p_components, q_components=q_components)
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "cfg.json"
            path.write_text(json.dumps({"market": market, "n": 50}))
            rc = main(["simulate", "--config", str(path), "--out", out])
            assert rc in (0, 2, 3)
            if rc == 2:
                assert not (Path(out) / "sample.csv").exists()


class TestSimulate:
    def test_writes_rows_and_summary(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", n=1000)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sample.csv").read_text().splitlines()
        assert len(lines) == 1001
        assert lines[0] == "x1,x2,y1"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 1000 and summary["dx"] == 2

    @pytest.mark.parametrize("sample", [
        matchbench.simulate_market(matchbench.MarketSpec.from_json(
            {**COUNTEREXAMPLE_MARKET, "dx": 1, "alpha": [1.0], "p_components": [{"kind": "rademacher"}]}), 1000, 3),
        MatchedSample(xs=[[0.0, 1.0], [-0.0, 2.0], [0.0, -1.0], [-0.0, 1.0], [-0.0, -0.0]],
                      ys=[[-0.0], [0.0], [0.5], [-0.0], [0.5]]),
    ], ids=["coin-only-x-side", "signed-zeros"])
    def test_summary_counts_ties_as_unique_does(self, sample):
        spec = matchbench.MarketSpec(dx=sample.dx, dy=1, alpha=[1.0] * sample.dx, beta=[1.0],
                                     p_cov=np.eye(sample.dx), q_cov=[[1.0]])
        summary = cli._sample_summary(sample, spec, 0)
        for side, index in (("x", sample.x_index(spec.alpha)), ("y", sample.y_index(spec.beta))):
            assert summary[f"index_variance_{side}"] == float(np.var(index))
            assert summary[f"tie_count_{side}"] == sample.n - np.unique(index).size
        assert summary["tie_count_x"] > 0

    def test_summary_peaks_at_one_index_and_its_variance_temporary(self):
        spec = matchbench.counterexample_market()
        n = 10**6
        sample = matchbench.simulate_market(spec, n, 0)
        cli._sample_summary(sample, spec, 0)
        tracemalloc.start()
        try:
            cli._sample_summary(sample, spec, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # both indices and two np.unique sorts held at once read 31.5 MiB
        assert peak <= 2 * n * 8 + 2**20

    def test_byte_identical_rerun(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", n=500)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(path), "--out", str(out1)])
        main(["simulate", "--config", str(path), "--out", str(out2)])
        assert (out1 / "sample.csv").read_bytes() == (out2 / "sample.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", n=300)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(path), "--out", str(out1)])
        main(["simulate", "--config", str(path), "--seed", "8", "--out", str(out2)])
        assert (out1 / "sample.csv").read_bytes() != (out2 / "sample.csv").read_bytes()


class TestEstimate:
    def test_cca_and_ols_agree_on_scalar_y(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=2000)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        rc = main(["estimate", "--config", str(cfg), "--sample", str(out / "sample.csv"),
                   "--out", str(out)])
        assert rc == 0
        cca_json = json.loads((out / "estimate_cca.json").read_text())
        ols_json = json.loads((out / "estimate_ols.json").read_text())
        np.testing.assert_allclose(cca_json["alpha"], ols_json["alpha"], atol=1e-8)
        assert cca_json["objective"] <= 1.0 + 1e-10

    def test_spearman_method_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=800,
                           methods=["spearman"], spearman={"restarts": 2})
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        rc = main(["estimate", "--config", str(cfg), "--sample", str(out / "sample.csv"),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "estimate_spearman.json").read_text())
        ratio = payload["alpha"][1] / payload["alpha"][0]
        assert abs(ratio - 1.0) < 0.35

    def test_saliency_method_with_inline_affinity(self, tmp_path):
        alpha = [1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)]
        affinity = [[alpha[0]], [alpha[1]]]
        cfg = write_config(tmp_path / "cfg.json", methods=["saliency"], affinity=affinity)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        rc = main(["estimate", "--config", str(cfg), "--sample", str(out / "sample.csv"),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "estimate_saliency.json").read_text())
        np.testing.assert_allclose(payload["alpha"], alpha, atol=1e-10)

    def test_saliency_method_matches_saliency_command(self, tmp_path):
        # each affinity on a market of its own shape, so the rank-2 matrix runs on a 2x2 market
        market_2x2 = {**COUNTEREXAMPLE_MARKET, "dy": 2, "beta": [1.0, 0.5],
                      "q_components": [{"kind": "uniform01"}, {"kind": "uniform01"}]}
        for market, affinity in ((COUNTEREXAMPLE_MARKET, [[0.6], [0.8]]), (market_2x2, [[1.0, 2.0], [0.5, 0.3]])):
            cfg = write_config(tmp_path / "cfg.json", market=market, methods=["saliency"], affinity=affinity)
            est, sal = tmp_path / "est", tmp_path / "sal"
            main(["simulate", "--config", str(cfg), "--out", str(est)])
            assert main(["estimate", "--config", str(cfg), "--sample", str(est / "sample.csv"),
                         "--out", str(est)]) == 0
            assert main(["saliency", "--config", str(cfg), "--out", str(sal)]) == 0
            estimate = json.loads((est / "estimate_saliency.json").read_text())
            saliency = json.loads((sal / "saliency.json").read_text())
            for key in ("lambdas", "shares", "rank", "U", "V", "alpha", "beta"):
                assert estimate[key] == saliency.get(key), key

    def test_empty_methods_override_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        rc = main(["estimate", "--config", str(cfg), "--sample", str(tmp_path / "sample.csv"),
                   "--methods", "", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "methods: unknown method ''" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        sample = MatchedSample(xs=np.random.default_rng(0).normal(size=(50, 3)),
                               ys=np.random.default_rng(1).normal(size=(50, 1)))
        sample_path = tmp_path / "bad.csv"
        sample.to_csv(sample_path)
        assert main(["estimate", "--config", str(cfg), "--sample", str(sample_path)]) == 2

    def test_degenerate_sample_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        sample = MatchedSample(xs=np.ones((50, 2)), ys=np.ones((50, 1)))
        sample_path = tmp_path / "flat.csv"
        sample.to_csv(sample_path)
        rc = main(["estimate", "--config", str(cfg), "--sample", str(sample_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical" in capsys.readouterr().err

    def test_constant_response_ols_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text("x1,x2,y1\n0,1,2\n1,0,2\n2,3,2\n3,1,2\n")
        rc = main(["estimate", "--config", str(cfg), "--sample", str(sample_path),
                   "--methods", "ols", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "all-zero x weights" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_constant_side_spearman_is_numerical_error(self, tmp_path, capsys, side):
        # cca, ols and mrs exit 3 on such a sample; spearman wrote arbitrary weights
        cfg = write_config(tmp_path / "cfg.json")
        rng = np.random.default_rng(4)
        xs, ys = rng.normal(size=(300, 2)), np.full((300, 1), 0.5)
        if side == "x":
            xs, ys = np.ones((300, 2)), rng.normal(size=(300, 1))
        sample_path = tmp_path / "sample.csv"
        MatchedSample(xs=xs, ys=ys).to_csv(sample_path)
        out = tmp_path / "o"
        rc = main(["estimate", "--config", str(cfg), "--sample", str(sample_path),
                   "--methods", "spearman", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"numerical failure: every {side} attribute is constant, so every {side}-side index is\n")
        assert not (out / "estimate_spearman.json").exists()

    @pytest.mark.parametrize("method", ["cca", "ols", "mrs"])
    def test_overflowing_moments_are_config_error(self, tmp_path, capsys, method):
        cfg = write_config(tmp_path / "cfg.json")
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text("x1,x2,y1\n1e200,-1e200,1e200\n-1e200,1e200,-1e200\n"
                               "1e200,1e200,-1e200\n-1e200,-1e200,1e200\n")
        rc = main(["estimate", "--config", str(cfg), "--sample", str(sample_path),
                   "--methods", method, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "sample: second moments overflow a float; rescale the columns" in err
        assert not (tmp_path / "o" / f"estimate_{method}.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_rejects_non_finite_or_negative_tol(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path / "cfg.json", n=100, methods=["cca", "saliency"], affinity=[[0.6], [0.8]])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        rc = main(["estimate", "--config", str(cfg), "--sample", str(tmp_path / "sample.csv"),
                   f"--tol={tol}", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mrs_estimate_is_byte_reproducible(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=3000, methods=["mrs"])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
        payloads = []
        for out in ("a", "b"):
            assert main(["estimate", "--config", str(cfg), "--sample", str(tmp_path / "run" / "sample.csv"),
                         "--out", str(tmp_path / out)]) == 0
            payloads.append((tmp_path / out / "estimate_mrs.json").read_bytes())
        assert payloads[0] == payloads[1]
        assert json.loads(payloads[0])["method"] == "mrs"

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("", "empty file"),
            ("x1,x2,y1\n", "no rows"),
            ("x1,x2,y1\n1,2,3\nnan,0.5,1\n", "line 3: expected 3 finite numbers"),
            ("x1,x2,y1\n1,2,3\n\n4,inf,1\n", "line 4: expected 3 finite numbers"),
            ("x1,x2,y1\n1,2,3\n4,five,1\n", "line 3: expected 3 finite numbers"),
            ("x1,x2,y1\n1,2,3\n4,5\n", "line 3: expected 3 finite numbers"),
            ("x1,y2,y1\n1,2,3\n", "unexpected sample header ['x1', 'y2', 'y1']"),
        ],
        ids=["empty", "header_only", "nan_row", "inf_after_blank", "text", "short_row", "bad_header"],
    )
    def test_malformed_sample_is_config_error(self, tmp_path, capsys, text, shown):
        cfg = write_config(tmp_path / "cfg.json", methods=["cca", "spearman"])
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text(text)
        rc = main(["estimate", "--config", str(cfg), "--sample", str(sample_path),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert shown in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "estimate_cca.json").exists()

    def test_spearman_diagnostics_report_search_counters(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=800,
                           methods=["spearman"], spearman={"restarts": 2})
        sample = tmp_path / "run" / "sample.csv"
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
        # the simulated sample is comonotone and takes the arc; with half its
        # y column reversed it is not, and takes the search
        drawn = MatchedSample.from_csv(sample)
        shuffled = tmp_path / "shuffled.csv"
        MatchedSample(xs=drawn.xs, ys=np.concatenate([drawn.ys[:400][::-1], drawn.ys[400:]])).to_csv(shuffled)
        reports = []
        for path in (sample, shuffled):
            payloads = []
            for out in ("a", "b"):
                assert main(["estimate", "--config", str(cfg), "--sample", str(path),
                             "--out", str(tmp_path / out)]) == 0
                payloads.append((tmp_path / out / "estimate_spearman.json").read_bytes())
            assert payloads[0] == payloads[1]
            reports.append(json.loads(payloads[0]))
        arc, search = (r["diagnostics"] for r in reports)
        assert arc["objective_evaluations"] == 1 and arc["local_optima"] == [] and arc["gap"] == 0
        assert arc["argmax_interval"]["lo"] < arc["argmax_interval"]["hi"]
        assert reports[0]["objective"] == arc["upper_bound"]
        assert search["argmax_interval"] is None and search["gap"] > 0
        assert search["objective_evaluations"] > 0 and len(search["local_optima"]) == 2
        for entry in search["local_optima"]:
            assert {"nfev", "nit", "success"} <= set(entry)


class TestCounterexampleCommand:
    def test_default_run_is_inconsistent(self, tmp_path, capsys):
        rc = main(["counterexample", "--tol", "1e-9", "--n", "50000",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "INCONSISTENT" in capsys.readouterr().out
        payload = json.loads((tmp_path / "counterexample.json").read_text())
        assert payload["flag"] == "INCONSISTENT"
        assert all(payload["agreement"]["quadrature_vs_closed"].values())
        assert all(payload["agreement"]["monte_carlo_vs_closed"].values())
        ratio = payload["closed_form"]["ratio_cca"]["value"]
        assert abs(ratio - 0.8130352854993312) < 1e-12
        assert payload["market"]["phi"] == "product"

    def test_gaussian_run_is_consistent(self, tmp_path):
        rc = main(["counterexample", "--gaussian", "--tol", "1e-8", "--n", "50000",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "counterexample.json").read_text())
        assert payload["flag"] == "CONSISTENT"
        closed = payload["closed_form"]
        assert closed["cov_x1"]["value"] == 0.7071067811865476
        # the benchmark market's formulas belong to the benchmark market only
        for key in ("cov_x1", "cov_x2", "ratio_cca", "ratio_true"):
            assert "symbolic" not in closed[key], key

    def test_tolerance_is_plumbed_through(self, tmp_path):
        rc = main(["counterexample", "--tol", "1e-3", "--n", "5000", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "counterexample.json").read_text())
        assert payload["tol"] == 1e-3

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["counterexample", "--tol", "1e-9", "--n", "20000", "--out", str(out)])
        assert (out1 / "counterexample.json").read_bytes() == (out2 / "counterexample.json").read_bytes()
        diagnostics = json.loads((out1 / "counterexample.json").read_text())["quadrature"]["diagnostics"]
        assert sorted(diagnostics) == ["max_depth", "panels"]
        assert all(isinstance(v, int) for v in diagnostics.values())

    def test_quadrature_counters_and_benchmark_terms(self, tmp_path):
        assert main(["counterexample", "--tol", "1e-9", "--n", "20000", "--out", str(tmp_path / "a")]) == 0
        quad = json.loads((tmp_path / "a" / "counterexample.json").read_text())["quadrature"]
        assert quad["diagnostics"] == {"panels": 102, "max_depth": 25}
        assert sorted(quad["expectation_terms"]) == sorted(matchbench.closed_form_counterexample().expectation_terms)
        assert main(["counterexample", "--gaussian", "--tol", "1e-8", "--n", "2000",
                     "--out", str(tmp_path / "g")]) == 0
        quad = json.loads((tmp_path / "g" / "counterexample.json").read_text())["quadrature"]
        assert quad["expectation_terms"] == {}

    # the whole counterexample.json, its closed-form, quadrature and Monte
    # Carlo blocks included, bit for bit
    @pytest.mark.parametrize("flags, sha256", [
        (["--tol", "1e-9", "--n", "20000"], "685f1b7767ac1691931ff8413e3d98b2e746172c14c5b47f1ecc58d82cd4c1a5"),
        (["--gaussian", "--tol", "1e-8", "--n", "2000"],
         "6fbf9c1cb5be00a9c54d7416a3a98bd62a3f9c936f028f9d52f172bada431ee1"),
    ], ids=["benchmark", "gaussian"])
    def test_output_bytes_are_pinned(self, tmp_path, flags, sha256):
        assert main(["counterexample", *flags, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "counterexample.json").read_bytes()).hexdigest() == sha256

    def test_benchmark_market_builds_one_transfer_map(self, tmp_path, monkeypatch):
        # the covariances and the named expectation terms share one quadrature run
        built = []
        monkeypatch.setattr(oracle, "population_transfer_map",
                            lambda *args, real=oracle.population_transfer_map: built.append(args) or real(*args))
        assert main(["counterexample", "--tol", "1e-6", "--n", "2000", "--out", str(tmp_path)]) == 0
        assert len(built) == 1

    def test_zero_monte_carlo_covariance_exits_3(self, tmp_path, capsys):
        # the two draws of seed 2 share a coin value, so the sample cov_x1 is 0
        rc = main(["counterexample", "--n", "2", "--seed", "2", "--tol", "1e-4", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "cov_x1" in err
        assert "Traceback" not in err

    # the README's two commands, at the default n = 1e6 and seed 0
    @pytest.mark.parametrize("flags", [["--gaussian"], ["--tol", "1e-9"]], ids=["gaussian", "benchmark"])
    def test_readme_command_at_default_tol(self, tmp_path, flags):
        started = time.perf_counter()
        rc = main(["counterexample", *flags, "--out", str(tmp_path)])
        elapsed = time.perf_counter() - started
        assert rc == 0
        payload = json.loads((tmp_path / "counterexample.json").read_text())
        assert payload["tol"] == 1e-9
        for group, flags in payload["agreement"].items():
            assert all(flags.values()), group
        for key in ("cov_x1", "cov_x2"):
            gap = abs(payload["quadrature"][key]["value"] - payload["closed_form"][key]["value"])
            assert gap <= 10 * payload["tol"], key
        assert elapsed < 2.0

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--n", "1"), ("--n", "0")])
    def test_rejects_bad_draw_count_or_seed(self, tmp_path, capsys, flag, value):
        rc = main(["counterexample", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        assert f"{flag}: must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "counterexample.json").exists()

    # 1e-17, and 1e-15 on the gaussian market, are too small for the quadrature's tail cut
    @pytest.mark.parametrize("tol, flags", [("nan", []), ("inf", []), ("0", []), ("-1e-9", []), ("1e-17", []),
                                            ("1e-15", ["--gaussian"])],
                             ids=["nan", "inf", "0", "-1e-9", "1e-17", "gaussian-1e-15"])
    def test_rejects_non_finite_or_non_positive_tol(self, tmp_path, capsys, tol, flags):
        rc = main(["counterexample", *flags, f"--tol={tol}", "--out", str(tmp_path / "o1")])
        assert rc == 2
        assert "tol" in capsys.readouterr().err
        # a refused command makes no output directory
        assert not (tmp_path / "o1").exists()


def raise_(error):
    raise error


def task_failing_at_200(config, n, rep, task_index, real=cli._benchmark_task):
    """A benchmark task that fails at n = 200 and runs as usual otherwise; module
    level, so the pool can pickle it by name."""
    if n == 200:
        raise NumericalError("injected at n = 200")
    return real(config, n, rep, task_index)


def benchmark_at_pool_sizes(cfg, tmp_path, monkeypatch, sizes):
    """Run ``benchmark`` once per worker-pool size, assert the tables are
    byte-identical and that no worker process outlives the command, and
    return the first run's output directory."""
    outs = [tmp_path / f"workers{size}" for size in sizes]
    for size, out in zip(sizes, outs):
        monkeypatch.setattr(cli, "WORKERS", size)
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
    for name in ("benchmark.csv", "benchmark_long.csv"):
        assert len({(out / name).read_bytes() for out in outs}) == 1
    return outs[0]


class TestBenchmark:
    def test_table_shape_and_determinism(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", sweep=[200, 400], replications=3)
        out = benchmark_at_pool_sizes(cfg, tmp_path, monkeypatch, (1, 3))
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + methods x sweep
        long_lines = (out / "benchmark_long.csv").read_text().splitlines()
        assert len(long_lines) == 1 + 2 * 2 * 3

    def test_pool_output_independent_of_threads_at_large_n(self, tmp_path, monkeypatch):
        # above n = 1e4 OpenBLAS threads a dot, so the pool's workers share
        # the CPUs with BLAS threads; the tables must not notice
        cfg = write_config(tmp_path / "cfg.json", sweep=[12000], replications=2,
                           methods=["spearman"], spearman={"restarts": 1})
        benchmark_at_pool_sizes(cfg, tmp_path, monkeypatch, (1, 2))

    def test_nelder_mead_records_independent_of_pool_size(self, tmp_path, monkeypatch):
        # a 3x2 market has no exact arc, so every spearman record comes from the Nelder-Mead restarts
        market = {"dx": 3, "dy": 2, "alpha": [1.0, 1.0, 1.0], "beta": [1.0, 1.0],
                  "p_gaussian_cov": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  "q_gaussian_cov": [[1.0, 0.0], [0.0, 1.0]], "phi": "product"}
        cfg = write_config(tmp_path / "cfg.json", market=market, sweep=[300, 600], replications=2,
                           methods=["cca", "spearman"], spearman={"restarts": 2})
        out = benchmark_at_pool_sizes(cfg, tmp_path, monkeypatch, (1, 3))
        rows = (out / "benchmark_long.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2 * 2 and all(row.split(",")[5] for row in rows)

    @pytest.mark.parametrize("fail, rc, shown", [
        # a worker killed for memory breaks the pool the same way
        (lambda: os._exit(1), 3, "error: a benchmark worker process died: "),
        (lambda: raise_(NumericalError("zero variance")), 3, "numerical failure: zero variance\n"),
        (lambda: raise_(ValueError("bad value")), 2, "config error: bad value\n"),
        (lambda: raise_(MemoryError("8 PiB")), 3, "error: out of memory: 8 PiB\n"),
    ], ids=["dead-worker", "numerical", "value", "memory"])
    def test_worker_failure_exits_with_a_code_and_leaves_no_process(self, tmp_path, capsys, monkeypatch,
                                                                    fail, rc, shown):
        monkeypatch.setitem(cli.ESTIMATORS, "cca", lambda *args: fail())
        cfg = write_config(tmp_path / "cfg.json", sweep=[200], replications=3, methods=["cca"])
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert err.startswith(shown) and err.count("\n") == 1
        assert not (out / "benchmark.csv").exists()
        assert multiprocessing.active_children() == []

    def test_a_failing_task_ends_the_queued_ones(self, tmp_path, capsys, monkeypatch):
        # the n = 1e6 tasks take about 30 s to run on two workers; the failure at n = 200 must not wait for them
        monkeypatch.setattr(cli, "_benchmark_task", task_failing_at_200)
        cfg = write_config(tmp_path / "cfg.json", sweep=[200, 1_000_000], replications=4, methods=["cca", "mrs"])
        started = time.perf_counter()
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert time.perf_counter() - started < 2.0
        assert capsys.readouterr().err == "numerical failure: injected at n = 200\n"
        assert multiprocessing.active_children() == []

    def test_single_replication_leaves_sd_empty(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", sweep=[200], replications=1, methods=["cca"])
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "benchmark.csv").read_text().splitlines()
        assert rows[1].split(",")[4] == ""

    def test_repeated_sweep_size_refused(self, tmp_path, capsys):
        # a repeated size wrote its summary row twice and repeated every (method, n, replication) key
        cfg = write_config(tmp_path / "cfg.json", sweep=[500, 200, 500], replications=4, methods=["cca"])
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sweep: sample sizes must be distinct, got 500 more than once" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists() and not (out / "benchmark_long.csv").exists()

    def test_repeated_method_refused(self, tmp_path, capsys):
        # a repeated method counted each run twice in the replications and the sd of benchmark.csv
        cfg = write_config(tmp_path / "cfg.json", sweep=[1000], replications=2, seed=3, methods=["cca", "cca"])
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        assert "methods: method names must be distinct, got 'cca' more than once" in capsys.readouterr().err
        assert not (out / "benchmark.csv").exists() and not (out / "benchmark_long.csv").exists()

    def test_empty_methods_override_refused(self, tmp_path, capsys):
        # an empty override ran the config's methods and exited 0
        cfg = write_config(tmp_path / "cfg.json", sweep=[200])
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--methods", "", "--out", str(out)]) == 2
        assert "methods: unknown method ''" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_saliency_not_sweepable(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", sweep=[100], methods=["saliency"],
                           affinity=[[1.0], [1.0]])
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestAngularError:
    @pytest.mark.parametrize("scale", [1.0, -1.0, 3e-7, -2.5e9])
    def test_scale_and_sign_invariant(self, scale):
        e, t = np.array([0.3, -1.2, 0.8]), np.array([1.0, 0.5, -0.25])
        assert angular_error(scale * e, t) == pytest.approx(angular_error(e, t), rel=1e-14)
        assert angular_error(e, scale * t) == pytest.approx(angular_error(e, t), rel=1e-14)

    def test_equal_vectors_read_zero(self):
        assert angular_error([0.6, 0.8], [0.6, 0.8]) == 0.0
        assert angular_error([-3.0, -4.0], [0.6, 0.8]) == 0.0

    def test_orthogonal_vectors_read_a_right_angle(self):
        assert angular_error([1.0, 0.0], [0.0, 2.0]) == pytest.approx(math.pi / 2, rel=1e-15)
        assert angular_error([1.0, 1.0, 0.0], [1.0, -1.0, 5.0]) == pytest.approx(math.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("angle", [1e-9, 1e-12])
    def test_resolves_angles_acos_reads_as_zero(self, angle):
        # acos(1 - 2**-53) is 1.49e-8, so acos of the cosine reads 0 for both
        assert angular_error([math.cos(angle), math.sin(angle)], [1.0, 0.0]) == pytest.approx(angle, rel=1e-6)

    def test_agrees_with_acos_where_acos_resolves(self, rng):
        for e, t in rng.standard_normal((1000, 2, 3)):
            cos = abs(e @ t) / (np.linalg.norm(e) * np.linalg.norm(t))
            assert angular_error(e, t) == pytest.approx(math.acos(min(1.0, cos)), abs=1e-12)


class TestSaliencyCommand:
    def test_rank_one_csv(self, tmp_path):
        a = np.outer([0.6, 0.8], [1.0])
        path = tmp_path / "A.csv"
        np.savetxt(path, a, delimiter=",")
        rc = main(["saliency", "--affinity", str(path), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "saliency.json").read_text())
        assert payload["rank"] == 1
        np.testing.assert_allclose(payload["alpha"], [0.6, 0.8], atol=1e-10)

    def test_requires_matrix_source(self):
        assert main(["saliency"]) == 2

    @pytest.mark.parametrize("tol, rc", [("nan", 2), ("inf", 2), ("-1", 2), ("0", 0)])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol, rc):
        path = tmp_path / "A.csv"
        np.savetxt(path, np.outer([0.6, 0.8], [1.0]), delimiter=",")
        assert main(["saliency", "--affinity", str(path), f"--tol={tol}", "--out", str(tmp_path / "o")]) == rc
        if rc == 2:
            assert "--tol" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()
        else:  # 0 asks for the exact rank
            assert json.loads((tmp_path / "o" / "saliency.json").read_text())["rank"] == 1

    def test_overflowing_affinity_is_named(self, tmp_path, capsys):
        # finite entries whose one singular value, 1.7e308 * sqrt(2), is not
        cfg = write_config(tmp_path / "cfg.json", affinity=[[1.7e308], [1.7e308]])
        rc = main(["saliency", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "affinity" in err
        assert not (tmp_path / "o" / "saliency.json").exists()

    @pytest.mark.parametrize("command, source, shown", [
        ("saliency", ["--affinity", "missing.csv"], "cannot read affinity matrix"),
        ("saliency", ["--affinity", "text.csv"], "text.csv: not a dense numeric CSV"),
        ("saliency", ["--config", "cfg.json"], "affinity: config has no inline affinity matrix"),
        ("saliency", ["--affinity", "empty.csv"], "affinity matrix has no entries"),
        ("saliency", ["--affinity", "comments.csv"], "affinity matrix has no entries"),
        ("saliency", ["--config", "one-empty-row.json"], "affinity matrix has no entries"),
        ("saliency", ["--config", "two-empty-rows.json"], "affinity matrix has no entries"),
        ("estimate", ["--config", "one-empty-row.json"], "affinity matrix has no entries"),
        ("estimate", ["--config", "cca-then-empty-row.json"], "affinity matrix has no entries"),
        ("estimate", ["--config", "cca-then-no-affinity.json"],
         "affinity: methods include 'saliency' but no affinity matrix is configured"),
        ("estimate", ["--config", "cca-then-3x3.json"],
         "affinity: shape (3, 3) does not match the market's (dx, dy) (2, 1)"),
    ], ids=["missing-csv", "text-csv", "config-without-affinity", "empty-csv", "comment-only-csv",
            "config-one-empty-row", "config-two-empty-rows", "estimate-one-empty-row",
            "estimate-cca-then-empty-row", "estimate-cca-then-no-affinity", "estimate-cca-then-3x3"])
    def test_unusable_matrix_source_is_named(self, tmp_path, capsys, command, source, shown):
        (tmp_path / "text.csv").write_text("1,a\n2,b\n")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "comments.csv").write_text("# no rows\n")
        (tmp_path / "sample.csv").write_text("x1,x2,y1\n1,0.5,0.25\n-1,2.0,0.5\n1,1.0,0.75\n")
        write_config(tmp_path / "cfg.json")
        write_config(tmp_path / "one-empty-row.json", methods=["saliency"], affinity=[[]])
        write_config(tmp_path / "two-empty-rows.json", methods=["saliency"], affinity=[[], []])
        # an earlier method must not write its report before the affinity is refused
        write_config(tmp_path / "cca-then-empty-row.json", methods=["cca", "saliency"], affinity=[[]])
        write_config(tmp_path / "cca-then-no-affinity.json", methods=["cca", "saliency"])
        write_config(tmp_path / "cca-then-3x3.json", methods=["cca", "saliency"], affinity=np.eye(3).tolist())
        sample = ["--sample", str(tmp_path / "sample.csv")] if command == "estimate" else []
        # pytest turns warnings into errors here, so numpy's empty-input warning fails the row
        rc = main([command, source[0], str(tmp_path / source[1]), *sample, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert shown in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))


class TestEntryPoint:
    @pytest.mark.parametrize("command", ["simulate", "counterexample"])
    def test_unallocatable_size_exits_3_without_a_traceback(self, tmp_path, capsys, command):
        # 1e15 draws ask for 14 PiB, beyond any address space, so the allocation fails at once
        config = ["--config", str(write_config(tmp_path / "cfg.json"))] if command == "simulate" else []
        out = tmp_path / "o"
        assert main([command, *config, "--n", str(10**15), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--gaussian"]], ids=["benchmark", "gaussian"])
    def test_unallocatable_monte_carlo_fails_before_any_quadrature(self, tmp_path, capsys, monkeypatch, flags):
        integrated = []
        monkeypatch.setattr(oracle, "quad_integrate",
                            lambda *args, real=oracle.quad_integrate, **kw: integrated.append(1) or real(*args, **kw))
        out = tmp_path / "o"
        assert main(["counterexample", *flags, "--n", str(10**15), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert integrated == [] and not out.exists()

    def test_module_invocation(self, tmp_path, fresh_python):
        cfg = write_config(tmp_path / "cfg.json", n=100)
        fresh_python("-m", "matchbench", "simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (tmp_path / "out" / "sample.csv").exists()

    def test_import_loads_no_scipy(self, fresh_python):
        # only Gaussian tails load it, so every other command starts without it
        out = fresh_python("-c", "import sys, matchbench.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_import_loads_no_multiprocessing(self, fresh_python):
        # only the benchmark command starts worker processes, so it alone imports their modules
        out = fresh_python("-c", "import sys, matchbench.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))")
        assert out.strip() == "[]"

    def test_commands_off_gaussian_tails_load_no_scipy(self, tmp_path, fresh_python):
        cfg = write_config(tmp_path / "cfg.json", affinity=[[0.6], [0.8]], sweep=[200],
                           spearman={"restarts": 2})
        sample = str(tmp_path / "sim" / "sample.csv")
        runs = [
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")],
            ["estimate", "--config", str(cfg), "--sample", sample, "--methods", "cca,ols,mrs,saliency",
             "--out", str(tmp_path / "est")],
            ["counterexample", "--n", "1000", "--tol", "1e-6", "--out", str(tmp_path / "ce")],
            ["saliency", "--config", str(cfg), "--out", str(tmp_path / "sal")],
            # the Nelder-Mead restarts of the spearman search run without scipy as well
            ["estimate", "--config", str(cfg), "--sample", sample, "--methods", "spearman",
             "--out", str(tmp_path / "spearman")],
            ["benchmark", "--config", str(cfg), "--methods", "cca,ols,spearman", "--out", str(tmp_path / "ben")],
            ["counterexample", "--gaussian", "--n", "1000", "--tol", "1e-6", "--out", str(tmp_path / "gauss")],
        ]
        script = (
            "import json, sys\n"
            "from matchbench.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    print('loaded', json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        loaded = [json.loads(line.removeprefix("loaded ")) for line in
                  fresh_python("-c", script, json.dumps(runs)).splitlines() if line.startswith("loaded ")]
        assert loaded[:6] == [[]] * 6
        # the lazy import runs: the Gaussian market's tails load scipy.special
        assert "scipy.special" in loaded[6]

    @pytest.mark.parametrize("command", [["estimate", "--sample", "x.csv"], ["benchmark"]],
                             ids=["estimate", "benchmark"])
    def test_only_simulate_takes_n(self, tmp_path, command):
        # the sample size of estimate is the sample's, and a benchmark's the sweep's
        cfg = write_config(tmp_path / "cfg.json", sweep=[100])
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(cfg), "--n", "5"])
        assert exc.value.code == 2

    def test_readme_commands_parse(self):
        readme = (Path(matchbench.__file__).parents[2] / "README.md").read_text()
        blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("matchbench ")]
        assert len(lines) >= 6
        for line in lines:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "matchbench" in capsys.readouterr().out
