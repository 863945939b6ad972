"""The benchmark's workloads: generated inputs, timed operations and output checks.

Each workload is a fixed list of operations run in a closed loop by one
client: an operation starts when the previous one has returned. CLI
operations go through ``matchbench.cli.main(argv)`` in this process.
Checks run after the timed region and return a list of problems.

* ``sweep``: two ``matchbench benchmark`` sweeps (cca, ols, spearman). The
  rank engine, ``simulate_market`` and the benchmark thread pool do almost
  all the work. The dx=2, dy=1 market takes the angular-grid path, the
  dx=3, dy=2 market the Nelder-Mead-only path, and the sample sizes cross
  the point where the pool stops paying.
* ``oracle``: the ``counterexample`` commands and the generic-branch
  quadrature. Quadrature and the distributions' CDF/quantile calls do
  almost all the work; no rank engine and no CSV.
* ``pipeline``: ``simulate`` writes a CSV and ``estimate`` reads it back for
  cca, ols, mrs and saliency: file I/O and kernel regression instead of
  in-memory simulation and the rank engine.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import matchbench
import matchbench.cli as cli

CCA_LIMIT = (3.0 + math.exp(2.0)) / (2.0 * math.exp(2.0) - 2.0)  # ≈ 0.813
GAUSSIAN_DEFAULT_DEADLINE_S = 3.0
GENERIC_TOL = 1e-4
GENERIC_MC_DRAWS = 1_000_000
GENERIC_MC_MAX_SE = 4.0

_S2 = 1.0 / math.sqrt(2.0)
_S3 = 1.0 / math.sqrt(3.0)
BENCHMARK_MARKET = {
    "dx": 2, "dy": 1, "alpha": [_S2, _S2], "beta": [1.0],
    "p_components": [{"kind": "rademacher"}, {"kind": "exponential", "param": 1.0}],
    "q_components": [{"kind": "uniform01"}],
    "phi": "product",
}
GAUSSIAN_3X2_MARKET = {
    "dx": 3, "dy": 2, "alpha": [_S3, _S3, _S3], "beta": [_S2, _S2],
    "p_gaussian_cov": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "q_gaussian_cov": [[1.0, 0.0], [0.0, 1.0]],
    "phi": "product",
}
SWEEP_METHODS = ["cca", "ols", "spearman"]


class CommandFailed(Exception):
    pass


@dataclass
class Operation:
    """One timed step. ``run(cycle_dir)`` does the work, writes its outputs
    to ``cycle_dir / name`` and returns a value for ``check(cycle_dir, value)``."""

    name: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], list[str]]
    deadline_s: float | None = None


def derived_seed(seed: int, tag: str) -> int:
    return random.Random(f"{seed}/{tag}").randrange(2**31)


def _write_config(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def _command(name: str, argv, check, deadline_s: float | None = None) -> Operation:
    """A CLI command; ``argv`` is a list or a function of the cycle directory."""

    def run(cycle_dir: Path):
        args = argv(cycle_dir) if callable(argv) else argv
        rc = cli.main(args + ["--out", str(cycle_dir / name)])
        if rc != 0:
            raise CommandFailed(f"exit code {rc}")

    return Operation(name, run, lambda cycle_dir, _: check(cycle_dir / name), deadline_s)


def _table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sweep(out: Path, config: dict, check_largest) -> list[str]:
    rows = _table(out / "benchmark.csv")
    long_rows = _table(out / "benchmark_long.csv")
    methods, sizes, reps = config["methods"], config["sweep"], config["replications"]
    problems = []
    if len(long_rows) != len(methods) * len(sizes) * reps:
        problems.append(f"benchmark_long.csv has {len(long_rows)} rows")
    got = {(r["method"], int(r["n"])) for r in rows}
    want = {(m, n) for m in methods for n in sizes}
    if got != want or len(rows) != len(want):
        return problems + [f"benchmark.csv rows {sorted(got)} != {sorted(want)}"]
    largest = {r["method"]: r for r in rows if int(r["n"]) == max(sizes)}
    return problems + check_largest(largest)


def _nearer(value: float, target: float, other: float) -> bool:
    return abs(value - target) < abs(value - other)


def _check_2x1_ratios(largest: dict) -> list[str]:
    problems = []
    cca_ratio = float(largest["cca"]["mean_ratio"])
    spearman_ratio = float(largest["spearman"]["mean_ratio"])
    if not _nearer(cca_ratio, CCA_LIMIT, 1.0):
        problems.append(f"cca mean ratio {cca_ratio} is not nearer {CCA_LIMIT:.4f} than 1")
    if not _nearer(spearman_ratio, 1.0, CCA_LIMIT):
        problems.append(f"spearman mean ratio {spearman_ratio} is not nearer 1 than {CCA_LIMIT:.4f}")
    return problems


def _check_3x2_errors(largest: dict) -> list[str]:
    # every method is consistent on a Gaussian market
    return [
        f"{m} mean angular error {r['mean_angular_error']} rad at the largest n"
        for m, r in largest.items()
        if not float(r["mean_angular_error"]) < 0.05
    ]


def _check_counterexample(expected_flag: str):
    def check(out: Path) -> list[str]:
        report = json.loads((out / "counterexample.json").read_text())
        problems = [
            f"agreement {group}.{key} is false"
            for group, flags in report["agreement"].items()
            for key, ok in flags.items()
            if ok is not True
        ]
        if report["flag"] != expected_flag:
            problems.append(f"verdict {report['flag']}, expected {expected_flag}")
        return problems

    return check


def _population_generic(mc_seed: int) -> Operation:
    """The untested 'convolved' branch, checked against a simulated Monte Carlo."""
    spec = matchbench.MarketSpec(
        dx=2, dy=1, alpha=[0.6, 0.8], beta=[1.0],
        p_components=(matchbench.exponential(1.0), matchbench.exponential(1.0)),
        q_components=(matchbench.uniform01(),),
    )

    def run(cycle_dir: Path):
        report = matchbench.numeric_counterexample(spec, GENERIC_TOL)
        out = cycle_dir / "population_generic"
        out.mkdir()
        covariances = {"cov_x1": repr(report.cov_x1), "cov_x2": repr(report.cov_x2)}
        (out / "covariances.json").write_text(json.dumps(covariances) + "\n")
        return report

    def check(cycle_dir: Path, report) -> list[str]:
        quad = {"cov_x1": report.cov_x1, "cov_x2": report.cov_x2}
        sample = matchbench.simulate_market(spec, GENERIC_MC_DRAWS, mc_seed)
        v = sample.y_index(spec.beta)
        vc = v - v.mean()
        problems = []
        for j, key in enumerate(("cov_x1", "cov_x2")):
            prods = (sample.xs[:, j] - sample.xs[:, j].mean()) * vc
            mc, se = float(prods.mean()), float(prods.std(ddof=1) / math.sqrt(GENERIC_MC_DRAWS))
            if abs(quad[key] - mc) > GENERIC_MC_MAX_SE * se:
                problems.append(
                    f"{key}: quadrature {quad[key]} vs Monte Carlo {mc} is "
                    f"{abs(quad[key] - mc) / se:.2f} standard errors apart"
                )
        return problems

    return Operation("population_generic", run, check)


def _check_sample(spec, n: int, seed: int):
    def check(out: Path) -> list[str]:
        if not (out / "summary.json").is_file():
            return ["summary.json missing"]
        read = matchbench.MatchedSample.from_csv(out / "sample.csv")
        drawn = matchbench.simulate_market(spec, n, seed)
        if read.xs.tobytes() != drawn.xs.tobytes() or read.ys.tobytes() != drawn.ys.tobytes():
            return ["sample.csv does not read back bit for bit as the simulated sample"]
        return []

    return check


def _check_estimates(methods: list[str]):
    def check(out: Path) -> list[str]:
        problems = []
        for method in methods:
            report = json.loads((out / f"estimate_{method}.json").read_text())
            if not all(isinstance(a, float) and math.isfinite(a) for a in report["alpha"]):
                problems.append(f"{method}: non-finite alpha {report['alpha']}")
        return problems

    return check


def build(workload: str, seed: int, inputs: Path) -> list[Operation]:
    """Write the workload's input files under ``inputs`` and return its operations."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        configs = {
            "bench_2x1": ({"market": BENCHMARK_MARKET, "sweep": [1000, 10000, 100000],
                           "replications": 2, "spearman": {"restarts": 2}}, _check_2x1_ratios),
            "bench_3x2": ({"market": GAUSSIAN_3X2_MARKET, "sweep": [2000, 10000],
                           "replications": 4, "spearman": {"restarts": 4}}, _check_3x2_errors),
        }
        ops = []
        for name, (config, check_largest) in configs.items():
            config = dict(config, methods=SWEEP_METHODS, seed=derived_seed(seed, name))
            path = _write_config(inputs / f"{name}.json", config)
            ops.append(_command(name, ["benchmark", "--config", path],
                                lambda out, c=config, f=check_largest: _check_sweep(out, c, f)))
        return ops
    if workload == "oracle":
        # The README commands, at the CLI's default Monte Carlo seed.
        return [
            _command("counterexample", ["counterexample"], _check_counterexample("INCONSISTENT")),
            _command("counterexample_gaussian", ["counterexample", "--gaussian", "--tol", "1e-8"],
                     _check_counterexample("CONSISTENT")),
            _population_generic(derived_seed(seed, "population_generic")),
            _command("counterexample_gaussian_default", ["counterexample", "--gaussian"],
                     _check_counterexample("CONSISTENT"), deadline_s=GAUSSIAN_DEFAULT_DEADLINE_S),
        ]
    if workload == "pipeline":
        n, sim_seed = 100_000, derived_seed(seed, "pipeline")
        methods = ["cca", "ols", "mrs", "saliency"]
        config = {"market": BENCHMARK_MARKET, "n": n, "seed": sim_seed, "methods": methods,
                  "affinity": [[0.6], [0.8]]}
        path = _write_config(inputs / "pipeline.json", config)
        spec = matchbench.MarketSpec.from_json(BENCHMARK_MARKET)

        def estimate_argv(cycle_dir: Path):
            return ["estimate", "--config", path, "--sample", str(cycle_dir / "simulate" / "sample.csv")]

        return [
            _command("simulate", ["simulate", "--config", path], _check_sample(spec, n, sim_seed)),
            _command("estimate", estimate_argv, _check_estimates(methods)),
        ]
    raise ValueError(f"unknown workload {workload!r}")

