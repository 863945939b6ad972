"""Command-line front end: simulate markets, run estimators, reproduce the
canonical-correlation bias benchmark, and sweep Monte Carlo bias tables.

Configs and reports are JSON, bulk tables are CSV (RFC 4180, 17
significant digits). Outputs are byte-identical across reruns of the same
config and seed; anything timing-related goes to the console only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, MatchbenchError, NumericalError
from .estimators import WORKERS, cca, compute_moments, mrs_estimate, ols_index, spearman_estimate
from .market import MarketSpec, MatchedSample, counterexample_market, real_array, simulate_market
from .oracle import closed_form, monte_carlo_counterexample, numeric_counterexample
from .saliency import rank1_weights, svd_decompose
from .distributions import gaussian


# Method name -> estimator of (sample, config, seed). Every entry looks its
# estimator up by global name when called, so a wrapper installed on this
# module's attributes (a tracer, a test double) sees the call.
ESTIMATORS = {
    "cca": lambda sample, config, seed: cca(compute_moments(sample)),
    "ols": lambda sample, config, seed: ols_index(sample),
    "spearman": lambda sample, config, seed: spearman_estimate(sample, config.restarts, seed),
    "mrs": lambda sample, config, seed: mrs_estimate(sample),
}
DATA_METHODS = tuple(ESTIMATORS)
ALL_METHODS = DATA_METHODS + ("saliency",)


def _count(key: str, value, minimum: int) -> None:
    """Raise unless ``value`` is an integer >= ``minimum`` (not a bool, float or string)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key}: must be an integer >= {minimum}, got {value!r}")


def _rank_tol(tol: float) -> None:
    """Raise unless ``tol`` is a finite number >= 0 (0 asks for the exact rank)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"--tol: must be a finite number >= 0, got {tol!r}")


def _derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: a market, sample size, seed, and requested methods.

    Every value is checked here, once, whether it comes from a JSON file or
    from a command-line override; JSON lists become tuples.
    """

    market: MarketSpec
    n: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = ("cca",)
    sweep: tuple[int, ...] = ()
    replications: int = 1
    out_dir: str | None = None
    restarts: int = 32
    affinity: np.ndarray | None = None

    def __post_init__(self):
        _count("n", self.n, 2)
        _count("seed", self.seed, 0)
        _count("replications", self.replications, 1)
        _count("spearman.restarts", self.restarts, 0)
        if not isinstance(self.methods, (list, tuple)) or not self.methods:
            raise ConfigError(f"methods: must be a non-empty list of method names, got {self.methods!r}")
        for k, m in enumerate(self.methods):
            if m not in ALL_METHODS:
                raise ConfigError(f"methods: unknown method {m!r} (choose from {ALL_METHODS})")
            if m in self.methods[:k]:
                raise ConfigError(f"methods: method names must be distinct, got {m!r} more than once")
        # only a 1x1 market (two signs) and a 2x1 market (the angular grid) have candidates without restarts
        shape = (self.market.dx, self.market.dy)
        if "spearman" in self.methods and self.restarts == 0 and shape not in ((1, 1), (2, 1)):
            raise ConfigError(f"spearman.restarts: must be >= 1 for spearman on a {shape[0]}x{shape[1]} market, "
                              "got 0 (only 1x1 and 2x1 markets search without restarts)")
        if not isinstance(self.sweep, (list, tuple)):
            raise ConfigError(f"sweep: must be a list of sample sizes, got {self.sweep!r}")
        for k, size in enumerate(self.sweep):
            _count("sweep", size, 2)
            if size in self.sweep[:k]:
                raise ConfigError(f"sweep: sample sizes must be distinct, got {size} more than once")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir: must be a string, got {self.out_dir!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "sweep", tuple(self.sweep))
        if self.affinity is not None:
            try:
                object.__setattr__(self, "affinity", real_array("affinity", self.affinity))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_json_dict(obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        allowed = {"market", "n", "seed", "methods", "sweep", "replications", "out_dir", "spearman", "affinity"}
        extra = set(obj) - allowed
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        if "market" not in obj:
            raise ConfigError("market: missing")
        try:
            market = MarketSpec.from_json(obj["market"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"market: {exc}") from exc
        spearman = obj.get("spearman", {})
        if not isinstance(spearman, dict):
            raise ConfigError("spearman: must be an object")
        for key in sorted(set(spearman) - {"restarts"}):
            raise ConfigError(f"spearman.{key}: unknown key (the block takes only restarts)")
        values = {key: obj[key] for key in allowed - {"market", "spearman"} if key in obj}
        return ExperimentConfig(market=market, **values, **spearman)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return ExperimentConfig.from_json_dict(obj)


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def angular_error(estimate, truth) -> float:
    """Angle between weight directions, invariant to scale and sign.

    2·atan2(|u - v|, |u + v|) of the unit vectors, u's sign chosen so that
    u·v >= 0: it resolves angles far below the 1.5e-8 at which acos of the
    cosine reads 0.
    """
    u = np.asarray(estimate, dtype=float)
    v = np.asarray(truth, dtype=float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    if u @ v < 0:
        u = -u
    return float(2.0 * math.atan2(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """``config`` with the --n, --seed and --methods overrides a command has, revalidated."""
    changes = {k: getattr(args, k) for k in ("n", "seed") if getattr(args, k, None) is not None}
    if getattr(args, "methods", None):
        changes["methods"] = tuple(args.methods.split(","))
    return replace(config, **changes)


def _out_dir(args, config: ExperimentConfig | None = None) -> Path:
    """The output directory, which the first file written into it creates."""
    return Path(args.out or (config.out_dir if config else None) or ".")


def _sample_summary(sample: MatchedSample, spec: MarketSpec, seed: int) -> dict:
    """Size, seed, and each index's variance and tie count, the indices
    formed one at a time so that only one is held."""
    summary = {"n": sample.n, "dx": sample.dx, "dy": sample.dy, "seed": seed}
    for side, index_of, weights in (("x", sample.x_index, spec.alpha), ("y", sample.y_index, spec.beta)):
        index = index_of(weights)
        # the variance first, in row order, since its float sum depends on the order
        summary[f"index_variance_{side}"] = float(np.var(index))
        index.sort()
        # simulate_market refuses a non-finite index, so equal neighbours are exactly np.unique's repeats
        summary[f"tie_count_{side}"] = int(np.count_nonzero(index[1:] == index[:-1]))
        del index  # freed before the next index is formed
    return summary


def cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out = _out_dir(args, config)
    sample = simulate_market(config.market, config.n, config.seed)
    sample_path = out / "sample.csv"
    out.mkdir(parents=True, exist_ok=True)
    sample.to_csv(sample_path)
    write_json(out / "summary.json", _sample_summary(sample, config.market, config.seed))
    print(f"wrote {sample_path} ({sample.n} couples) and {out / 'summary.json'}")
    return 0


def _saliency_payload(matrix, rank_tol: float) -> dict:
    """SVD summary of an affinity matrix, plus its weights when it has rank one."""
    decomp = svd_decompose(matrix, rank_tol=rank_tol)
    payload = decomp.to_json_dict()
    if decomp.numerical_rank == 1:
        alpha, beta = rank1_weights(decomp)
        payload["alpha"] = [float(a) for a in alpha]
        payload["beta"] = [float(b) for b in beta]
    return payload


def cmd_estimate(args) -> int:
    _rank_tol(args.tol)
    config = _apply_overrides(load_config(args.config), args)
    if "saliency" in config.methods:
        if config.affinity is None:
            raise ConfigError("affinity: methods include 'saliency' but no affinity matrix is configured")
        # an affinity the SVD refuses stops the command before any file is written
        saliency = {"method": "saliency", "alpha": None, "beta": None,
                    **_saliency_payload(config.affinity, args.tol)}
    sample = MatchedSample.from_csv(args.sample)
    if sample.dx != config.market.dx or sample.dy != config.market.dy:
        raise ConfigError(
            f"sample dims ({sample.dx}, {sample.dy}) do not match market "
            f"({config.market.dx}, {config.market.dy})"
        )
    out = _out_dir(args, config)
    for method in config.methods:
        started = time.perf_counter()
        if method == "saliency":
            payload = saliency
        else:
            payload = ESTIMATORS[method](sample, config, _derived_seed(config.seed, 1)).to_json_dict()
        elapsed = time.perf_counter() - started
        path = out / f"estimate_{method}.json"
        write_json(path, payload)
        # timing stays on the console so report files are reproducible
        print(f"{method}: wrote {path} in {elapsed:.3f}s")
    return 0


def _gaussian_comparison_market() -> MarketSpec:
    return MarketSpec(
        dx=2,
        dy=1,
        alpha=counterexample_market().alpha,
        beta=np.array([1.0]),
        p_components=(gaussian(1.0), gaussian(1.0)),
        q_components=(gaussian(1.0),),
    )


def cmd_counterexample(args) -> int:
    tol, n, seed = args.tol, args.n, args.seed
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol: must be a finite positive number, got {tol!r}")
    _count("--n", n, 2)
    _count("--seed", seed, 0)
    out = _out_dir(args)

    spec = _gaussian_comparison_market() if args.gaussian else counterexample_market()
    closed, terms = closed_form(spec)
    # Monte Carlo first: a --n too large to allocate fails before any quadrature runs
    mc = monte_carlo_counterexample(spec, n, seed, terms)
    quad = numeric_counterexample(spec, tol, terms)

    def within(a: float, b: float, band: float) -> bool:
        return bool(abs(a - b) <= band)

    agreement = {
        "quadrature_vs_closed": {
            "cov_x1": within(quad.cov_x1, closed.cov_x1, 10 * tol),
            "cov_x2": within(quad.cov_x2, closed.cov_x2, 10 * tol),
            "ratio_cca": within(quad.ratio_cca, closed.ratio_cca, 100 * tol),
        },
        "monte_carlo_vs_closed": {
            "cov_x1": within(mc.cov_x1, closed.cov_x1, 3 * mc.stderrs["cov_x1"]),
            "cov_x2": within(mc.cov_x2, closed.cov_x2, 3 * mc.stderrs["cov_x2"]),
            "ratio_cca": within(mc.ratio_cca, closed.ratio_cca, 3 * mc.stderrs["ratio_cca"]),
        },
    }
    flag = "CONSISTENT" if abs(closed.ratio_cca - closed.ratio_true) <= 0.05 else "INCONSISTENT"

    payload = {
        "flag": flag,
        "tol": tol,
        "n_monte_carlo": n,
        "seed": seed,
        "market": spec.to_json(),
        "closed_form": closed.to_json_dict(),
        "quadrature": quad.to_json_dict(),
        "monte_carlo": mc.to_json_dict(),
        "agreement": agreement,
    }
    write_json(out / "counterexample.json", payload)

    rows = [
        ("cov_x1", closed.cov_x1, quad.cov_x1, mc.cov_x1),
        ("cov_x2", closed.cov_x2, quad.cov_x2, mc.cov_x2),
        ("ratio_cca", closed.ratio_cca, quad.ratio_cca, mc.ratio_cca),
        ("ratio_true", closed.ratio_true, quad.ratio_true, mc.ratio_true),
    ]
    print(f"{'quantity':<12}{'closed_form':>16}{'quadrature':>16}{'monte_carlo':>16}")
    for name, c, q, m in rows:
        print(f"{name:<12}{c:>16.7f}{q:>16.7f}{m:>16.7f}")
    print(f"verdict: {flag} (cca ratio {closed.ratio_cca:.6f} vs true ratio {closed.ratio_true:.6f})")
    print(f"wrote {out / 'counterexample.json'}")
    return 0


def _benchmark_task(config: ExperimentConfig, n: int, rep: int, task_index: int) -> list[dict]:
    sim_seed = _derived_seed(config.seed, task_index, 0)
    est_seed = _derived_seed(config.seed, task_index, 1)
    sample = simulate_market(config.market, n, sim_seed)
    truth = config.market.alpha
    records = []
    for method in config.methods:
        result = ESTIMATORS[method](sample, config, est_seed)
        ratio = None
        if config.market.dx == 2 and result.alpha_hat[0] != 0:
            ratio = float(result.alpha_hat[1] / result.alpha_hat[0])
        records.append({
            "method": method,
            "n": n,
            "replication": rep,
            "angular_error": angular_error(result.alpha_hat, truth),
            "ratio": ratio,
            "objective": float(result.objective) if np.isfinite(result.objective) else None,
        })
    return records


def cmd_benchmark(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if not config.sweep:
        raise ConfigError("sweep: benchmark needs a non-empty sweep of sample sizes")
    for m in config.methods:
        if m not in DATA_METHODS:
            raise ConfigError(f"methods: {m!r} cannot run in a benchmark sweep")
    out = _out_dir(args, config)

    # processes, not threads: the rank objective's small numpy calls hold the GIL, so two threads ran
    # a 3x2 market's Nelder-Mead restarts little faster than one. fork starts a worker without importing
    # matchbench again; these imports stay here because they add 10-14 ms to every command's start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tasks = [(n, rep) for n in config.sweep for rep in range(config.replications)]
    # outputs do not depend on the worker count: every task seeds itself from its index
    pool = ProcessPoolExecutor(min(WORKERS, len(tasks)), multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_benchmark_task, config, n, rep, idx) for idx, (n, rep) in enumerate(tasks)]
        records = [row for fut in futures for row in fut.result()]
    except BaseException as exc:
        # fail fast: shutdown's cancel_futures cannot reach the tasks already on the call queue, and
        # Python < 3.14 has no public way to stop a worker, so each is ended through the pool's private
        # process table; shutdown then waits for the pool's manager thread, which reaps them
        for worker in pool._processes.values():
            worker.terminate()
        pool.shutdown(cancel_futures=True)
        if isinstance(exc, BrokenProcessPool):
            raise MatchbenchError(f"a benchmark worker process died: {exc}") from exc
        raise
    pool.shutdown()

    records.sort(key=lambda r: (r["method"], r["n"], r["replication"]))
    long_rows = [
        [r["method"], r["n"], r["replication"], r["angular_error"],
         "" if r["ratio"] is None else r["ratio"],
         "" if r["objective"] is None else r["objective"]]
        for r in records
    ]
    write_csv(out / "benchmark_long.csv", ["method", "n", "replication", "angular_error", "ratio", "objective"], long_rows)

    table_rows = []
    for method in sorted(config.methods):
        for n in sorted(config.sweep):
            errs = [r["angular_error"] for r in records if r["method"] == method and r["n"] == n]
            ratios = [r["ratio"] for r in records if r["method"] == method and r["n"] == n and r["ratio"] is not None]
            table_rows.append([
                method,
                n,
                len(errs),
                float(np.mean(errs)),
                float(np.std(errs, ddof=1)) if len(errs) > 1 else "",
                float(np.mean(ratios)) if ratios else "",
            ])
    write_csv(out / "benchmark.csv",
              ["method", "n", "replications", "mean_angular_error", "sd_angular_error", "mean_ratio"], table_rows)
    print(f"wrote {out / 'benchmark.csv'} and {out / 'benchmark_long.csv'} "
          f"({len(records)} estimator runs)")
    return 0


def cmd_saliency(args) -> int:
    _rank_tol(args.tol)
    if args.affinity:
        try:
            with warnings.catch_warnings():
                # an empty matrix is refused by name in svd_decompose
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                matrix = np.loadtxt(args.affinity, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read affinity matrix {args.affinity}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{args.affinity}: not a dense numeric CSV: {exc}") from exc
    elif args.config:
        config = load_config(args.config)
        if config.affinity is None:
            raise ConfigError("affinity: config has no inline affinity matrix")
        matrix = config.affinity
    else:
        raise ConfigError("saliency needs --affinity CSV or --config with an inline matrix")
    out = _out_dir(args)
    payload = _saliency_payload(matrix, args.tol)
    write_json(out / "saliency.json", payload)
    shares = ", ".join(f"{s:.4f}" for s in payload["shares"])
    print(f"numerical rank {payload['rank']} (tol {args.tol}); surplus shares: {shares}")
    print(f"wrote {out / 'saliency.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchbench",
        description="Simulate single-index matching markets and benchmark index-weight estimators.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override seed")
        p.add_argument("--out", help="output directory")

    p_sim = sub.add_parser("simulate", help="draw a matched sample and write it to CSV")
    add_common(p_sim)
    p_sim.add_argument("--n", type=int, help="override sample size")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run estimators on a sample CSV")
    add_common(p_est)
    p_est.add_argument("--sample", required=True, help="matched sample CSV")
    p_est.add_argument("--methods", help="comma-separated method override")
    p_est.add_argument("--tol", type=float, default=1e-8,
                       help="rank tolerance for the saliency method (default %(default)s)")
    p_est.set_defaults(func=cmd_estimate)

    p_ctr = sub.add_parser("counterexample", help="closed form vs quadrature vs Monte Carlo")
    p_ctr.add_argument("--tol", type=float, default=1e-9, help="quadrature tolerance (default %(default)s)")
    p_ctr.add_argument("--n", type=int, default=1_000_000, help="Monte Carlo draws (default %(default)s)")
    p_ctr.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default %(default)s)")
    p_ctr.add_argument("--out", help="output directory")
    p_ctr.add_argument("--gaussian", action="store_true",
                       help="run the all-Gaussian comparison market instead")
    p_ctr.set_defaults(func=cmd_counterexample)

    p_ben = sub.add_parser("benchmark", help="bias-versus-n sweep across methods")
    add_common(p_ben)
    p_ben.add_argument("--methods", help="comma-separated method override")
    p_ben.set_defaults(func=cmd_benchmark)

    p_sal = sub.add_parser("saliency", help="SVD saliency analysis of an affinity matrix")
    p_sal.add_argument("--affinity", help="dense CSV matrix")
    p_sal.add_argument("--config", help="config with an inline affinity matrix")
    p_sal.add_argument("--tol", type=float, default=1e-8, help="numerical rank tolerance (default %(default)s)")
    p_sal.add_argument("--out", help="output directory")
    p_sal.set_defaults(func=cmd_saliency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except MatchbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
