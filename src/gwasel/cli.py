"""Command-line front end: scan, select, simulate, impute, cluster.

Every subcommand runs through one skeleton in :func:`main`.  The flags of
``_INPUT_FLAGS`` name input files; each of them that a subcommand has must
be an existing file (exit 2 otherwise).  A ``cmd_*`` function only
computes: it returns its outputs as file name -> content, either text or
an iterable of ``bytes`` chunks (the imputed panel, rendered a block of
rows at a time), and the input files its configuration names beyond its
flags (a study's genotype panel and sidecar).  ``main`` then writes the
outputs all or nothing: each streams into a temp file beside it, and the
temp files are renamed only once every output is complete; on any error
every temp file is removed.  A manifest follows, recording the tool,
numpy and scipy versions, the BLAS thread settings, the resolved flags,
the SHA-256 of every input file, the seed, the wall seconds and the peak
RSS.  Usage and input-schema problems exit 2; runtime failures, an output
path that cannot be written included, exit 1.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import math
import os
import resource
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np
import scipy

import gwasel
from gwasel.cluster import cluster_snps
from gwasel.criteria import DEFAULT_D, CriterionConfig
from gwasel.errors import DimensionError, GwaselError, ParseError, TraitScaleError
from gwasel.genotype import Dataset, impute_missing, load_dataset
from gwasel.mtest import benjamini_hochberg, bonferroni, scan_to_tsv, single_marker_scan
from gwasel.search import SearchConfig, select_model
from gwasel.simulate import (
    METHOD_KINDS,
    MethodSpec,
    SimulationConfig,
    effect_grid,
    overall_heritability,
    run_study,
    synthetic_dataset,
)


Content = str | Iterable[bytes]


def _write_outputs(files: dict[Path, Content]) -> None:
    """Write every file or none: each streams into a temp file beside it,
    and the temp files are renamed only once all of them are complete.  On
    any error the temp files, and the files already renamed, are removed."""
    temps: dict[Path, str] = {}
    renamed: list[Path] = []
    try:
        for path, content in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temps[path] = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            with os.fdopen(fd, "wb") as fh:
                fh.writelines([content.encode()] if isinstance(content, str) else content)
        for path, tmp in temps.items():
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for path in renamed:
            path.unlink(missing_ok=True)
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _write_atomic(path: Path, content: Content) -> None:
    _write_outputs({path: content})


def _digest(path: str | None) -> str | None:
    if path is None:
        return None
    with open(path, "rb") as f:  # streamed: the panel text need not fit in memory twice
        return hashlib.file_digest(f, "sha256").hexdigest()


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_INPUT_FLAGS = ("genotypes", "trait", "covariates", "meta", "config", "refine_extras")


def _peak_rss_mb() -> float:
    """This process's peak resident set in MB: ``VmHWM``, which exec resets,
    where ``/proc`` has it; else ``ru_maxrss``, which on Linux a command
    inherits from the process that started it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _manifest(args: argparse.Namespace, inputs: dict[str, str | None], start: float) -> str:
    payload = {
        "tool": "gwasel",
        "version": gwasel.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {k: _digest(v) for k, v in inputs.items()},
        "seed": getattr(args, "seed", None),
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": _peak_rss_mb(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return json.dumps(payload, indent=2, default=str)


def _load(args) -> Dataset:
    return load_dataset(
        args.genotypes,
        trait_path=getattr(args, "trait", None),
        covariate_path=getattr(args, "covariates", None),
        meta_path=getattr(args, "meta", None),
    )


def cmd_scan(args, parser):
    dataset = _load(args)
    scan = single_marker_scan(dataset)
    p_eff = args.p_effective or dataset.n_snps
    ids = dataset.snp_ids
    rejections = {
        "alpha": args.alpha,
        "p_effective": p_eff,
        "bonferroni": [ids[j] for j in bonferroni(scan, args.alpha, p_eff)],
        "benjamini_hochberg": [ids[j] for j in benjamini_hochberg(scan, args.alpha)],
    }
    return {"scan.tsv": scan_to_tsv(scan, ids),
            "rejections.json": json.dumps(rejections, indent=2)}, {}


def cmd_select(args, parser):
    dataset = _load(args)
    ids = dataset.snp_ids
    crit = CriterionConfig(
        args.criterion,
        n=dataset.n_individuals,
        p_effective=args.p_effective or dataset.n_snps,
        d=args.d,
        kappa=args.kappa,
    )
    config = SearchConfig(
        criterion=crit,
        screen_threshold=args.screen,
        max_forward_size=args.max_forward,
    )
    extras: list[int] = []
    if args.refine_extras:
        id_to_idx = {s: i for i, s in enumerate(ids)}
        for token in Path(args.refine_extras).read_text().split():
            if token in id_to_idx:
                extras.append(id_to_idx[token])
            elif token.isascii() and token.isdigit() and int(token) < dataset.n_snps:
                extras.append(int(token))
            else:
                raise GwaselError(f"unknown SNP in --refine-extras: {token}")
    model, result, trace = select_model(dataset, config, extra_candidates=extras)
    selection = {
        "criterion": args.criterion,
        "selected": [ids[j] for j in model.snp_indices],
        "selected_indices": list(model.snp_indices),
        "rss": result.rss,
        "mss": result.mss,
        "f_statistic": result.f_statistic,
        "p_value": result.p_value,
        "intercept": result.intercept,
        "coefficients": {ids[j]: float(b)
                         for j, b in zip(model.snp_indices, result.snp_coefficients)},
        "search_stats": trace.stats,
    }
    return {"selection.json": json.dumps(selection, indent=2),
            "trace.jsonl": trace.to_jsonl(ids)}, {}


def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


def _is_file(value) -> bool:
    return isinstance(value, str) and Path(value).is_file()


def _config_value(parser, table: dict, key: str, default, check, expected: str,
                  section: str = "simulation config"):
    """``table[key]`` (or ``default``) when ``check`` accepts it, else exit 2 naming the key."""
    value = table.get(key, default)
    if not check(value):
        parser.error(f"{section} key {key!r} must be {expected}, got {value!r}")
    return value


def _study_from_config(cfg: dict, args, parser) -> tuple[Dataset, SimulationConfig, dict]:
    """The study's dataset and design, and the files it was loaded from."""
    panel = {}
    if "genotypes" in cfg:
        path = _config_value(parser, cfg, "genotypes", None, _is_file, "an existing file")
        meta = _config_value(parser, cfg, "meta", None, lambda v: v is None or _is_file(v),
                             "an existing file")
        dataset = load_dataset(path, meta_path=meta)
        panel = {"genotypes": path, "meta": meta}
    elif "synthetic" in cfg:
        syn = _config_value(parser, cfg, "synthetic", None, lambda v: isinstance(v, dict),
                            "an object with keys 'n' and 'p'")
        section = "simulation config 'synthetic'"
        n, p = (_config_value(parser, syn, key, None, lambda v: _is_int(v) and v >= 1,
                              "a positive integer", section) for key in ("n", "p"))
        maf_range = _config_value(parser, syn, "maf_range", [0.3, 0.5], _is_pair,
                                  "two numbers", section)
        seed = _config_value(parser, cfg, "seed", args.seed, lambda v: _is_int(v) and v >= 0,
                             "a non-negative integer")
        dataset = synthetic_dataset(n, p, maf_range=tuple(maf_range), seed=seed)
    else:
        parser.error("simulation config needs either 'genotypes' or 'synthetic'")
    p = dataset.n_snps
    if "causal_indices" in cfg:
        causal = _config_value(
            parser, cfg, "causal_indices", None,
            lambda v: isinstance(v, list) and all(_is_int(j) and 0 <= j < p for j in v),
            f"a list of indices in [0, {p})")
    elif "k" in cfg:
        k = _config_value(parser, cfg, "k", None, lambda v: _is_int(v) and 0 <= v <= p,
                          f"an integer in [0, {p}]")
        causal = list(np.linspace(0, p - 1, k).astype(int)) if k else []
    else:
        parser.error("simulation config needs 'causal_indices' or 'k'")
    if "effects" in cfg:
        effects = _config_value(
            parser, cfg, "effects", None,
            lambda v: isinstance(v, list) and len(v) == len(causal) and all(map(_is_number, v)),
            f"a list of {len(causal)} numbers")
    else:
        lo, hi = _config_value(parser, cfg, "effect_range", [0.27, 0.66], _is_pair,
                               "two numbers")
        effects = list(effect_grid(len(causal), lo, hi)) if causal else []
    sim = SimulationConfig(
        causal_indices=tuple(causal),
        effects=tuple(float(b) for b in effects),
        sigma=float(_config_value(parser, cfg, "sigma", 1.0, _is_number, "a number")),
        n_replicates=args.replicates,
        seed=args.seed,
        tp_thresholds=args.thresholds,
    )
    return dataset, sim, panel


def cmd_simulate(args, parser):
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        parser.error(f"simulation config must be a JSON object, got {cfg!r}")
    alpha = float(_config_value(parser, cfg, "alpha", 0.05, _is_number, "a number"))
    d = float(_config_value(parser, cfg, "d", DEFAULT_D, _is_number, "a number"))
    p_eff = _config_value(parser, cfg, "p_effective", None,
                          lambda v: v is None or (_is_int(v) and v >= 1),
                          "a positive integer or null")
    dataset, sim, panel = _study_from_config(cfg, args, parser)
    methods = [MethodSpec(kind=kind, alpha=alpha, d=d, p_effective=p_eff) for kind in args.methods]
    report = run_study(dataset, sim, methods)
    ids = dataset.snp_ids
    outputs = {"report.json": report.to_json(ids)}
    for spec in methods:
        for thr in sim.tp_thresholds:
            outputs[f"fp_{spec.kind}_{thr}.tsv"] = report.fp_table(spec.kind, thr, ids)
    summary = {
        "heritability": overall_heritability(dataset, sim),
        "mean_power": {m.kind: {str(t): report.mean_power(m.kind, t)
                                for t in sim.tp_thresholds} for m in methods},
        "mean_fdr": {m.kind: {str(t): report.mean_fdr(m.kind, t)
                              for t in sim.tp_thresholds} for m in methods},
    }
    outputs["summary.json"] = json.dumps(summary, indent=2)
    return outputs, panel


_ROWS_CHUNK = 1 << 20  # bytes of codes and separators per chunk of _genotype_rows


def _genotype_rows(values: np.ndarray) -> Iterator[bytes]:
    """Tab-separated rows of -1/0/1 codes, each ended by a newline, in
    chunks of whole rows of about ``_ROWS_CHUNK`` bytes (at least one row)."""
    n, p = values.shape
    rows = min(n, max(1, _ROWS_CHUNK // (2 * p)))
    cells = np.empty((rows, p, 2), dtype=np.uint8)  # a code byte, then its separator
    cells[:, :, 1] = ord("\t")
    cells[:, -1, 1] = ord("\n")
    for start in range(0, n, rows):
        block = cells[: min(rows, n - start)]
        block[:, :, 0] = values[start : start + rows] + ord("0")  # -1 lands on "/"
        yield block.tobytes().replace(b"/", b"-1")


def cmd_impute(args, parser):
    dataset = _load(args)
    completed = impute_missing(dataset, window=args.window, n_predictors=args.predictors)
    header = ("\t".join(dataset.snp_ids) + "\n").encode()
    rows = _genotype_rows(completed.genotypes.values)
    return {Path(args.out).name: itertools.chain([header], rows)}, {}


def cmd_cluster(args, parser):
    dataset = _load(args)
    assignment = cluster_snps(dataset, c_threshold=args.threshold, window=args.window)
    summary = {
        "n_snps": dataset.n_snps,
        "effective_count": assignment.effective_count,
        "threshold": args.threshold,
        "window": args.window,
    }
    return {"clusters.tsv": assignment.to_tsv(dataset.snp_ids),
            "summary.json": json.dumps(summary, indent=2)}, {}


# argparse turns an ArgumentTypeError into a usage error (exit 2) naming the flag
def _integer(low: int, expected: str):
    """argparse type of an integer no lower than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


_positive_int = _integer(1, "a positive integer")
_non_negative_int = _integer(0, "a non-negative integer")


def _method_kinds(text: str) -> list[str]:
    kinds = [name.strip() for name in text.split(",") if name.strip()]
    for i, kind in enumerate(kinds):
        if kind not in METHOD_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown method {kind!r}, expected one of {', '.join(METHOD_KINDS)}")
        if kind in kinds[:i]:
            raise argparse.ArgumentTypeError(f"method {kind!r} named twice")
    return kinds


def _number(expected: str, check):
    """argparse type of a float that ``check`` accepts (NaN never is)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isnan(value) or not check(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {expected}")
        return value

    return parse


_unit_threshold = _number("a number in (0, 1]", lambda v: 0.0 < v <= 1.0)
_finite = _number("a finite number", math.isfinite)
_unit_interval = _number("a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_open_unit = _number("a number in (0, 1)", lambda v: 0.0 < v < 1.0)


def _thresholds(text: str) -> tuple[float, ...]:
    values = []
    for token in text.split(","):
        value = _unit_threshold(token)
        if value in values:
            raise argparse.ArgumentTypeError(f"threshold {token!r} named twice")
        values.append(value)
    return tuple(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwasel",
        description="Marker scans, sparse model selection and power studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    panel = argparse.ArgumentParser(add_help=False)
    panel.add_argument("--genotypes", required=True)
    panel.add_argument("--meta")
    trait = argparse.ArgumentParser(add_help=False)
    trait.add_argument("--trait", required=True)
    trait.add_argument("--covariates")
    trait.add_argument("--p-effective", type=_positive_int, default=None, dest="p_effective")

    scan = sub.add_parser("scan", parents=[panel, trait],
                          help="single-marker scan with Bonferroni/BH reports")
    scan.add_argument("--alpha", type=_open_unit, default=0.05)
    scan.add_argument("--out", required=True)
    scan.set_defaults(func=cmd_scan)

    select = sub.add_parser("select", parents=[panel, trait],
                            help="full model-selection pipeline")
    select.add_argument("--criterion", choices=("bic", "mbic", "mbic2", "ebic"),
                        default="mbic2")
    select.add_argument("--d", type=_finite, default=DEFAULT_D)
    select.add_argument("--kappa", type=_unit_interval, default=0.0)
    select.add_argument("--screen", type=_unit_threshold, default=0.15)
    select.add_argument("--max-forward", type=_positive_int, default=140, dest="max_forward")
    select.add_argument("--refine-extras", dest="refine_extras")
    select.add_argument("--out", required=True)
    select.set_defaults(func=cmd_select)

    simulate = sub.add_parser("simulate", help="power/FDR study over simulated traits")
    simulate.add_argument("--config", required=True, help="study definition JSON")
    simulate.add_argument("--replicates", type=_positive_int, default=100)
    simulate.add_argument("--seed", type=_non_negative_int, default=0)
    simulate.add_argument("--methods", type=_method_kinds, default="bonferroni,bh,mbic,mbic2")
    simulate.add_argument("--thresholds", type=_thresholds, default="0.7,0.9")
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(func=cmd_simulate)

    impute = sub.add_parser("impute", parents=[panel], help="fill missing genotypes")
    impute.add_argument("--window", type=_positive_int, default=500)
    impute.add_argument("--predictors", type=_positive_int, default=4)
    impute.add_argument("--out", required=True, help="completed genotype file")
    impute.set_defaults(func=cmd_impute)

    cluster = sub.add_parser("cluster", parents=[panel],
                             help="effective-marker clustering report")
    cluster.add_argument("--threshold", type=_unit_threshold, default=0.7)
    cluster.add_argument("--window", type=_positive_int, default=1000)
    cluster.add_argument("--out", required=True)
    cluster.set_defaults(func=cmd_cluster)

    return parser


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = {flag: getattr(args, flag) for flag in _INPUT_FLAGS if hasattr(args, flag)}
    for path in inputs.values():
        if path is not None and not Path(path).is_file():
            parser.error(f"input file not found: {path}")
    try:
        outputs, named = args.func(args, parser)
        inputs.update(named)
        out, manifest = Path(args.out), "manifest.json"
        if args.command == "impute":  # --out names the completed file, not a directory
            out, manifest = out.parent, f"{out.name}.manifest.json"
        _write_outputs({out / name: content for name, content in outputs.items()})
        _write_atomic(out / manifest, _manifest(args, inputs, start))
    except (ParseError, DimensionError, json.JSONDecodeError) as exc:
        # input files that exist but violate their schema are usage errors
        print(f"gwasel: error: {exc}", file=sys.stderr)
        return 2
    except TraitScaleError as exc:
        # the library does not know which file the trait came from
        print(f"gwasel: error: {getattr(args, 'trait', None) or 'simulated trait'}: {exc}",
              file=sys.stderr)
        return 1
    except (GwaselError, ValueError, OSError) as exc:
        print(f"gwasel: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
