"""Definitions of the benchmark workloads, shared by the runner and the
reference script.

``desk`` and ``null`` are simulation studies over ``synthetic_dataset``
panels at the fixed study seeds of the acceptance suite; ``panel`` is an
LD-structured genotype text file with missing calls, generated from the
run's seed (see :func:`write_panel`).  Every size used by a run lives in
:class:`Sizes`, so the self-test can shrink all of them at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("desk", "null", "panel")
METHODS = ("bonferroni", "bh", "mbic", "mbic2")


@dataclass(frozen=True)
class Sizes:
    # desk: the ROADMAP desk study (600 x 10k, k=30, seeds 42/7)
    desk_n: int = 600
    desk_p: int = 10_000
    desk_k: int = 30
    desk_replicates: int = 1  # replicates per pass of run_study
    # null: acceptance 7 (600 x 5000, no causal SNPs, seeds 11/13)
    null_n: int = 600
    null_p: int = 5000
    null_replicates: int = 4
    # panel: LD blocks of 10 columns, 2% NA in 1000 columns, 3 causal SNPs
    panel_n: int = 600
    panel_p: int = 20_000
    panel_block: int = 10
    panel_missing_cols: int = 1000
    panel_missing_rate: float = 0.02
    panel_redraw: float = 0.10
    panel_causal: int = 3
    # independent scan p-value checks per run
    scan_check_columns: int = 64

    def panel_blocks(self) -> int:
        return -(-self.panel_p // self.panel_block)


FULL = Sizes()
TOY = Sizes(desk_n=200, desk_p=400, desk_k=6, desk_replicates=2,
            null_n=200, null_p=300, null_replicates=3,
            panel_n=120, panel_p=300, panel_missing_cols=40,
            scan_check_columns=16)

DESK_DATA_SEED, DESK_TRAIT_SEED = 42, 7
NULL_DATA_SEED, NULL_TRAIT_SEED = 11, 13
THRESHOLDS = (0.7, 0.9)
REFINEMENT_TRIGGER = 12


def desk_study(sizes: Sizes, n_replicates: int):
    """(dataset, SimulationConfig, methods) of the desk study."""
    from gwasel import SimulationConfig, effect_grid, synthetic_dataset

    ds = synthetic_dataset(sizes.desk_n, sizes.desk_p, seed=DESK_DATA_SEED)
    k = sizes.desk_k
    causal = tuple(np.linspace(0, sizes.desk_p - 1, k).astype(int).tolist())
    sim = SimulationConfig(causal, tuple(effect_grid(k)), sigma=1.0,
                           n_replicates=n_replicates, seed=DESK_TRAIT_SEED,
                           tp_thresholds=THRESHOLDS)
    return ds, sim, _methods(METHODS, sizes.desk_n, sizes.desk_p)


def null_study(sizes: Sizes, n_replicates: int):
    """(dataset, SimulationConfig, methods) of the null-calibration study."""
    from gwasel import SimulationConfig, synthetic_dataset

    ds = synthetic_dataset(sizes.null_n, sizes.null_p, seed=NULL_DATA_SEED)
    sim = SimulationConfig((), (), sigma=1.0, n_replicates=n_replicates,
                           seed=NULL_TRAIT_SEED, tp_thresholds=THRESHOLDS)
    return ds, sim, _methods(("mbic",), sizes.null_n, sizes.null_p)


def _methods(kinds, n: int, p: int):
    from gwasel import CriterionConfig, MethodSpec, SearchConfig

    out = []
    for kind in kinds:
        if kind in ("bonferroni", "bh"):
            out.append(MethodSpec(kind))
        else:
            crit = CriterionConfig(kind, n=n, p_effective=p)
            cfg = SearchConfig(criterion=crit, refinement_trigger=REFINEMENT_TRIGGER)
            out.append(MethodSpec(kind, search=cfg))
    return out


def fingerprint(detections: dict) -> str:
    return hashlib.sha256(json.dumps(detections, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# panel inputs
# ---------------------------------------------------------------------------


def panel_truth(sizes: Sizes, seed: int):
    """Complete codes, missing mask, causal columns and trait of one panel.

    Each block of ``panel_block`` columns copies its leader column and
    redraws ``panel_redraw`` of the calls from the leader's Hardy-Weinberg
    distribution, so block members correlate with their leader near 0.9
    and greedy leader clustering at |R| > 0.7 finds one cluster per block.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 0xBE7C])))
    n, p, b = sizes.panel_n, sizes.panel_p, sizes.panel_block
    blocks = sizes.panel_blocks()
    block_of = np.arange(p) // b
    maf = rng.uniform(0.3, 0.5, size=blocks)[block_of]
    p_low = (1.0 - maf) ** 2
    p_mid = p_low + 2.0 * maf * (1.0 - maf)
    u = rng.random(size=(n, p))
    fresh = np.where(u < p_low, -1, np.where(u < p_mid, 0, 1)).astype(np.int8)
    del u
    values = fresh[:, np.arange(0, p, b)][:, block_of]  # every column copies its leader
    redraw = rng.random(size=(n, p)) < sizes.panel_redraw
    redraw[:, ::b] = False
    values = np.where(redraw, fresh, values).astype(np.int8)
    del fresh, redraw

    missing_cols = np.sort(rng.choice(p, size=sizes.panel_missing_cols, replace=False))
    mask = np.zeros((n, p), dtype=bool)
    mask[:, missing_cols] = rng.random(size=(n, missing_cols.size)) < sizes.panel_missing_rate
    # a column must keep observed calls, or imputation has nothing to learn from
    empty = mask.all(axis=0)
    mask[0, empty] = False

    complete_cols = np.setdiff1d(np.arange(p), missing_cols)
    causal = np.sort(rng.choice(complete_cols, size=sizes.panel_causal, replace=False))
    effects = np.linspace(0.3, 0.5, sizes.panel_causal)
    trait = values[:, causal].astype(np.float64) @ effects + rng.normal(0.0, 1.0, size=n)
    return values, mask, causal, trait


def write_panel(sizes: Sizes, seed: int, genotype_path: Path, trait_path: Path) -> dict:
    """Write the panel as text files; returns a description of it."""
    values, mask, causal, trait = panel_truth(sizes, seed)
    tokens = np.array(["-1", "0", "1", "NA"])
    codes = np.where(mask, 3, values + 1)
    lines = [" ".join(f"rs{j}" for j in range(values.shape[1]))]
    lines.extend(" ".join(row) for row in tokens[codes])
    genotype_path.parent.mkdir(parents=True, exist_ok=True)
    genotype_path.write_text("\n".join(lines) + "\n")
    trait_path.write_text("".join(f"{v!r}\n" for v in trait.tolist()))
    return {"seed": int(seed), "shape": list(values.shape), "missing_cells": int(mask.sum()),
            "causal": causal.tolist(), "blocks": sizes.panel_blocks()}


def parse_codes(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Header ids, int8 codes and missing mask of a genotype text file.

    Independent of gwasel's parser: tokens are mapped byte-wise, which
    needs only a few bytes per call of memory.
    """
    raw = Path(path).read_bytes()
    head, _, body = raw.partition(b"\n")
    ids = head.decode().split()
    body = body.replace(b"NA", b"3").replace(b"-1", b"2")
    arr = np.frombuffer(body, dtype=np.uint8)
    digits = arr[(arr >= 48) & (arr <= 51)] - 48
    n_rows = body.count(b"\n") if body.endswith(b"\n") else body.count(b"\n") + 1
    digits = digits.reshape(n_rows, len(ids))
    mask = digits == 3
    codes = np.select([digits == 2, digits == 1], [-1, 1], 0).astype(np.int8)
    return ids, codes, mask


def matrix_digest(codes: np.ndarray) -> str:
    c = np.ascontiguousarray(codes, dtype=np.int8)
    return hashlib.sha256(f"{c.shape}".encode() + c.tobytes()).hexdigest()
