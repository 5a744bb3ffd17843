import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from gwasel import cli
from gwasel.cli import main
from gwasel.genotype import impute_missing, load_dataset
from gwasel.mtest import scan_to_tsv, single_marker_scan
from gwasel.simulate import SimulationConfig, simulate_trait, synthetic_dataset

from oracles import genotype_rows_one_string


def write_fixture(tmp_path, n=50, p=20, causal=(), effects=(), seed=5, trait_seed=6):
    ds = synthetic_dataset(n, p, seed=seed)
    sim = SimulationConfig(tuple(causal), tuple(effects), sigma=1.0, seed=trait_seed)
    y = simulate_trait(ds, sim, 0)
    g = tmp_path / "geno.txt"
    rows = ["\t".join(str(int(v)) for v in row) for row in ds.genotypes.values]
    g.write_text("\n".join(rows) + "\n")
    t = tmp_path / "trait.txt"
    t.write_text("\n".join(f"{v:.12g}" for v in y) + "\n")
    return g, t


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_scan_reproduces_library_tsv_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    g, t = write_fixture(tmp_path, causal=(3,), effects=(1.0,))
    out = tmp_path / "out"
    code = main(["scan", "--genotypes", str(g), "--trait", str(t), "--out", str(out)])
    assert code == 0
    ds = load_dataset(g, trait_path=t)
    expected = scan_to_tsv(single_marker_scan(ds), ds.snp_ids)
    assert (out / "scan.tsv").read_text() == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "scan"
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                        "MKL_NUM_THREADS": "2"}
    assert "backend" not in manifest


def test_select_finds_planted_snp(tmp_path):
    g, t = write_fixture(tmp_path, n=200, p=30, causal=(11,), effects=(1.5,))
    out = tmp_path / "sel"
    code = main([
        "select", "--genotypes", str(g), "--trait", str(t),
        "--criterion", "mbic2", "--out", str(out),
    ])
    assert code == 0
    selection = json.loads((out / "selection.json").read_text())
    assert selection["selected_indices"] == [11]
    stats = selection["search_stats"]
    assert set(stats) == {"subsets_scored", "subsets_skipped_by_bound", "refine_fallbacks"}
    # one SNP is under the refinement trigger: no fallback, and the one walk
    # reaches the 2 subsets of the one SNP, scored or ruled out by the bound
    assert stats["subsets_scored"] > 0
    assert stats["subsets_scored"] + stats["subsets_skipped_by_bound"] == 2
    assert stats["refine_fallbacks"] == 0
    trace_lines = (out / "trace.jsonl").read_text().strip().splitlines()
    assert all("stage" in json.loads(line) for line in trace_lines)


def strict_json(text):
    """json.loads that refuses NaN and the infinities, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_select_writes_strict_json_on_a_perfect_fit(tmp_path):
    g, _ = write_fixture(tmp_path, n=30, p=8)
    x1 = load_dataset(g).columns(1)
    t = tmp_path / "perfect.txt"
    t.write_text("\n".join(f"{v:.12g}" for v in x1 + 0.5) + "\n")
    out = tmp_path / "sel"
    code = main(["select", "--genotypes", str(g), "--trait", str(t), "--criterion", "mbic",
                 "--out", str(out)])
    assert code == 0
    selection = strict_json((out / "selection.json").read_text())
    assert selection["selected_indices"] == [1]
    assert selection["f_statistic"] is None  # infinite, written as null
    assert selection["p_value"] == 0.0
    for line in (out / "trace.jsonl").read_text().splitlines():
        strict_json(line)
    strict_json((out / "manifest.json").read_text())


def test_rerun_identical_outputs(tmp_path):
    g, t = write_fixture(tmp_path, causal=(2,), effects=(1.2,))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["scan", "--genotypes", str(g), "--trait", str(t),
                     "--out", str(out)]) == 0
    assert sha(out1 / "scan.tsv") == sha(out2 / "scan.tsv")
    assert sha(out1 / "rejections.json") == sha(out2 / "rejections.json")


def test_inputs_never_mutated(tmp_path):
    g, t = write_fixture(tmp_path)
    before = (sha(g), sha(t))
    main(["scan", "--genotypes", str(g), "--trait", str(t), "--out", str(tmp_path / "o")])
    assert (sha(g), sha(t)) == before


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--bogus", "x"])
    assert err.value.code == 2


def test_missing_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--genotypes", str(tmp_path / "absent.txt"),
              "--trait", str(tmp_path / "absent2.txt"), "--out", str(tmp_path / "o")])
    assert err.value.code == 2


def test_malformed_genotypes_exit_2(tmp_path):
    g = tmp_path / "bad.txt"
    g.write_text("-1 0\n1\n")
    t = tmp_path / "t.txt"
    t.write_text("1\n2\n")
    code = main(["scan", "--genotypes", str(g), "--trait", str(t),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_non_finite_trait_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(3)
    g = tmp_path / "g.txt"
    g.write_text("\n".join(" ".join(map(str, row)) for row in rng.integers(-1, 2, (30, 8))) + "\n")
    y = [f"{v:.6f}" for v in rng.normal(size=30)]
    for token, command in (("nan", "scan"), ("inf", "select")):
        t = tmp_path / f"{token}.txt"
        t.write_text("\n".join([token] + y[1:]) + "\n")
        out = tmp_path / token
        code = main([command, "--genotypes", str(g), "--trait", str(t), "--out", str(out)])
        assert code == 2
        assert f"{t}: row 1 has a non-finite trait value" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "select"])
def test_trait_whose_sum_of_squares_overflows_exits_1(tmp_path, capsys, command):
    # at 1e200 the scan gave F = inf and p = 0 for every SNP, and select
    # ended in numpy's "argmin of an empty sequence"
    ds = synthetic_dataset(30, 8, seed=1)
    g = tmp_path / "geno.txt"
    g.write_text("".join("\t".join(map(str, row)) + "\n" for row in ds.genotypes.values))
    y = ds.genotypes.values[:, 1] + np.random.default_rng(2).normal(size=30)
    for scale in (1.0, 1e200):
        t = tmp_path / f"trait_{scale:g}.txt"
        t.write_text("".join(f"{float(v)!r}\n" for v in scale * y))
        out = tmp_path / f"out_{scale:g}"
        code = main([command, "--genotypes", str(g), "--trait", str(t), "--out", str(out)])
        err = capsys.readouterr().err
        if scale == 1.0:
            assert code == 0 and err == ""
            continue
        assert code == 1
        assert err.startswith(f"gwasel: error: {t}: ") and "not finite" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "select"])
def test_trait_whose_squares_underflow_exits_1(tmp_path, capsys, command):
    # at 2**-600, 1e-200 and 2**-1000 the scan gave F = 0 and p = 1 for every
    # SNP, and select an empty model, both with exit 0; at 2**+-400 the
    # outputs are those of the unit-scale trait
    ds = synthetic_dataset(30, 8, seed=1)
    g = tmp_path / "geno.txt"
    g.write_text("".join("\t".join(map(str, row)) + "\n" for row in ds.genotypes.values))
    y = ds.genotypes.values[:, 1] + np.random.default_rng(2).normal(size=30)
    outputs = {}
    for scale in (1.0, 2.0**400, 2.0**-400, 2.0**-600, 1e-200, 2.0**-1000):
        t = tmp_path / f"trait_{scale:g}.txt"
        t.write_text("".join(f"{float(v)!r}\n" for v in scale * y))
        out = tmp_path / f"out_{scale:g}"
        code = main([command, "--genotypes", str(g), "--trait", str(t), "--out", str(out)])
        err = capsys.readouterr().err
        if scale >= 2.0**-400:
            assert code == 0 and err == ""
            outputs[scale] = ((out / "scan.tsv").read_text() if command == "scan" else
                              json.loads((out / "selection.json").read_text())["selected"])
            continue
        assert code == 1
        assert err.startswith(f"gwasel: error: {t}: ") and "squares may underflow" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()
    assert outputs[2.0**400] == outputs[2.0**-400] == outputs[1.0]
    if command == "select":
        assert outputs[1.0] == ["snp1"]


def write_named_fixture(tmp_path, ids, n=40, seed=5):
    """A genotype file with a header of ``ids`` and a trait file."""
    g, t = write_fixture(tmp_path, n=n, p=len(ids), seed=seed)
    g.write_text(" ".join(ids) + "\n" + g.read_text())
    return g, t


@pytest.mark.parametrize("header, sidecar, message", [
    ("rsA rsA rsB rsC", None, "{g}: SNP id 'rsA' appears more than once"),
    ("rsA rsB rsC rsD", "rsA 1 10\nrsB 1 20\nrsA 1 30\nrsD 1 40\n",
     "{m}: SNP id 'rsA' appears more than once"),
    ("rsA rsB rsC rsD", "rsA 1 10\nb 1 -5\nrsC 1 30\nrsD 1 40\n",
     "{m}: row 2 has a negative position"),
])
def test_bad_snp_ids_exit_2(tmp_path, capsys, header, sidecar, message):
    g, t = write_named_fixture(tmp_path, header.split())
    m = tmp_path / "meta.txt"
    flags = []
    if sidecar is not None:
        m.write_text(sidecar)
        flags = ["--meta", str(m)]
    out = tmp_path / "sel"
    code = main(["select", "--genotypes", str(g), "--trait", str(t), "--criterion", "bic",
                 "--out", str(out)] + flags)
    assert code == 2
    assert message.format(g=g, m=m) in capsys.readouterr().err
    assert not out.exists()


def test_refine_extras_resolve_ids_and_indices(tmp_path, capsys, monkeypatch):
    g, t = write_named_fixture(tmp_path, [f"rs{j}" for j in range(12)], n=80)
    seen = []
    real_select = cli.select_model

    def recording_select(dataset, config, extra_candidates=()):
        seen.append(list(extra_candidates))
        return real_select(dataset, config, extra_candidates=extra_candidates)

    monkeypatch.setattr(cli, "select_model", recording_select)
    extras = tmp_path / "extras.txt"
    extras.write_text("rs7 3\n")
    argv = ["select", "--genotypes", str(g), "--trait", str(t),
            "--refine-extras", str(extras), "--out", str(tmp_path / "sel")]
    assert main(argv) == 0
    assert seen == [[7, 3]]
    for token in ("²", "12", "rs99"):
        extras.write_text(f"rs7 {token}\n")
        assert main(argv) == 1
        assert f"unknown SNP in --refine-extras: {token}" in capsys.readouterr().err
    assert len(seen) == 1  # an unknown token stops the run before the search


def test_runtime_error_exits_1(tmp_path):
    # a trait file with a non-finite computation path: all-missing column
    g = tmp_path / "g.txt"
    g.write_text("NA 0\nNA 1\nNA 0\n")
    code = main(["impute", "--genotypes", str(g), "--out", str(tmp_path / "imp.txt")])
    assert code == 1


def test_impute_writes_complete_file(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1 0\n0 1 1\n0 NA 1\n1 0 0\n")
    out = tmp_path / "imputed.txt"
    assert main(["impute", "--genotypes", str(g), "--window", "2",
                 "--predictors", "2", "--out", str(out)]) == 0
    completed = load_dataset(out)
    assert completed.genotypes.complete
    assert Path(str(out) + ".manifest.json").exists()


def test_impute_output_matches_str_encoding_byte_for_byte(tmp_path):
    rng = np.random.default_rng(12)
    tokens = rng.choice(np.array(["-1", "0", "1", "NA"]), size=(30, 12), p=[0.3, 0.3, 0.3, 0.1])
    tokens[:, 0] = "1"
    g = tmp_path / "g.txt"
    g.write_text("\n".join("\t".join(row) for row in tokens) + "\n")
    out = tmp_path / "imputed.txt"
    assert main(["impute", "--genotypes", str(g), "--window", "3", "--out", str(out)]) == 0
    completed = impute_missing(load_dataset(g), window=3)
    ids = completed.snp_ids
    lines = ["\t".join(ids)]
    lines += ["\t".join(str(int(v)) for v in row) for row in completed.genotypes.values]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


HALF_CHUNK = cli._ROWS_CHUNK // 2  # the width whose row of codes and separators fills a chunk


@pytest.mark.parametrize("p", [1, 2, HALF_CHUNK // 2 - 1, HALF_CHUNK - 1, HALF_CHUNK,
                               HALF_CHUNK + 1])
def test_genotype_rows_chunks_join_to_one_string(p):
    n = 5
    values = np.random.default_rng(p).integers(-1, 2, size=(n, p), dtype=np.int8)
    chunks = list(cli._genotype_rows(values))
    assert b"".join(chunks).decode("ascii") == genotype_rows_one_string(values)
    assert all(chunk.endswith(b"\n") for chunk in chunks)  # whole rows only
    rows_per_chunk = [chunk.count(b"\n") for chunk in chunks]
    assert rows_per_chunk[0] == min(n, max(1, cli._ROWS_CHUNK // (2 * p)))
    assert sum(rows_per_chunk) == n


@pytest.mark.parametrize("command", ["scan", "cluster"])
def test_failed_output_stream_leaves_no_output(tmp_path, capsys, monkeypatch, command):
    g, t = write_fixture(tmp_path, n=30, p=6)
    real = getattr(cli, f"cmd_{command}")

    def second_output_fails(args, parser):
        outputs, named = real(args, parser)
        _, second = outputs
        text = outputs[second]

        def chunks():
            yield text.encode()[:10]
            raise OSError("No space left on device")

        outputs[second] = chunks()
        return outputs, named

    monkeypatch.setattr(cli, f"cmd_{command}", second_output_fails)
    out = tmp_path / "out"
    argv = [command, "--genotypes", str(g), "--out", str(out)]
    argv += ["--trait", str(t)] if command == "scan" else []
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "gwasel: error: No space left on device\n"
    assert list(out.iterdir()) == []  # no output, no manifest, no .name.* temp file


def test_cluster_outputs(tmp_path):
    g, _ = write_fixture(tmp_path, n=60, p=10)
    out = tmp_path / "cl"
    assert main(["cluster", "--genotypes", str(g), "--threshold", "0.7",
                 "--window", "10", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_snps"] == 10
    assert 1 <= summary["effective_count"] <= 10
    assert (out / "clusters.tsv").read_text().startswith("snp_id\t")


def test_simulate_subcommand(tmp_path):
    cfg = {
        "synthetic": {"n": 80, "p": 25, "maf_range": [0.3, 0.5]},
        "causal_indices": [4, 12],
        "effects": [1.2, 1.0],
        "sigma": 1.0,
        "alpha": 0.05,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sim"
    code = main([
        "simulate", "--config", str(cfg_path), "--replicates", "3", "--seed", "1",
        "--methods", "bonferroni,bh,mbic2", "--thresholds", "0.7,0.9",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["methods"]) == {"bonferroni", "bh", "mbic2"}
    assert (out / "fp_bh_0.7.tsv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["heritability"] < 1.0


@pytest.mark.parametrize("cfg, key", [
    ({"synthetic": {"p": 50}, "k": 2}, "'n'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 11}, "'k'"),
    ({"synthetic": {"n": 40, "p": 10}, "causal_indices": [2, 10]}, "'causal_indices'"),
    ({"synthetic": {"n": 40, "p": 10}, "causal_indices": [-1]}, "'causal_indices'"),
    ({"synthetic": {"n": 40, "p": 10}, "causal_indices": 3}, "'causal_indices'"),
    ({"synthetic": {"n": 40, "p": 10}, "causal_indices": "3"}, "'causal_indices'"),
    ({"synthetic": {"n": 40, "p": 10}, "causal_indices": [1.5]}, "'causal_indices'"),
    ({"synthetic": {"n": 40, "p": 10}, "causal_indices": [1, 2], "effects": "12"}, "'effects'"),
    ({"synthetic": {"n": 40, "p": 10}, "causal_indices": [1, 2], "effects": [1.0]}, "'effects'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "effect_range": [0.3]}, "'effect_range'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "effect_range": 0.3}, "'effect_range'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "effect_range": "12"}, "'effect_range'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "effect_range": ["0.3", "0.6"]}, "'effect_range'"),
    ({"synthetic": 5, "k": 2}, "'synthetic'"),
    ({"synthetic": {"n": 40.5, "p": 10}, "k": 2}, "'n'"),
    ({"synthetic": {"n": 40, "p": "10"}, "k": 2}, "'p'"),
    ({"synthetic": {"n": 40, "p": 10, "maf_range": 0.3}, "k": 2}, "'maf_range'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2.7}, "'k'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "seed": 1.5}, "'seed'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "sigma": [1]}, "'sigma'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "alpha": "0.05"}, "'alpha'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "d": None}, "'d'"),
    ({"synthetic": {"n": 40, "p": 10}, "k": 2, "p_effective": 2.5}, "'p_effective'"),
    ({"genotypes": "absent.txt", "k": 2}, "'genotypes'"),
    (5, "JSON object"),
])
def test_simulate_bad_config_exits_2(tmp_path, capsys, cfg, key):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--config", str(cfg_path), "--replicates", "1",
              "--out", str(tmp_path / "sim")])
    assert err.value.code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("flags, message", [
    (["--replicates", "0"], "argument --replicates: must be a positive integer, got '0'"),
    (["--replicates", "-3"], "argument --replicates: must be a positive integer, got '-3'"),
    (["--thresholds", "0.7,abc"], "argument --thresholds: 'abc' is not a number in (0, 1]"),
    (["--thresholds", "1.5"], "argument --thresholds: '1.5' is not a number in (0, 1]"),
    (["--methods", "foo"], "argument --methods: unknown method 'foo'"),
    (["--methods", "bh,mbic3"], "argument --methods: unknown method 'mbic3'"),
    (["--methods", "mbic,bh,mbic"], "argument --methods: method 'mbic' named twice"),
    (["--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
    (["--seed", "1.5"], "argument --seed: must be a non-negative integer, got '1.5'"),
    (["--thresholds", "0.7,0.9,0.70"], "argument --thresholds: threshold '0.70' named twice"),
])
def test_simulate_bad_flag_exits_2(tmp_path, capsys, flags, message):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"synthetic": {"n": 20, "p": 5}, "k": 1}))
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")] + flags)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("impute", ["--window", "0"], "argument --window: must be a positive integer, got '0'"),
    ("impute", ["--window", "-5"], "argument --window: must be a positive integer, got '-5'"),
    ("impute", ["--predictors", "0"],
     "argument --predictors: must be a positive integer, got '0'"),
    ("impute", ["--predictors", "two"],
     "argument --predictors: must be a positive integer, got 'two'"),
    ("cluster", ["--window", "0"], "argument --window: must be a positive integer, got '0'"),
    ("cluster", ["--threshold", "1.5"], "argument --threshold: '1.5' is not a number in (0, 1]"),
    ("cluster", ["--threshold", "0"], "argument --threshold: '0' is not a number in (0, 1]"),
    ("cluster", ["--threshold", "nan"], "argument --threshold: 'nan' is not a number in (0, 1]"),
])
def test_impute_and_cluster_bad_flag_exits_2(tmp_path, capsys, command, flags, message):
    g, _ = write_fixture(tmp_path, n=20, p=5)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, "--genotypes", str(g), "--out", str(out)] + flags)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("scan", ["--p-effective", "0"],
     "argument --p-effective: must be a positive integer, got '0'"),
    ("scan", ["--alpha", "0"], "argument --alpha: '0' is not a number in (0, 1)"),
    ("select", ["--p-effective", "0"],
     "argument --p-effective: must be a positive integer, got '0'"),
    ("select", ["--d", "nan"], "argument --d: 'nan' is not a finite number"),
    ("select", ["--screen", "0"], "argument --screen: '0' is not a number in (0, 1]"),
    ("select", ["--max-forward", "0"],
     "argument --max-forward: must be a positive integer, got '0'"),
    ("select", ["--kappa", "2"], "argument --kappa: '2' is not a number in [0, 1]"),
])
def test_scan_and_select_bad_flag_exits_2(tmp_path, capsys, command, flags, message):
    g, t = write_fixture(tmp_path, n=20, p=5)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, "--genotypes", str(g), "--trait", str(t), "--out", str(out)] + flags)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_no_temp_files_left_behind(tmp_path):
    g, t = write_fixture(tmp_path)
    out = tmp_path / "o"
    main(["scan", "--genotypes", str(g), "--trait", str(t), "--out", str(out)])
    leftovers = [p for p in out.iterdir() if p.name.startswith(".")]
    assert leftovers == []


def write_sidecar(tmp_path, ids):
    m = tmp_path / "meta.txt"
    m.write_text("".join(f"{s} 1 {10 * j}\n" for j, s in enumerate(ids)))
    return m


def test_select_manifest_digests_meta_sidecar(tmp_path):
    ids = [f"rs{j}" for j in range(6)]
    g, t = write_named_fixture(tmp_path, ids)
    m = write_sidecar(tmp_path, ids)
    out = tmp_path / "sel"
    assert main(["select", "--genotypes", str(g), "--trait", str(t), "--meta", str(m),
                 "--criterion", "bic", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {"genotypes": sha(g), "trait": sha(t), "covariates": None,
                                  "meta": sha(m), "refine_extras": None}
    assert manifest["wall_s"] > 0
    assert manifest["peak_rss_mb"] > 0


@pytest.mark.parametrize("size", [0, 1, 2**18 - 1, 2**18, 3 * 2**18 + 17])
def test_input_digest_streams_the_file(tmp_path, monkeypatch, size):
    # sizes around the read buffer of hashlib.file_digest (256 KiB)
    data = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    path = tmp_path / "input.bin"
    path.write_bytes(data)

    def whole_file(self):
        raise AssertionError("the digest read the whole file at once")

    monkeypatch.setattr(Path, "read_bytes", whole_file)
    assert cli._digest(str(path)) == hashlib.sha256(data).hexdigest()
    assert cli._digest(None) is None


LAUNCHER = """
import resource, subprocess, sys
import numpy as np
held = np.ones(300 * 2**20 // 8)  # ~300 MB, every page written
cli = "import sys; from gwasel import cli; sys.exit(cli.main(sys.argv[1:]))"
code = subprocess.run([sys.executable, "-c", cli, *sys.argv[1:]]).returncode
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_manifest_peak_is_the_commands_own_not_its_launchers(tmp_path):
    # Linux carries ru_maxrss across fork and exec, so a command started by a
    # large process would report the launcher's peak.
    g, t = write_fixture(tmp_path)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, "scan", "--genotypes", str(g),
                           "--trait", str(t), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    code, launcher_peak = proc.stdout.split()
    assert code == "0", proc.stderr[-2000:]
    assert float(launcher_peak) > 300
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0 < manifest["peak_rss_mb"] < float(launcher_peak)


def test_simulate_manifest_digests_the_config_panel(tmp_path):
    ids = [f"rs{j}" for j in range(8)]
    g, _ = write_named_fixture(tmp_path, ids)
    m = write_sidecar(tmp_path, ids)
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"genotypes": str(g), "meta": str(m), "k": 1}))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--replicates", "2",
                 "--methods", "bh", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {"config": sha(cfg), "genotypes": sha(g), "meta": sha(m)}
    assert manifest["seed"] == 0


def test_scan_refuses_covariate_collinear_with_the_intercept(tmp_path, capsys):
    g, t = write_fixture(tmp_path, n=60, p=8)
    c = tmp_path / "cov.txt"
    c.write_text("1\n" * 60)
    for command in ("scan", "select"):
        out = tmp_path / command
        assert main([command, "--genotypes", str(g), "--trait", str(t), "--covariates", str(c),
                     "--out", str(out)]) == 1
        assert "collinear" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "impute"])
def test_unwritable_out_exits_1(tmp_path, capsys, command):
    g, t = write_fixture(tmp_path, n=30, p=6)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    if command == "scan":
        argv = ["scan", "--genotypes", str(g), "--trait", str(t), "--out", str(blocker)]
    else:
        argv = ["impute", "--genotypes", str(g), "--out", str(blocker / "x.txt")]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gwasel: error: ")
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before
    assert blocker.read_text() == "keep"


def test_import_loads_no_scipy_stats():
    # every command is a fresh process; scipy.stats alone would double its
    # start-up time and add ~36 MB to its peak
    probe = ("import json, sys; import gwasel, gwasel.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "scipy.stats" not in loaded
    public = {m.split(".")[1] for m in loaded} - {"version"}
    assert {m for m in public if not m.startswith("_")} == {"special", "linalg", "sparse"}
