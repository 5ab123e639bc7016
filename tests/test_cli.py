import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acmmd
from acmmd.cli import main
from acmmd.estimator import acmmd_sq_from_triplets, h_matrix
from acmmd.io import (load_reliability_records, load_triplets,
                      write_reliability_records)
from acmmd.kernels import KernelSpec
from acmmd.toy import (ToyConfig, ToyPrior, acmmd_rel_sq_exact,
                       acmmd_sq_exact, generate_reliability_records,
                       generate_triplets, mmd_sq_models_exact)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def toy_data(tmp_path, capsys):
    path = tmp_path / "toy.jsonl"
    code, out, err = run(capsys, "toy-generate", "--n", "20",
                         "--delta-p", "0.25", "--seed", "3",
                         "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def grouped_data(tmp_path, capsys):
    path = tmp_path / "grouped.jsonl"
    code, out, err = run(capsys, "toy-generate", "--n", "30",
                         "--atoms", "0.3,0.45", "--delta-p", "0.25",
                         "--seed", "3", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def rel_data(tmp_path, capsys):
    path = tmp_path / "rel.jsonl"
    code, out, err = run(capsys, "toy-generate", "--n", "12",
                         "--delta-p", "0.25", "--family", "rel",
                         "--inner-samples", "6", "--seed", "4",
                         "--out", str(path))
    assert code == 0
    return path


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        code, out, err = run(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "error" in err.lower()

    def test_missing_input_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--input", "nope.jsonl")
        assert code == 2
        assert "cannot read dataset" in err

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        code, _, err = run(capsys, "estimate", "--input", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_bad_kernel_spec_is_config_error(self, toy_data, capsys):
        code, _, err = run(capsys, "estimate", "--input", str(toy_data),
                           "--kernel-y", "no-such-kernel")
        assert code == 1

    def test_repeated_kernel_spec_key_is_config_error(self, toy_data, capsys):
        code, _, err = run(capsys, "estimate", "--input", str(toy_data),
                           "--kernel-y", "exp-hamming:lambda=1.0:lambda=2.0")
        assert code == 1
        assert err.startswith("config error: kernel_y: repeated kernel spec "
                              "key 'lambda'")

    @pytest.mark.parametrize("option,message", [
        (["--kernel-x", "mean-gaussian:sigma=1.0"],
         "mean-gaussian needs a per_position matrix"),
        (["--kernel-y", "gaussian:sigma=1.0"],
         "item has no vector representation"),
        (["--kernel-x", "exp-hamming"], "item has no token representation"),
    ])
    def test_missing_item_representation_is_data_error(self, tmp_path, capsys,
                                                       option, message):
        # Toy records carry scalar inputs and token outputs only.
        path = tmp_path / "toy6.jsonl"
        assert run(capsys, "toy-generate", "--n", "6", "--out", str(path))[0] == 0
        code, _, err = run(capsys, "estimate", "--input", str(path), *option)
        assert code == 2
        assert err.strip() == f"data error: {message}"

    @pytest.mark.parametrize("key,values,argv", [
        ("delta_p", {"lam": True, "delta_p": False, "kx_sigma": "2.5"},
         ["toy-exact"]),
        ("lam", {"lam": True, "kx_sigma": "2.5"}, ["toy-exact"]),
        ("kx_sigma", {"kx_sigma": True}, ["toy-exact"]),
        ("sigma_p", {"sigma_p": True}, ["toy-exact"]),
        ("weights", {"weights": [True, True]}, ["sweep"]),
        ("delta_p_values", {"delta_p_values": [False]}, ["sweep"]),
    ])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, key, values,
                                          argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        if argv == ["sweep"]:
            argv += ["--n-values", "10", "--n-seeds", "2", "--out",
                     str(tmp_path / "out.csv")]
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1, out
        assert err.startswith(f"config error: {key} must be ")

    def test_bad_alpha_is_config_error(self, toy_data, capsys):
        code, _, err = run(capsys, "test", "--input", str(toy_data),
                           "--alpha", "1.5")
        assert code == 1
        assert "alpha" in err

    def test_unknown_config_key_rejected(self, toy_data, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        code, _, err = run(capsys, "estimate", "--input", str(toy_data),
                           "--config", str(cfg))
        assert code == 1
        assert "bogus_key" in err

    @pytest.mark.parametrize("data,argv", [
        ("toy", ["test", "--kernel-y", "exp-hamming:lambda=inf"]),
        ("toy", ["estimate", "--kernel-x", "gaussian:sigma=inf"]),
        ("rel", ["rel-estimate", "--sigma-p", "inf"]),
        ("rel", ["rel-test", "--kernel-y", "tilted-exp-hamming:lambda=inf"]),
        (None, ["toy-exact", "--lam", "inf"]),
        (None, ["toy-exact", "--kx-sigma", "inf"]),
        (None, ["toy-exact", "--atoms", "0.3,0.4", "--weights", "1,inf"]),
    ])
    def test_non_finite_parameter_is_config_error(self, toy_data, rel_data,
                                                  capsys, data, argv):
        if data is not None:
            path = toy_data if data == "toy" else rel_data
            argv = argv + ["--input", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 1, out
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--kernel-x", "dist-expmmd:sigma=1.0"],
        ["test", "--kernel-y", "dist-expmmd:sigma=1.0"],
        ["rel-estimate", "--kernel-y", "gaussian:sigma=1.0"],
        ["rel-test", "--kernel-y", "dist-expmmd:sigma=1.0"],
        ["sweep", "--family", "rel", "--kernel-y", "mean-gaussian"],
    ])
    def test_kernel_kind_checked_before_reading(self, tmp_path, capsys, argv):
        # The input does not exist: exit 1 shows the check ran first.
        code, _, err = run(capsys, *argv, "--input", "nope.jsonl",
                           "--out", str(tmp_path / "out.csv"))
        assert code == 1
        assert "config error: kernel_" in err

    @pytest.mark.parametrize("command", ["estimate", "test", "rel-estimate",
                                         "rel-test"])
    def test_group_by_checked_before_reading(self, tmp_path, capsys,
                                             command):
        # per_group is a JSON boolean; the input does not exist.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_group": "group"}))
        code, _, err = run(capsys, command, "--config", str(cfg),
                           "--input", "nope.jsonl")
        assert code == 1
        assert "config error: per_group" in err

    def test_old_group_by_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"group_by": "group"}))
        code, _, err = run(capsys, "test", "--config", str(cfg),
                           "--input", "nope.jsonl")
        assert code == 1
        assert "unknown keys ['group_by']" in err

    @pytest.mark.parametrize("argv,message", [
        (["--n-values", "inf"], "n_values must hold integers"),
        (["--n-values", "nan"], "n_values must hold integers"),
        (["--n-values", "10,10"], "n_values must not repeat"),
        (["--n-values", "10", "--delta-p-values", "0.25,0.25"],
         "delta_p_values must not repeat"),
    ])
    def test_bad_sweep_grid_is_config_error(self, tmp_path, capsys, argv,
                                            message, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config check")

        monkeypatch.setattr("acmmd.sweep._sample_columns", no_sampling)
        out = tmp_path / "sub" / "out.csv"
        code, _, err = run(capsys, "sweep", *argv, "--n-seeds", "3",
                           "--out", str(out))
        assert code == 1
        assert f"config error: {message}" in err
        assert not out.parent.exists()

    def test_oversized_config_number_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lam": ' + "1" * 401 + "}")
        code, _, err = run(capsys, "toy-exact", "--config", str(cfg))
        assert code == 1
        assert "config error: lam must be a number" in err

    @pytest.mark.parametrize("key,argv", [
        ("kernel_x", ["--family", "rel", "--kernel-x", "bogus"]),
        ("subsample_n", ["--subsample-n", "1"]),
        ("n_values", ["--n-values", "10"]),
        ("lam", ["--lam", "2"]),
        ("sigma_p", ["--sigma-p", "0.3"]),
        ("inner_samples", ["--family", "acmmd", "--inner-samples", "5"]),
        ("sigma_p", ["--sigma-p", "0.3", "toy"]),
        ("inner_samples", ["--inner-samples", "5", "toy"]),
        ("sigma_p", ["--config", "sigma.json", "toy"]),
        ("kernel_x", ["--kernel-x", "gaussian:sigma=1.0", "toy"]),
        ("atoms", ["--atoms", "0.4"]),
        ("weights", ["--weights", "1"]),
        ("kx_sigma", ["--kx-sigma", "2"]),
        ("delta_p_values", ["--delta-p-values", "0.1"]),
        ("kernel_x", ["--family", "rel", "--config", "kernel_x.json"]),
        ("timings", ["--config", "timings_str.json", "toy"]),
        ("timings", ["--config", "timings_int.json", "toy"]),
    ])
    def test_sweep_config_checked_before_reading(self, tmp_path, capsys, key,
                                                 argv, monkeypatch):
        # A dataset sweep's input does not exist, and a toy sweep ("toy")
        # must not sample: exit 1 shows the check ran first.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config check")

        monkeypatch.setattr("acmmd.sweep._sample_columns", no_sampling)
        monkeypatch.chdir(tmp_path)
        for name, values in {"sigma": {"sigma_p": 0.3},
                             "kernel_x": {"kernel_x": "gaussian:sigma=1.0"},
                             "timings_str": {"timings": "false"},
                             "timings_int": {"timings": 1}}.items():
            Path(f"{name}.json").write_text(json.dumps(values))
        if argv[-1] == "toy":
            argv = [*argv[:-1], "--n-values", "10"]
        else:
            argv = [*argv, "--input", "nope.jsonl"]
        code, _, err = run(capsys, "sweep", *argv, "--out", "out.csv")
        assert code == 1
        assert f"config error: {key}" in err


    @pytest.mark.parametrize("argv", [
        ["test", "--bootstrap", "20"],
        ["sweep", "--n-values", "10", "--delta-p-values", "0",
         "--n-seeds", "2", "--bootstrap", "20"],
    ])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, argv,
                                             monkeypatch):
        # The input does not exist and the sweep must not sample: exit 1
        # shows that --out is made ready before the work.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --out was made ready")

        monkeypatch.setattr("acmmd.sweep._sample_columns", no_sampling)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"  # under a file, not a directory
        if argv[0] == "test":
            argv = [*argv, "--input", "nope.jsonl"]
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and str(out.parent) in err
        assert "Traceback" not in err
        assert "Not a directory" in err

    @pytest.mark.parametrize("argv", [
        ["test", "--bootstrap", "20"],
        ["sweep", "--n-values", "10", "--delta-p-values", "0",
         "--n-seeds", "2", "--bootstrap", "20"],
        ["toy-generate", "--n", "3"],
    ])
    def test_out_into_missing_directory_creates_it(self, toy_data, tmp_path,
                                                   capsys, argv):
        out = tmp_path / "new" / "dir" / "out"
        if argv[0] == "test":
            argv = [*argv, "--input", str(toy_data)]
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 0, err
        assert out.read_text()

    def test_internal_error_exits_3_with_traceback(self, toy_data, capsys,
                                                   monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr("acmmd.cli.acmmd_test", broken)
        code, _, err = run(capsys, "test", "--input", str(toy_data))
        assert code == 3
        assert err.startswith("internal error: Traceback")
        assert "RuntimeError: broken on purpose" in err

    @pytest.mark.parametrize("target,command", [
        ("acmmd.cli.h_matrix", "estimate"),
        ("acmmd.cli.acmmd_test", "test"),
    ])
    def test_bare_value_error_is_internal_error(self, toy_data, capsys,
                                                monkeypatch, target, command):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not bad data")

        monkeypatch.setattr(target, broken)
        code, _, err = run(capsys, command, "--input", str(toy_data))
        assert code == 3
        assert err.startswith("internal error: Traceback")
        assert "ValueError: a bug, not bad data" in err

    @pytest.mark.parametrize("lines,option,message", [
        (['{"x": {"scalar": 1}, "y": {"tokens": ["A"]}, '
          '"y_model": {"tokens": []}}'], [], "need at least 2 records"),
        (['{"x": {"scalar": 1}, "y": {"tokens": ["A"]}, '
          '"y_model": {"tokens": []}}'] * 2,
         ["--kernel-y", "tilted-exp-hamming"],
         "tilted-exp-hamming is invalid for empty sequences"),
        (['{"x": {"embedding": [1, 2]}, "y": {"tokens": []}, '
          '"y_model": {"tokens": []}}',
          '{"x": {"embedding": [1]}, "y": {"tokens": []}, '
          '"y_model": {"tokens": []}}'], [],
         "embedding dimension mismatch: [1, 2]"),
    ], ids=["one-record", "tilted-empty", "embedding-dims"])
    def test_data_condition_is_data_error(self, tmp_path, capsys, lines,
                                          option, message):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "estimate", "--input", str(path), *option)
        assert code == 2
        assert err.strip() == f"data error: {message}"


# Runs commands in one fresh interpreter and prints, after each, the scipy
# modules loaded so far.
_MODULE_PROBE = """
import json, sys
from acmmd.cli import main

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        raise SystemExit(f"{name} failed")
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def test_commands_load_only_the_scipy_they_use(toy_data, rel_data, tmp_path):
    def loads(modules, package):
        return any(m == package or m.startswith(package + ".")
                   for m in modules)

    commands = [
        ("test", ["test", "--input", str(toy_data), "--bootstrap", "20",
                  "--kernel-x", "gaussian:sigma=median",
                  "--out", str(tmp_path / "test.json")]),
        ("rel-test", ["rel-test", "--input", str(rel_data),
                      "--bootstrap", "20",
                      "--out", str(tmp_path / "rel.json")]),
        ("sweep", ["sweep", "--n-values", "10", "--delta-p-values", "0",
                   "--n-seeds", "2", "--bootstrap", "20",
                   "--out", str(tmp_path / "sweep.csv")]),
    ]
    src = str(Path(acmmd.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(commands)],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["test"] == []
    assert loads(loaded["rel-test"], "scipy.sparse")
    for package in ("scipy.spatial", "scipy.stats"):
        assert not loads(loaded["rel-test"], package)
        assert not loads(loaded["sweep"], package)


class TestEstimate:
    def test_matches_library_value(self, toy_data, capsys):
        payload = run_json(capsys, "estimate", "--input", str(toy_data),
                           "--kernel-x", "gaussian:sigma=1.0",
                           "--kernel-y", "exp-hamming:lambda=1.0")
        records, _ = load_triplets(toy_data)
        want = acmmd_sq_from_triplets(records, KernelSpec("gaussian", sigma=1.0),
                                      KernelSpec("exp-hamming", lam=1.0))
        assert payload["statistic"] == pytest.approx(want, rel=1e-14)
        assert payload["n"] == 20
        assert payload["kernel_x"] == "gaussian:sigma=1.0"
        assert "sigma_h_sq" in payload

    def test_two_records_equal_single_h_entry(self, tmp_path, capsys):
        path = tmp_path / "two.jsonl"
        config = ToyConfig(delta_p=0.25)
        from acmmd.io import write_triplets
        triplets = generate_triplets(config, 2, seed=9)
        write_triplets(path, triplets)
        payload = run_json(capsys, "estimate", "--input", str(path),
                           "--kernel-x", "gaussian:sigma=1.0",
                           "--kernel-y", "exp-hamming:lambda=1.0")
        h = h_matrix(triplets, KernelSpec("gaussian", sigma=1.0),
                     KernelSpec("exp-hamming", lam=1.0))
        assert payload["statistic"] == h.values[0, 1]
        assert "sigma_h_sq" not in payload

    def test_group_mode_reports_each_label(self, grouped_data, capsys):
        payload = run_json(capsys, "estimate", "--input", str(grouped_data),
                           "--per-group")
        labels = [entry["group"] for entry in payload["groups"]]
        assert labels == sorted(labels)
        assert all(entry["n"] >= 2 for entry in payload["groups"])


class TestTest:
    def test_report_shape_and_determinism(self, toy_data, tmp_path, capsys):
        args = ("test", "--input", str(toy_data), "--kernel-x",
                "gaussian:sigma=1.0", "--kernel-y", "exp-hamming:lambda=1.0",
                "--bootstrap", "50", "--seed", "11")
        a = run_json(capsys, *args)
        b = run_json(capsys, *args)
        assert a == b
        assert a["seed"] == 11
        assert a["bootstrap"] == 50
        assert a["reject"] in (True, False)
        assert 0 < a["p_value"] <= 1
        assert a["decision"]["quantile_position"] == 49

    def test_out_file_byte_identical_on_rerun(self, toy_data, tmp_path,
                                              capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code, _, err = run(capsys, "test", "--input", str(toy_data),
                               "--bootstrap", "25", "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_group_mode_uses_per_group_seeds(self, grouped_data, capsys):
        payload = run_json(capsys, "test", "--input", str(grouped_data),
                           "--per-group", "--bootstrap", "25")
        groups = payload["groups"]
        assert len(groups) == 2
        assert all(g["group"].startswith("p=") for g in groups)
        assert groups[0]["p_value"] != groups[1]["p_value"] or \
            groups[0]["statistic"] != groups[1]["statistic"]


# SHA-256 of the report files of the four dataset commands on small toy
# files of both families: ungrouped, grouped and, for rel, trimmed. Any
# change to loading, trimming, h, the bootstrap, the decision or the report
# fields shows here.
PINNED_REPORTS = {
    "estimate": (
        ("estimate",),
        "a09948576eea7f6bc48c4c974e44cb4c5e408ad33e855f417f3601a98040f296"),
    "estimate-grouped": (
        ("estimate", "--per-group"),
        "168f1f0795e160ac7798d3b7398897b90ad8a19a9f0be8afe8d3292f24bca1e0"),
    "test": (
        ("test",),
        "fd356c4d3224fc9d7a34948257c900cbff1c5223ce35895859b929289a2f6b07"),
    "test-grouped": (
        ("test", "--per-group"),
        "dde513141555aa1dc99ca32f9d6ef326fd1421d48f1376182b3a5292e93ae3ca"),
    "rel-estimate": (
        ("rel-estimate",),
        "24e1aed86074ac4f5d902f5dfd913682c843085a7859f353d3a78da01dd6940e"),
    "rel-estimate-grouped": (
        ("rel-estimate", "--per-group"),
        "46f1066eb954129b5e89b3623daeb441ec6be922f479c83be030b66e814a7187"),
    "rel-estimate-trimmed": (
        ("rel-estimate", "--inner-samples", "4"),
        "f221b31dc35efdecfcf3527e58d9f84871650371c535b5b568065c26a8a18181"),
    "rel-estimate-grouped-trimmed": (
        ("rel-estimate", "--per-group", "--inner-samples", "4"),
        "f8910c5fe6b255bffc870a34e253a24461949af560e2b16cb5ef587d2dbed33f"),
    "rel-test": (
        ("rel-test",),
        "793664ecce427e1e70be821e49839a9973b09ef016300bcb6d0cc83000568cfe"),
    "rel-test-grouped": (
        ("rel-test", "--per-group"),
        "48387a8f0d893261b3b7d4d38dd1658c48fea2ae60200c573710c481d1a831a1"),
    "rel-test-trimmed": (
        ("rel-test", "--inner-samples", "4"),
        "b6fdba0e54624e7fc27f82ef444080818613882338aa0a24eab934dab9a94949"),
    "rel-test-grouped-trimmed": (
        ("rel-test", "--per-group", "--inner-samples", "4"),
        "6591688cda03232e53c49c88bc2f422f5ae4a21126d379365ec405080fd274a1"),
}


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_bytes_unchanged(self, name, tmp_path, monkeypatch, capsys):
        (command, *flags), report_sha = PINNED_REPORTS[name]
        family = "rel" if command.startswith("rel-") else "acmmd"
        monkeypatch.chdir(tmp_path)  # the report records the --input path
        samples = ["--inner-samples", "6"] if family == "rel" else []
        assert main(["toy-generate", "--n", "16", "--atoms", "0.3,0.45",
                     "--delta-p", "0.25", "--family", family, *samples,
                     "--seed", "5", "--out", "data.jsonl"]) == 0
        if command.endswith("test"):
            flags += ["--bootstrap", "30", "--seed", "11"]
        assert main([command, "--input", "data.jsonl", *flags,
                     "--out", "report.json"]) == 0
        report = (tmp_path / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == report_sha


# SHA-256 of each `--help` text, wrapped at COLUMNS=80: a change to any
# flag, its help string or the command list shows up here.
PINNED_HELP = {
    "": "383d7296fd4535a283b45d92890018e7c17e52178b5000fa7a700b9ede23fdc6",
    "estimate":
        "46f8a0cdf97d360808cb5c716c66255f4e7a085e498682feaf655d51aea574d1",
    "test": "263f1fd520aef10558da81b2513f1506cd378eb58a6f05a90db2b3976830b994",
    "rel-estimate":
        "a7c19386164227480dc4c03aab8103bba523fd7d1e97c2885372b048b55ba804",
    "rel-test":
        "76e4403920ca51cb3796dfb4136e998f6d1a3723d437003a9468e588be24005b",
    "sweep": "c2f5dd1eeef87b886c77157ba297bebff458cd2e4bff3e3462c73070843f680e",
    "toy-generate":
        "e67e05250093f2d2d26b9d3914a0a47fc20f913863d109964d0ccfb11b12445e",
    "toy-exact":
        "b472396b3b9179b6285a5dea62be24f7eb656001386284048276faf90a6ac6da",
}


@pytest.mark.parametrize("command", sorted(PINNED_HELP))
def test_help_text_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # click wraps help to the terminal
    code, out, _ = run(capsys, *([command] if command else []), "--help")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP[command]


class TestConfigPrecedence:
    def test_file_overrides_default_flag_overrides_file(self, toy_data,
                                                        tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bootstrap": 30, "seed": 5}))
        from_file = run_json(capsys, "test", "--input", str(toy_data),
                             "--config", str(cfg))
        assert from_file["bootstrap"] == 30
        assert from_file["seed"] == 5
        overridden = run_json(capsys, "test", "--input", str(toy_data),
                              "--config", str(cfg), "--bootstrap", "40")
        assert overridden["bootstrap"] == 40
        assert overridden["seed"] == 5

    def test_defaults_apply_without_config(self, toy_data, capsys):
        payload = run_json(capsys, "test", "--input", str(toy_data))
        assert payload["bootstrap"] == 100
        assert payload["alpha"] == 0.05
        assert payload["kernel_x"].startswith("gaussian:sigma=")
        assert payload["kernel_y"] == "exp-hamming:lambda=1.0:mode=padded"


class TestRelCommands:
    def test_rel_estimate_reports_sigma(self, rel_data, capsys):
        payload = run_json(capsys, "rel-estimate", "--input", str(rel_data),
                           "--sigma-p", "1.0")
        assert payload["sigma_p"] == 1.0
        assert payload["n"] == 12
        assert "statistic" in payload

    def test_rel_estimate_median_sigma_is_resolved(self, rel_data, capsys):
        payload = run_json(capsys, "rel-estimate", "--input", str(rel_data))
        assert isinstance(payload["sigma_p"], float)
        assert payload["sigma_p"] > 0

    def test_rel_estimate_reports_inner_samples(self, rel_data, capsys):
        payload = run_json(capsys, "rel-estimate", "--input", str(rel_data),
                           "--sigma-p", "1.0")
        assert payload["inner_samples"] == 6
        trimmed = run_json(capsys, "rel-estimate", "--input", str(rel_data),
                           "--sigma-p", "1.0", "--inner-samples", "3")
        assert trimmed["inner_samples"] == 3

    def test_inner_samples_trims(self, rel_data, capsys):
        full = run_json(capsys, "rel-test", "--input", str(rel_data),
                        "--sigma-p", "1.0", "--bootstrap", "25")
        trimmed = run_json(capsys, "rel-test", "--input", str(rel_data),
                           "--sigma-p", "1.0", "--bootstrap", "25",
                           "--inner-samples", "4")
        assert full["inner_samples"] == 6
        assert trimmed["inner_samples"] == 4
        assert trimmed["statistic"] != full["statistic"]

    def test_inner_samples_beyond_data_is_data_error(self, rel_data, capsys):
        code, _, err = run(capsys, "rel-test", "--input", str(rel_data),
                           "--inner-samples", "7")
        assert code == 2
        assert "fewer than" in err

    def test_rel_test_deterministic(self, rel_data, tmp_path, capsys):
        args = ("rel-test", "--input", str(rel_data), "--sigma-p", "1.0",
                "--bootstrap", "30", "--seed", "2")
        assert run_json(capsys, *args) == run_json(capsys, *args)

    def test_overflowing_khat_is_data_error(self, tmp_path, capsys):
        # The median sigma_p resolves to 0.0084 on this dataset, and
        # exp(-MMD^2 / (2 sigma_p^2)) overflows for negative MMD^2.
        path = tmp_path / "rel.jsonl"
        write_reliability_records(path, generate_reliability_records(
            ToyConfig(delta_p=0.25), 52, 8, 3563980978))
        for command in ("rel-estimate", "rel-test"):
            out = tmp_path / f"{command}.json"
            code, _, err = run(capsys, command, "--input", str(path),
                               "--out", str(out))
            assert code == 2
            assert "sigma_p=0.0083679" in err
            assert not out.exists()

    def test_triplet_file_rejected_for_rel(self, toy_data, capsys):
        code, _, err = run(capsys, "rel-estimate", "--input", str(toy_data))
        assert code == 2
        assert "model_samples" in err


class TestToyGenerate:
    def test_writes_alphabet_and_count(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        code, out, _ = run(capsys, "toy-generate", "--n", "5",
                           "--out", str(path))
        assert code == 0
        assert out.strip() == f"wrote 5 records to {path}"
        lines = path.read_text().splitlines()
        assert lines[0] == "# alphabet=A,B,STOP terminal=STOP"
        assert len(lines) == 6

    def test_matches_library_generation(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        run(capsys, "toy-generate", "--n", "8", "--delta-p", "0.2",
            "--seed", "7", "--out", str(path))
        records, _ = load_triplets(path)
        assert records == generate_triplets(ToyConfig(delta_p=0.2), 8, seed=7)

    def test_rel_family_default_sample_count(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        run(capsys, "toy-generate", "--n", "10", "--family", "rel",
            "--out", str(path))
        records, _ = load_reliability_records(path)
        assert all(len(r.model_samples) == 16 for r in records)

    def test_inner_samples_rejected_for_gof(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        code, _, err = run(capsys, "toy-generate", "--n", "3", "--family",
                           "acmmd", "--inner-samples", "5", "--out", str(out))
        assert code == 1
        assert err.startswith("config error: inner_samples")
        assert not out.exists()

    def test_n_required(self, tmp_path, capsys):
        code, _, err = run(capsys, "toy-generate", "--out",
                           str(tmp_path / "d.jsonl"))
        assert code == 1
        assert "n is required" in err

    @pytest.mark.parametrize("argv", [
        ["--n", "0"], ["--n", "1"], ["--n", "1", "--family", "rel"]])
    def test_fewer_than_two_records_rejected(self, tmp_path, capsys, argv):
        # estimate and rel-estimate need two records, so such a file is no use.
        out = tmp_path / "d.jsonl"
        code, _, err = run(capsys, "toy-generate", *argv, "--out", str(out))
        assert code == 1
        assert err.startswith("config error: n must be an integer >= 2")
        assert not out.exists()

    def test_n_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        path = tmp_path / "d.jsonl"
        code, out, _ = run(capsys, "toy-generate", "--config", str(cfg),
                           "--out", str(path))
        assert code == 0
        assert "wrote 3 records" in out

    def test_delta_p_must_fit_atoms(self, tmp_path, capsys):
        code, _, err = run(capsys, "toy-generate", "--n", "3",
                           "--delta-p", "0.4", "--out",
                           str(tmp_path / "d.jsonl"))
        assert code == 1
        assert "delta_p" in err


class TestToyExact:
    def test_matches_library_closed_forms(self, capsys):
        payload = run_json(capsys, "toy-exact", "--delta-p", "0.25",
                           "--atoms", "0.4", "--lam", "1.0",
                           "--kx-sigma", "1.0", "--sigma-p", "1.0")
        config = ToyConfig(prior=ToyPrior(atoms=(0.4,)), delta_p=0.25)
        assert payload["acmmd_sq_exact"] == acmmd_sq_exact(config)
        assert payload["acmmd_rel_sq_exact"] == acmmd_rel_sq_exact(config, 1.0)
        assert payload["mmd_sq_models_exact"][0][0] == 0.0

    def test_default_prior_matrix_is_symmetric(self, capsys):
        payload = run_json(capsys, "toy-exact", "--delta-p", "0.25")
        matrix = np.array(payload["mmd_sq_models_exact"])
        assert matrix.shape == (5, 5)
        assert np.allclose(matrix, matrix.T, atol=1e-15)
        assert payload["mmd_sq_models_exact"][0][4] == pytest.approx(
            mmd_sq_models_exact(0.3, 0.45, 1.0, 0.25), rel=1e-14)

    def test_median_sigma_p_rejected(self, capsys):
        code, _, err = run(capsys, "toy-exact", "--sigma-p", "median")
        assert code == 1
        assert "numeric sigma_p" in err


class TestSweepToy:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ("sweep", "--n-values", "10,20", "--delta-p-values", "0.0,0.25",
                "--n-seeds", "3", "--bootstrap", "25", "--atoms", "0.4",
                "--out", str(out))
        code, echo, err = run(capsys, *args)
        assert code == 0, err
        assert "wrote 12 rows" in echo
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "n,delta_p,seed,statistic,p_value,reject,runtime_ms"
        assert len(lines) == 13
        rows = list(csv.DictReader(lines))
        assert {r["n"] for r in rows} == {"10", "20"}
        assert {r["delta_p"] for r in rows} == {"0.0", "0.25"}
        assert all(r["reject"] in ("0", "1") for r in rows)
        assert all(r["runtime_ms"] == "0" for r in rows)

        first = out.read_bytes()
        summary_first = out.with_suffix(".summary.json").read_bytes()
        code, _, _ = run(capsys, *args)
        assert code == 0
        assert out.read_bytes() == first
        assert out.with_suffix(".summary.json").read_bytes() == summary_first

    def test_parallel_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ("sweep", "--n-values", "10,15", "--delta-p-values", "0.25",
                "--n-seeds", "4", "--bootstrap", "20", "--atoms", "0.4")
        code, _, err = run(capsys, *base, "--out", str(serial))
        assert code == 0, err
        code, _, err = run(capsys, *base, "--workers", "2",
                           "--out", str(parallel))
        assert code == 0, err
        assert serial.read_bytes() == parallel.read_bytes()

    def test_summary_contents(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--n-values", "10,20", "--delta-p-values",
            "0.0", "--n-seeds", "4", "--bootstrap", "25", "--atoms",
            "0.3,0.45", "--out", str(out))
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        cells = summary["cells"]
        assert [c["n"] for c in cells] == [10, 20]
        for cell in cells:
            assert cell["n_seeds"] == 4
            assert 0.0 <= cell["rejection_rate"] <= 1.0
            lo, hi = cell["rejection_rate_ci95"]
            assert lo <= cell["rejection_rate"] <= hi
        assert summary["config"]["bootstrap"] == 25
        assert summary["config"]["command"] == "sweep"

    def test_timings_flag_records_positive_times(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--n-values", "10",
                           "--delta-p-values", "0.0", "--n-seeds", "2",
                           "--bootstrap", "20", "--atoms", "0.4",
                           "--timings", "--out", str(out))
        assert code == 0, err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert all(float(r["runtime_ms"]) > 0 for r in rows)

    def test_rel_family_sweep(self, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        code, _, err = run(capsys, "sweep", "--family", "rel", "--n-values",
                           "8,12", "--delta-p-values", "0.25", "--n-seeds",
                           "2", "--bootstrap", "20", "--inner-samples", "4",
                           "--sigma-p", "1.0", "--atoms", "0.4",
                           "--out", str(out))
        assert code == 0, err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["n"] for r in rows} == {"8", "12"}

    def test_explicit_kernels_rejected_in_toy_mode(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--n-values", "10",
                           "--kernel-y", "exp-hamming", "--out",
                           str(tmp_path / "s.csv"))
        assert code == 1
        assert "toy sweeps" in err

    def test_delta_p_must_fit_atoms(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--n-values", "10",
                           "--delta-p-values", "0.35", "--atoms", "0.3",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert "delta_p" in err


class TestSweepDataset:
    def test_group_sweep(self, grouped_data, tmp_path, capsys):
        out = tmp_path / "groups.csv"
        code, echo, err = run(capsys, "sweep", "--input", str(grouped_data),
                              "--n-seeds", "3",
                              "--bootstrap", "20", "--subsample-n", "4",
                              "--out", str(out))
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "n,group,seed,statistic,p_value,reject,runtime_ms"
        rows = list(csv.DictReader(lines))
        assert all(r["n"] == "4" for r in rows)
        labels = {r["group"] for r in rows}
        assert all(label.startswith("p=") for label in labels)
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert all("group" in cell for cell in summary["cells"])

    @pytest.mark.parametrize("family,command", [("acmmd", "test"),
                                                ("rel", "rel-test")])
    def test_grouped_test_matches_one_seed_sweep(self, family, command,
                                                  tmp_path, capsys):
        # Both derive group gi's test seed as derive(seed, SK_GROUP, gi, 0, 1).
        data = tmp_path / "d.jsonl"
        samples = ["--inner-samples", "6"] if family == "rel" else []
        code, _, err = run(capsys, "toy-generate", "--n", "30", "--atoms",
                           "0.3,0.45", "--delta-p", "0.25", "--family",
                           family, *samples, "--seed", "3",
                           "--out", str(data))
        assert code == 0, err
        common = ("--input", str(data), "--bootstrap", "25", "--seed", "8")
        groups = run_json(capsys, command, *common,
                          "--per-group")["groups"]
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--family", family, *common,
                           "--n-seeds", "1", "--out", str(out))
        assert code == 0, err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["group"] for r in rows] == [g["group"] for g in groups]
        for row, group in zip(rows, groups):
            assert float(row["statistic"]) == group["statistic"]
            assert float(row["p_value"]) == group["p_value"]
            assert bool(int(row["reject"])) == group["reject"]

    def test_subsample_without_input_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--n-values", "10",
                           "--subsample-n", "5",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert "--input" in err


class TestGroupRule:
    """Every grouped dataset command and the dataset sweep share one rule:
    every record labeled, every group at least 2 records."""

    @pytest.fixture(params=["estimate", "test", "rel-estimate", "rel-test",
                            "sweep"])
    def grouped_run(self, request, tmp_path, capsys):
        command = request.param
        rel = command.startswith("rel-")
        family = ["--family", "rel" if rel else "acmmd"]
        samples = ["--inner-samples", "4"] if rel else []
        data = tmp_path / "data.jsonl"
        assert main(["toy-generate", "--n", "12", "--atoms", "0.3,0.45",
                     "--delta-p", "0.25", *family, *samples, "--seed", "5",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        if command == "sweep":
            argv = ["sweep", family[0], "rel" if rel else "acmmd",
                    "--n-seeds", "1", "--bootstrap", "20",
                    "--out", str(tmp_path / "out.csv")]
        else:
            argv = [command, "--per-group"]
        return data, [*argv, "--input", str(data)]

    def relabel(self, path, label_of):
        """Give record i the group label_of(i); None leaves it unlabeled."""
        comment, *lines = path.read_text().splitlines()
        records = []
        for i, line in enumerate(lines):
            record = json.loads(line)
            record.pop("group")
            if label_of(i) is not None:
                record["group"] = label_of(i)
            records.append(json.dumps(record))
        path.write_text("\n".join([comment, *records]) + "\n")

    def test_unlabeled_record_is_data_error(self, grouped_run, capsys):
        data, argv = grouped_run
        self.relabel(data, lambda i: None if i < 2 else "a")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "2 of 12 records have no group label" in err

    def test_one_record_group_is_data_error(self, grouped_run, capsys):
        data, argv = grouped_run
        # Group "b" sorts last: nothing runs before the check fails.
        self.relabel(data, lambda i: "b" if i == 0 else "a")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "group 'b' has fewer than 2 records" in err
        assert out == ""
