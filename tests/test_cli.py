import json

import numpy as np
import pytest

from vsmm import cli
from vsmm.cli import main
from vsmm.gcn import make_synthetic_community, save_dataset, save_model


@pytest.fixture
def dataset_dir(tmp_path):
    ds = make_synthetic_community(16, seed=1)
    path = tmp_path / "ds"
    save_dataset(str(path), ds)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_decompose_identity(tmp_path, capsys):
    coo = tmp_path / "id.txt"
    coo.write_text("3 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n")
    code, doc = _run(capsys, ["decompose", str(coo)])
    assert code == 0
    assert [doc[k] for k in ("m", "n", "t", "ncol", "nrow")] == [3] * 5


def test_bench_op_rounds_one(capsys):
    code, doc = _run(capsys, ["bench", "op", "--nodes", "8"])
    assert code == 0
    assert doc["rounds"] == 1
    assert doc["protocol"] == "op"
    assert set(doc["est_time_by_condition"]) == {"normal", "nb", "hl"}


@pytest.mark.parametrize("protocol", ["op", "osm", "smm"])
def test_bench_reports_run_times(capsys, protocol):
    """Each bench reports the two-party run's wall and process CPU time."""
    code, doc = _run(capsys, ["bench", protocol, "--nodes", "64", "--dim", "2"])
    assert code == 0
    assert doc["wall_s"] > 0 and doc["cpu_s"] > 0
    assert all(isinstance(doc[k], float) for k in ("wall_s", "cpu_s"))


def test_bench_reports_peak_memory(capsys, monkeypatch):
    """The process's peak resident memory, left out where the resource
    module is missing."""
    code, doc = _run(capsys, ["bench", "op", "--nodes", "8"])
    assert code == 0 and doc["peak_rss_mb"] > 0
    monkeypatch.setattr(cli, "resource", None)
    code, doc = _run(capsys, ["bench", "op", "--nodes", "8"])
    assert code == 0 and "peak_rss_mb" not in doc


def test_bench_osm(capsys):
    code, doc = _run(capsys, ["bench", "osm", "--nodes", "32", "--dim", "2"])
    assert code == 0
    assert doc["rounds"] == 1
    assert doc["online_bits"] == 32 * 2 * 65


def test_bench_smm_saving(capsys):
    code, doc = _run(capsys, ["bench", "smm", "--nodes", "200",
                              "--edges-per-node", "1", "--dim", "1"])
    assert code == 0
    assert doc["rounds"] == 2
    assert doc["online_bits"] == doc["formula_online_bits"]
    assert doc["saving_pct"] > 90


def test_train_infer_report_pipeline(tmp_path, dataset_dir, capsys):
    report = tmp_path / "train.json"
    model = tmp_path / "model.json"
    csv_path = tmp_path / "epochs.csv"
    code, doc = _run(capsys, [
        "train", "--dataset", dataset_dir, "--opt", "sgd", "--epochs", "3",
        "--lr", "0.5", "--hidden", "8", "--seed", "1",
        "--model-out", str(model), "--csv", str(csv_path),
        "--out", str(report)])
    assert code == 0
    assert len(doc["per_epoch"]) == 3
    assert set(doc["est_time"]) == {"normal", "nb", "hl"}
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,acc,online_bytes,rounds"
    assert len(lines) == 4

    code, doc = _run(capsys, ["infer", "--dataset", dataset_dir,
                              "--model", str(model)])
    assert code == 0
    assert len(doc["predictions"]) == 16

    code, doc = _run(capsys, ["report", str(report), "--net", "hl"])
    assert code == 0
    assert list(doc["est_time_by_condition"]) == ["hl"]
    assert doc["est_time_by_condition"]["hl"] > 0


def test_train_rejects_zero_hidden(dataset_dir, capsys):
    assert main(["train", "--dataset", dataset_dir, "--epochs", "1",
                 "--hidden", "0"]) == 1
    assert "error: hidden must be >= 1" in capsys.readouterr().err


def test_infer_rejects_mismatched_model(tmp_path, dataset_dir, capsys):
    model = tmp_path / "model.json"
    w1, w2 = np.zeros((3, 4), np.uint64), np.zeros((4, 2), np.uint64)
    save_model(str(model), (w1, w1), (w2, w2))
    assert main(["infer", "--dataset", dataset_dir, "--model", str(model)]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}: w1 has 3 rows but the dataset has 4 features\n")


def test_train_rejects_nan_feature(tmp_path, capsys):
    ds = make_synthetic_community(16, seed=1)
    ds.features[3, 1] = np.nan
    save_dataset(str(tmp_path), ds)
    assert main(["train", "--dataset", str(tmp_path), "--epochs", "1"]) == 1
    assert "error: value out of range" in capsys.readouterr().err


def test_train_rejects_negative_label(dataset_dir, capsys):
    path = f"{dataset_dir}/labels.csv"
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[0] = "-1"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    argv = ["train", "--dataset", dataset_dir, "--epochs", "1", "--hidden", "4"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:1: negative class label\n")


@pytest.mark.parametrize("name, line, value", [
    ("labels.csv", 0, "1.5"), ("features.csv", 2, "x,0,0,0")],
    ids=["fractional-label", "text-feature"])
def test_train_unreadable_table_names_the_file(dataset_dir, capsys, name,
                                               line, value):
    path = f"{dataset_dir}/{name}"
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[line] = value
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["train", "--dataset", dataset_dir, "--epochs", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: could not ")


@pytest.mark.parametrize("masks", ["train\n" + "1\n" * 16,
                                   "train,test\n" + "2,0\n" * 16,
                                   "train,test\n" + "0,1\n" * 16])
def test_train_rejects_bad_masks(dataset_dir, capsys, masks):
    path = f"{dataset_dir}/masks.csv"
    with open(path, "w") as fh:
        fh.write(masks)
    assert main(["train", "--dataset", dataset_dir, "--epochs", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_infer_needs_no_train_node(tmp_path, dataset_dir, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", dataset_dir, "--epochs", "1",
                 "--hidden", "4", "--model-out", str(model)]) == 0
    capsys.readouterr()
    with open(f"{dataset_dir}/masks.csv", "w") as fh:
        fh.write("train,test\n" + "0,1\n" * 16)
    code, doc = _run(capsys, ["infer", "--dataset", dataset_dir,
                              "--model", str(model)])
    assert code == 0 and len(doc["predictions"]) == 16


def test_infer_rejects_other_precision(tmp_path, dataset_dir, capsys):
    model = tmp_path / "model.json"
    w1, w2 = np.zeros((4, 4), np.uint64), np.zeros((4, 2), np.uint64)
    save_model(str(model), (w1, w1), (w2, w2))
    doc = json.loads(model.read_text())
    doc["f"] = 20
    model.write_text(json.dumps(doc))
    assert main(["infer", "--dataset", dataset_dir, "--model", str(model)]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}: shares have 20 fractional bits, not 16\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nosuch"])
    assert exc.value.code == 2


def test_protocol_error_exits_1(tmp_path, capsys):
    assert main(["decompose", str(tmp_path / "missing.txt")]) == 1
    assert "error:" in capsys.readouterr().err
