import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import PROBLEM_A_TEXT, PROBLEM_B_TEXT
from cadorder.cli import main
from cadorder.datagen import GenConfig, parse_file
from cadorder.features import brown_features, descriptor_record, feature_matrix
from cadorder.training import load_rule


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", "--seed", "0", "--count", "25", "--out", str(out)]) == 0
    return out


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "a.poly"
    path.write_text(PROBLEM_A_TEXT + "\n")
    return path


@pytest.fixture
def pool_file(tmp_path):
    from cadorder.features import FeatureSet, brown_features, selected_triplet

    path = tmp_path / "pool.json"
    FeatureSet.from_descriptors(brown_features() + selected_triplet()).save(path)
    return path


def test_gen_writes_dataset_and_manifest(tmp_path, capsys):
    out = tmp_path / "ds"
    code, stdout, _ = run(capsys, "gen", "--seed", "1", "--count", "5", "--out", str(out))
    assert code == 0
    assert "5 problems" in stdout
    assert len(list(out.glob("*.poly"))) == 5
    assert (out / "manifest.json").exists()
    assert (out / "run_manifest.json").exists()


def test_gen_defaults_are_gen_config_defaults(tmp_path, capsys):
    out = tmp_path / "ds"
    assert run(capsys, "gen", "--count", "2", "--out", str(out))[0] == 0
    expected = asdict(GenConfig(seed=0))
    assert json.loads((out / "manifest.json").read_text())["config"] == expected
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert {k: config[k] for k in expected} == expected


def test_gen_rerun_identical_hashes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen", "--seed", "2", "--count", "6", "--out", str(a))
    run(capsys, "gen", "--seed", "2", "--count", "6", "--out", str(b))
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert [f["sha256"] for f in ma["files"]] == [f["sha256"] for f in mb["files"]]


def test_input_digest_skips_run_manifest(tmp_path, capsys):
    """Identical data has one input digest, whatever run manifest gen left beside it."""

    def digest(data):
        out = tmp_path / f"check-{data.name}.json"
        assert run(capsys, "check", "--data", str(data), "--out", str(out))[0] == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        return manifest["inputs"][str(data)]

    a, b = tmp_path / "a", tmp_path / "b"
    for data in (a, b):
        run(capsys, "gen", "--seed", "0", "--count", "30", "--out", str(data))
    assert digest(a) == digest(b)
    (b / "run_manifest.json").unlink()
    assert digest(a) == digest(b)


def test_gen_count_zero_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "0", "--out", str(tmp_path / "x")])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "1", "--out", "x", "--bogus"])
    assert exc.value.code == 1


def test_order_brown_and_nn_agree(problem_file, capsys):
    code, stdout, _ = run(capsys, "order", "--heuristic", "brown", "--problem", str(problem_file))
    assert code == 0 and stdout.strip() == "x>z>y"
    code, stdout, _ = run(capsys, "order", "--heuristic", "nn", "--problem", str(problem_file))
    assert code == 0 and stdout.strip() == "x>z>y"


def test_order_reverse_and_explain(problem_file, capsys):
    code, stdout, _ = run(
        capsys, "order", "--heuristic", "brown", "--problem", str(problem_file), "--reverse"
    )
    assert code == 0 and stdout.strip() == "y>z>x"
    # Every rule explains itself with its feature rows and its layer-1 y.
    for heuristic in ("nn", "brown", "selected"):
        code, stdout, _ = run(
            capsys, "order", "--heuristic", heuristic, "--problem", str(problem_file), "--explain"
        )
        assert code == 0
        lines = stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:6]] == ["x", "y", "z"] * 2
        assert all("features = " in line for line in lines[:3])
        assert all(": y = " in line for line in lines[3:6])
        assert lines[6:] == ["x>z>y"]
    # Brown's y is the radix score at the minimal base weight, 5: x has row (2, 3, 2).
    stdout = run(capsys, "order", "--problem", str(problem_file), "--explain")[1]
    assert "x: y = 67\ny: y = 41\nz: y = 67\n" in stdout


def test_order_missing_file_is_data_error(capsys):
    code, _, stderr = run(capsys, "order", "--heuristic", "brown", "--problem", "missing.poly")
    assert code == 2
    assert "error" in stderr


def test_order_triplet_file(tmp_path, problem_file, capsys):
    from cadorder.features import selected_triplet

    triplet_path = tmp_path / "triplet.json"
    triplet_path.write_text(
        json.dumps(
            [
                {"kernel": fd.kernel.name, "pipeline": [a.value for a in fd.pipeline]}
                for fd in selected_triplet()
            ]
        )
    )
    code, stdout, _ = run(
        capsys, "order", "--heuristic", str(triplet_path), "--problem", str(problem_file)
    )
    assert code == 0 and stdout.strip() == "x>z>y"


@pytest.fixture
def checkpoint(tmp_path, capsys):
    """A trained network's checkpoint, with the validation set it was picked on."""
    train_dir, val_dir = tmp_path / "train", tmp_path / "val"
    main(["gen", "--seed", "0", "--count", "30", "--out", str(train_dir)])
    main(["gen", "--seed", "1", "--count", "10", "--out", str(val_dir)])
    assert run(capsys, "train", "--train", str(train_dir), "--val", str(val_dir), "--epochs", "2",
               "--lr", "0.05", "--out", str(tmp_path / "run"))[0] == 0
    return tmp_path / "run.ckpt.json", val_dir


def test_order_and_check_read_a_checkpoint(checkpoint, capsys):
    path, val_dir = checkpoint
    rule = load_rule(path)
    assert rule.weights is not None
    for problem in sorted(val_dir.glob("*.poly")):
        code, stdout, _ = run(capsys, "order", "--heuristic", str(path), "--problem", str(problem))
        pr = parse_file(problem, problem.read_bytes(), problem.stem)
        assert code == 0 and stdout == rule.order(feature_matrix(rule.triplet, pr)).names(pr) + "\n"
    code, stdout, _ = run(capsys, "check", "--data", str(val_dir), "--triplet", str(path))
    assert code == 0 and "10 problems, 0 mismatches, 0 weight violations" in stdout


def test_a_checkpoint_cannot_start_training_or_take_a_base_weight(checkpoint, tmp_path, capsys):
    path, val_dir = checkpoint
    code, stdout, stderr = run(capsys, "train", "--train", str(val_dir), "--val", str(val_dir),
                               "--triplet", str(path), "--out", str(tmp_path / "again"))
    assert code == 1 and stdout == ""
    assert stderr == (f"usage error: --triplet {path}: training starts from a triplet, "
                      "not a network\n")
    assert not list(tmp_path.glob("again*"))
    code, stdout, stderr = run(capsys, "check", "--data", str(val_dir), "--triplet", str(path),
                               "--force-w", "5")
    assert code == 1 and stdout == ""
    assert stderr == f"usage error: --force-w applies to a lexicographic rule, not to {path}\n"


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [1, 1, 1]}',
                     "checkpoint has no 'triplet'", id="no-triplet"),
        pytest.param('{"weights": [1, NaN, 3], "feature_scale": [1, 1, 1], "triplet": []}',
                     "'weights' must be a list of finite numbers", id="nan-weight"),
        pytest.param('{"weights": [1, 2, 3], "feature_scale": [1, 1, 1], "triplet": []}',
                     "three feature descriptors required", id="empty-triplet"),
        pytest.param('{"weights": [1, 2, 3], "trip', "Unterminated string", id="truncated"),
        pytest.param('7', "expected a list of descriptor records", id="a-number"),
    ],
)
def test_malformed_checkpoint_given_to_order_is_data_error(tmp_path, problem_file, capsys,
                                                           text, fragment):
    path = tmp_path / "run.ckpt.json"
    path.write_text(text)
    code, stdout, stderr = run(capsys, "order", "--heuristic", str(path), "--problem",
                               str(problem_file))
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {path}: ") and fragment in stderr


@pytest.mark.parametrize("explain", [[], ["--explain"]], ids=["plain", "explain"])
def test_order_with_a_checkpoint_whose_y_overflows_is_data_error(tmp_path, problem_file, capsys,
                                                                 explain):
    # Finite weights whose y is infinite for every variable: no order to print.
    path = tmp_path / "huge.ckpt.json"
    path.write_text(json.dumps({"weights": [1e308, 1e308, 1.0], "feature_scale": [1, 1, 1],
                                "triplet": [descriptor_record(fd) for fd in brown_features()]}))
    code, stdout, stderr = run(capsys, "order", "--heuristic", str(path), "--problem",
                               str(problem_file), *explain)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {path}: y [inf, inf, inf] is not finite on {problem_file}\n"


def test_features_command(tmp_path, capsys):
    out = tmp_path / "features.json"
    code, stdout, _ = run(capsys, "features", "--out", str(out))
    assert code == 0
    assert stdout == "624 valid descriptors -> 27 classes\n"
    records = json.loads(out.read_text())
    assert len(records) == 27
    assert sum(r["class_size"] for r in records) == 624
    manifest = json.loads((tmp_path / "features.json.manifest.json").read_text())
    assert manifest["inputs"] == {}


def test_features_has_no_probe_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["features", "--probe", str(tmp_path), "--out", str(tmp_path / "f.json")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --probe" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_search_command(tmp_path, dataset_dir, pool_file, capsys):
    out = tmp_path / "report"
    code, stdout, _ = run(
        capsys,
        "search",
        "--pool", str(pool_file),
        "--data", str(dataset_dir),
        "--oracle", "synthetic",
        "--top-k", "5",
        "--out", str(out),
    )
    assert code == 0
    assert "120 triplets" in stdout
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["ranked"]) == 5
    assert (tmp_path / "report.csv").read_text().startswith("rank,f1,f2,f3")


def test_search_resume_matches_fresh(tmp_path, dataset_dir, pool_file, capsys):
    base = ["search", "--pool", str(pool_file), "--data", str(dataset_dir), "--top-k", "3"]
    run(capsys, *base, "--out", str(tmp_path / "fresh"))

    journal = tmp_path / "journal.txt"
    run(capsys, *base, "--resume", str(journal), "--out", str(tmp_path / "first"))
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    run(capsys, *base, "--resume", str(journal), "--out", str(tmp_path / "resumed"))

    assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_search_resume_old_journal_is_data_error(tmp_path, dataset_dir, pool_file, capsys):
    # Lines of the older index,total and index,total,wins formats.
    journal = tmp_path / "journal.txt"
    for text in ("0,12.5\n", "0,12.5,3\n"):
        journal.write_text(text)
        code, _, stderr = run(
            capsys,
            "search",
            "--pool", str(pool_file),
            "--data", str(dataset_dir),
            "--resume", str(journal),
            "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert "journal.txt:1" in stderr
        assert journal.read_text() == text


@pytest.mark.parametrize("case", ["other-data", "step-base-3", "pool-json"])
def test_search_resume_of_another_run_is_data_error(tmp_path, dataset_dir, pool_file, capsys, case):
    base = ["search", "--pool", str(pool_file), "--top-k", "3"]
    journal = tmp_path / "journal.txt"
    run(capsys, *base, "--data", str(dataset_dir), "--resume", str(journal),
        "--out", str(tmp_path / "first"))
    rest = ["--data", str(dataset_dir)]
    if case == "other-data":
        # Another dataset of the same size.
        other = tmp_path / "other"
        assert run(capsys, "gen", "--seed", "1", "--count", "25", "--out", str(other))[0] == 0
        rest = ["--data", str(other)]
    elif case == "step-base-3":
        rest += ["--step-base", "3"]
    else:
        # A one-line JSON file, without a trailing newline.
        journal = tmp_path / "notes.json"
        journal.write_text(json.dumps(json.loads(pool_file.read_text())))
    before = journal.read_bytes()
    code, stdout, stderr = run(capsys, *base, *rest, "--resume", str(journal),
                               "--out", str(tmp_path / "r"))
    assert code == 2 and stdout == ""
    assert f"{journal}:1: first line" in stderr
    assert journal.read_bytes() == before
    assert not list(tmp_path.glob("r.*"))


def test_search_journal_replays_through_a_table_oracle(tmp_path, dataset_dir, pool_file, capsys):
    base = ["search", "--pool", str(pool_file), "--data", str(dataset_dir)]
    journal = tmp_path / "j.txt"
    assert run(capsys, *base, "--resume", str(journal), "--out", str(tmp_path / "first"))[0] == 0
    assert journal.read_text().startswith("# oracle: synthetic(")
    code, _, _ = run(capsys, *base, "--oracle", f"table:{journal}", "--out", str(tmp_path / "replay"))
    assert code == 0
    first = json.loads((tmp_path / "first.json").read_text())
    replay = json.loads((tmp_path / "replay.json").read_text())
    assert replay["ranked"] == first["ranked"]
    assert replay["baseline"] == first["baseline"]
    assert replay["oracle_id"].startswith("table(")


def test_search_pool_with_a_repeated_descriptor_is_data_error(tmp_path, dataset_dir, capsys):
    from cadorder.features import brown_features, descriptor_record

    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps([descriptor_record(fd) for fd in brown_features() * 2][:4]))
    code, stdout, stderr = run(capsys, "search", "--pool", str(dup), "--data", str(dataset_dir),
                               "--out", str(tmp_path / "r"))
    assert code == 2 and stdout == ""
    assert f"{dup}: descriptor 'max_mp d_v' is listed twice" in stderr
    assert not list(tmp_path.glob("r.*"))


def test_search_pool_with_two_spellings_of_one_class_is_data_error(tmp_path, dataset_dir, capsys):
    pool = tmp_path / "pool.json"
    records = [{"kernel": "DEGREE", "pipeline": stages} for stages in
               (["max_mp", "id", "id", "id"], ["max_m", "max_p", "id", "id"])]
    pool.write_text(json.dumps(records))
    code, stdout, stderr = run(capsys, "search", "--pool", str(pool), "--data", str(dataset_dir),
                               "--out", str(tmp_path / "r"))
    assert code == 2 and stdout == ""
    assert stderr == (f"error: {pool}: records 0 and 1, 'max_mp d_v' and 'max_p max_m d_v', "
                      "are one feature class\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param("search --pool {t}/pool.json --data {t}/data --out {t}/pool",
                     "output {t}/pool.json is an input", id="search-over-pool"),
        pytest.param("search --pool {t}/pool.json --data {t}/data --oracle table:{t}/times.csv "
                     "--out {t}/times", "output {t}/times.csv is an input", id="search-over-table"),
        pytest.param("search --pool {t}/pool.json --data {t}/data --out {t}/data/manifest",
                     "output {t}/data/manifest.json is an input", id="search-into-dataset"),
        pytest.param("search --pool {t}/pool.json --data {t}/data --resume {t}/pool.json "
                     "--out {t}/r", "--resume {t}/pool.json is an input", id="resume-pool"),
        pytest.param("search --pool {t}/pool.json --data {t}/data --oracle table:{t}/times.csv "
                     "--resume {t}/times.csv --out {t}/r", "--resume {t}/times.csv is an input",
                     id="resume-table"),
        pytest.param("search --pool {t}/pool.json --data {t}/data --resume {t}/r.json "
                     "--out {t}/r", "--resume {t}/r.json is an input or an output", id="resume-output"),
        pytest.param("search --pool {t}/pool.json --data {t}/data --resume {t}/r.json.manifest.json "
                     "--out {t}/r", "--resume {t}/r.json.manifest.json is", id="resume-manifest"),
        pytest.param("order --problem {t}/a.poly --out {t}/a.poly",
                     "output {t}/a.poly is an input", id="order-over-problem"),
        pytest.param("check --data {t}/data --triplet {t}/t.json.manifest.json --out {t}/t.json",
                     "output {t}/t.json.manifest.json is an input", id="check-manifest-over-triplet"),
        pytest.param("train --train {t}/data --val {t}/data --triplet {t}/t.json --out {t}/t",
                     "output {t}/t.json is an input", id="train-over-triplet"),
    ],
)
def test_output_over_an_input_is_usage_error(tmp_path, dataset_dir, pool_file, problem_file,
                                             capsys, argv, message):
    from cadorder.features import brown_features, descriptor_record

    (tmp_path / "times.csv").write_text("problem,ordering,time_s,timed_out\n")
    records = json.dumps([descriptor_record(fd) for fd in brown_features()])
    (tmp_path / "t.json").write_text(records)
    (tmp_path / "t.json.manifest.json").write_text(records)
    (tmp_path / "r.json.manifest.json").write_text("{}")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code, stdout, stderr = run(capsys, *argv.format(t=tmp_path).split())
    assert code == 1 and stdout == ""
    assert f"usage error: {message.format(t=tmp_path)}" in stderr
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("top_k", ["0", "-2"])
def test_search_top_k_below_one_is_usage_error(tmp_path, dataset_dir, pool_file, capsys, top_k):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--pool", str(pool_file), "--data", str(dataset_dir),
              "--top-k", top_k, "--out", str(tmp_path / "r")])
    assert exc.value.code == 1
    stderr = capsys.readouterr().err
    assert "--top-k: must be >= 1" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "r.json").exists()


def test_search_table_oracle_missing_pair(tmp_path, dataset_dir, pool_file, capsys):
    csv_path = tmp_path / "times.csv"
    csv_path.write_text("problem,ordering,time_s,timed_out\nrnd-0-0,x0>x1>x2,1.0,false\n")
    code, _, stderr = run(
        capsys,
        "search",
        "--pool", str(pool_file),
        "--data", str(dataset_dir),
        "--oracle", f"table:{csv_path}",
        "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert "no timing record" in stderr


def test_check_command(dataset_dir, tmp_path, capsys):
    out = tmp_path / "check.json"
    code, stdout, _ = run(capsys, "check", "--data", str(dataset_dir), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["total"] == 25
    assert payload["mismatches"] == []


def test_check_force_w_reports_violation(tmp_path, capsys):
    data = tmp_path / "one"
    data.mkdir()
    (data / "b.poly").write_text(PROBLEM_B_TEXT + "\n")
    code, stdout, _ = run(capsys, "check", "--data", str(data), "--force-w", "2")
    assert code == 3
    assert "1 weight violations" in stdout


def test_check_tampered_dataset_file_is_data_error(dataset_dir, capsys):
    tampered = sorted(dataset_dir.glob("*.poly"))[3]
    tampered.write_text(tampered.read_text() + "x0\n")
    code, _, stderr = run(capsys, "check", "--data", str(dataset_dir))
    assert code == 2
    assert tampered.name in stderr and "sha256" in stderr


def test_constant_only_problem_is_data_error(tmp_path, capsys):
    data = tmp_path / "const"
    data.mkdir()
    (data / "five.poly").write_text("5\n")
    code, stdout, stderr = run(capsys, "check", "--data", str(data))
    assert code == 2
    assert "five.poly: problem has no variables" in stderr
    code, stdout, stderr = run(capsys, "order", "--heuristic", "brown",
                               "--problem", str(data / "five.poly"))
    assert code == 2 and stdout == ""
    assert "problem has no variables" in stderr


def test_parse_error_in_dataset_names_its_file(tmp_path, capsys):
    data = tmp_path / "bad"
    data.mkdir()
    (data / "a.poly").write_text(PROBLEM_A_TEXT + "\n")
    (data / "b.poly").write_text("vars: x\nx ? 2\n")
    code, _, stderr = run(capsys, "check", "--data", str(data))
    assert code == 2
    bad = data / "b.poly"
    assert f"{bad}: unexpected character '?' (line 2, col 3)" in stderr


def test_parse_error_in_problem_file_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("vars: x\nx ? 2\n")
    code, _, stderr = run(capsys, "order", "--heuristic", "brown", "--problem", str(bad))
    assert code == 2
    assert f"{bad}: unexpected character '?' (line 2, col 3)" in stderr


@pytest.mark.parametrize("source", ["manifest", "no-manifest", "order"])
def test_non_utf8_problem_file_is_data_error(tmp_path, capsys, source):
    data = tmp_path / "data"
    data.mkdir()
    bad = data / "u.poly"
    bad.write_bytes(b"vars: x\nx^2 \xff\n")
    if source == "manifest":
        entry = {"name": "u.poly", "id": "u", "sha256": hashlib.sha256(bad.read_bytes()).hexdigest()}
        (data / "manifest.json").write_text(json.dumps({"files": [entry]}))
    if source == "order":
        argv = ["order", "--heuristic", "brown", "--problem", str(bad)]
    else:
        argv = ["check", "--data", str(data)]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert f"{bad}: not UTF-8: invalid start byte (byte 0xff at offset 12)" in stderr


@pytest.mark.parametrize(
    "manifest, message",
    [
        pytest.param("{}", "expected an object with a 'files' list", id="no-files"),
        pytest.param("[]", "expected an object with a 'files' list", id="list"),
        pytest.param('{"files": [{"name": "a.poly", "id": "a"}]}', "files[0] has no 'sha256' string",
                     id="no-sha256"),
        pytest.param('{"files": [', "Expecting value", id="truncated"),
        # Names outside the directory; the relative two reach a file with this sha256.
        pytest.param('{"files": [{"name": "../x.poly", "id": "x", "sha256": "SHA"}]}',
                     "files[0] name '../x.poly' is not a plain file name", id="parent-dir"),
        pytest.param('{"files": [{"name": "/tmp/x.poly", "id": "x", "sha256": "SHA"}]}',
                     "files[0] name '/tmp/x.poly' is not a plain file name", id="absolute"),
        pytest.param('{"files": [{"name": "sub/x.poly", "id": "x", "sha256": "SHA"}]}',
                     "files[0] name 'sub/x.poly' is not a plain file name", id="subdir"),
    ],
)
def test_malformed_manifest_is_data_error(tmp_path, capsys, manifest, message):
    data = tmp_path / "data"
    (data / "sub").mkdir(parents=True)
    text = PROBLEM_A_TEXT + "\n"
    for file in (data / "a.poly", data / "sub" / "x.poly", tmp_path / "x.poly"):
        file.write_text(text)
    sha = hashlib.sha256(text.encode()).hexdigest()
    (data / "manifest.json").write_text(manifest.replace("SHA", sha))
    code, _, stderr = run(capsys, "check", "--data", str(data))
    assert code == 2
    assert f"{data / 'manifest.json'}: " in stderr and message in stderr


_GOOD_RECORD = {"kernel": "DEGREE", "pipeline": ["max_mp", "id", "id", "id"]}


@pytest.mark.parametrize(
    "record, message",
    [
        pytest.param({"kernel": "FOO", "pipeline": _GOOD_RECORD["pipeline"]},
                     "kernel: unknown kernel 'FOO'", id="unknown-kernel"),
        pytest.param({"kernel": "DEGREE", "pipeline": ["max_mp", "id", "id", "bar"]},
                     "pipeline: unknown stage 'bar'", id="unknown-stage"),
        pytest.param({"kernel": "DEGREE"}, "descriptor record has no 'pipeline'", id="no-pipeline"),
        pytest.param("DEGREE", "descriptor record must be an object", id="not-an-object"),
        pytest.param({"kernel": "DEGREE", "pipeline": ["max_m", "id", "id", "id"]},
                     "pipeline left axis state 'p' unreduced", id="invalid-pipeline"),
    ],
)
@pytest.mark.parametrize("command", ["order", "search"])
def test_bad_descriptor_record_is_data_error(tmp_path, problem_file, capsys, command, record, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([_GOOD_RECORD, record, _GOOD_RECORD]))
    if command == "order":
        argv = ["order", "--heuristic", str(bad), "--problem", str(problem_file)]
    else:
        argv = ["search", "--pool", str(bad), "--data", str(tmp_path), "--out", str(tmp_path / "s")]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert f"{bad}: record 1: {message}" in stderr


@pytest.mark.parametrize("command", ["check", "search"])
def test_file_missing_from_manifest_is_data_error(dataset_dir, pool_file, tmp_path, capsys, command):
    gone = dataset_dir / json.loads((dataset_dir / "manifest.json").read_text())["files"][3]["name"]
    gone.unlink()
    if command == "check":
        argv = ["check", "--data", str(dataset_dir)]
    else:
        argv = ["search", "--pool", str(pool_file), "--data", str(dataset_dir), "--out", str(tmp_path / "s")]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert f"{gone}: listed in manifest.json but missing" in stderr


@pytest.mark.parametrize("command", ["check", "search", "train"])
def test_empty_dataset_is_data_error(dataset_dir, pool_file, tmp_path, capsys, command):
    empty = tmp_path / "empty"
    empty.mkdir()
    argv = {
        "check": ["check", "--data", str(empty)],
        "search": ["search", "--pool", str(pool_file), "--data", str(empty), "--out", str(tmp_path / "s")],
        "train": ["train", "--train", str(empty), "--val", str(dataset_dir), "--epochs", "1",
                  "--out", str(tmp_path / "t")],
    }[command]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr == f"error: no .poly files under {empty}\n"


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_invalid_jobs_env_is_usage_error(dataset_dir, pool_file, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CADORDER_JOBS", value)
    code, _, stderr = run(capsys, "search", "--pool", str(pool_file), "--data", str(dataset_dir),
                          "--out", str(tmp_path / "s"))
    assert code == 1
    assert "CADORDER_JOBS" in stderr and repr(value) in stderr
    assert not (tmp_path / "s.json").exists()


def test_jobs_env_sets_default_and_flag_overrides(dataset_dir, pool_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CADORDER_JOBS", "3")
    base = ["search", "--pool", str(pool_file), "--data", str(dataset_dir), "--out", str(tmp_path / "s")]
    assert run(capsys, *base)[0] == 0
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert manifest["config"]["jobs"] == 3
    assert run(capsys, *base, "--jobs", "2")[0] == 0
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert manifest["config"]["jobs"] == 2


@pytest.mark.parametrize("value", ["0", "abc"])
def test_invalid_jobs_flag_is_usage_error(dataset_dir, pool_file, tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--pool", str(pool_file), "--data", str(dataset_dir),
              "--out", str(tmp_path / "s"), "--jobs", value])
    assert exc.value.code == 1
    stderr = capsys.readouterr().err
    assert "--jobs: must be" in stderr
    assert "_positive_int" not in stderr


def test_check_has_no_jobs(dataset_dir, tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--data", str(dataset_dir), "--jobs", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    # CADORDER_JOBS sets search's oracle concurrency only; check never reads it.
    monkeypatch.setenv("CADORDER_JOBS", "abc")
    out = tmp_path / "check.json"
    assert run(capsys, "check", "--data", str(dataset_dir), "--out", str(out))[0] == 0
    manifest = json.loads((tmp_path / "check.json.manifest.json").read_text())
    assert "jobs" not in manifest["config"]


def test_gen_manifest_times_its_stages(tmp_path, capsys):
    out = tmp_path / "ds"
    assert run(capsys, "gen", "--count", "5", "--out", str(out))[0] == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    generate_s, write_s = manifest["generate_s"], manifest["write_s"]
    assert generate_s > 0 and write_s > 0
    assert generate_s + write_s <= manifest["wall_time_s"] + 2e-6


def test_check_manifest_times_its_stages(dataset_dir, tmp_path, capsys):
    out = tmp_path / "check.json"
    assert run(capsys, "check", "--data", str(dataset_dir), "--out", str(out))[0] == 0
    manifest = json.loads((tmp_path / "check.json.manifest.json").read_text())
    load_s, check_s = manifest["load_s"], manifest["check_s"]
    assert load_s >= 0 and check_s >= 0
    # Each time is rounded to the microsecond on its own.
    assert load_s + check_s <= manifest["wall_time_s"] + 2e-6


def test_search_manifest_times_its_stages(dataset_dir, pool_file, tmp_path, capsys):
    out = tmp_path / "s"
    argv = ["search", "--pool", str(pool_file), "--data", str(dataset_dir), "--out", str(out)]
    assert run(capsys, *argv)[0] == 0
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    load_s, search_s = manifest["load_s"], manifest["search_s"]
    assert load_s >= 0 and search_s > 0
    assert load_s + search_s <= manifest["wall_time_s"] + 2e-6


def test_train_manifest_times_its_stages(dataset_dir, tmp_path, capsys):
    argv = ["train", "--train", str(dataset_dir), "--val", str(dataset_dir), "--epochs", "1",
            "--out", str(tmp_path / "t")]
    assert run(capsys, *argv)[0] == 0
    manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
    load_s, train_s = manifest["load_s"], manifest["train_s"]
    assert load_s >= 0 and train_s > 0
    assert load_s + train_s <= manifest["wall_time_s"] + 2e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "x"],
        ["gen", "--count", "2", "--n-vars", "0"],
        ["gen", "--count", "2", "--min-polys", "5", "--max-polys", "2"],
        ["train", "--train", "t", "--val", "v", "--epochs", "0"],
        ["train", "--train", "t", "--val", "v", "--batch-size", "-3"],
    ],
)
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, argv):
    try:
        code = main([*argv, "--out", str(tmp_path / "out")])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    stderr = capsys.readouterr().err
    assert "error: " in stderr
    assert "_positive_int" not in stderr and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_old_report(tmp_path, capsys, monkeypatch):
    from cadorder import atomic

    path = tmp_path / "report.json"
    path.write_text("old\n")
    # A text the file's encoding cannot hold fails inside the write.
    with pytest.raises(UnicodeEncodeError):
        atomic.write_text(path, "new \ud800\n")
    assert path.read_text() == "old\n"

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(atomic.os, "replace", failing_replace)
    from cadorder.features import FeatureSet, brown_features

    with pytest.raises(OSError, match="disk gone"):
        FeatureSet.from_descriptors(brown_features()).save(path)
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_train_command(tmp_path, capsys):
    train_dir, val_dir = tmp_path / "train", tmp_path / "val"
    main(["gen", "--seed", "0", "--count", "30", "--out", str(train_dir)])
    main(["gen", "--seed", "1", "--count", "10", "--out", str(val_dir)])
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys,
        "train",
        "--train", str(train_dir),
        "--val", str(val_dir),
        "--epochs", "1",
        "--out", str(out),
    )
    assert code == 0
    assert "epoch0 val cost" in stdout
    report = json.loads((tmp_path / "run.json").read_text())
    assert report["best_val_cost"] <= report["entries"][0]["val_cost"]
    ckpt = json.loads((tmp_path / "run.ckpt.json").read_text())
    assert len(ckpt["weights"]) == 3


def test_train_lr_zero_flat(tmp_path, capsys):
    train_dir, val_dir = tmp_path / "train", tmp_path / "val"
    main(["gen", "--seed", "3", "--count", "12", "--out", str(train_dir)])
    main(["gen", "--seed", "4", "--count", "6", "--out", str(val_dir)])
    code, _, _ = run(
        capsys,
        "train",
        "--train", str(train_dir),
        "--val", str(val_dir),
        "--lr", "0",
        "--epochs", "2",
        "--out", str(tmp_path / "flat"),
    )
    assert code == 0
    report = json.loads((tmp_path / "flat.json").read_text())
    costs = {e["val_cost"] for e in report["entries"]}
    assert len(costs) == 1


def test_bad_oracle_spec_is_data_error(dataset_dir, pool_file, tmp_path, capsys):
    cases = {
        "mystery": "--oracle 'mystery': unknown oracle",
        # Split when the oracle is built, before any call: the error names the flag
        # and the template.
        "cmd:true 'x {problem_file} {ordering}":
            "--oracle \"cmd:true 'x {problem_file} {ordering}\": command template does not "
            "split into arguments: No closing quotation",
    }
    for spec, message in cases.items():
        code, stdout, stderr = run(
            capsys,
            "search",
            "--pool", str(pool_file),
            "--data", str(dataset_dir),
            "--oracle", spec,
            "--timeout", "1",
            "--out", str(tmp_path / "r"),
        )
        assert code == 2 and stdout == ""
        assert stderr == f"error: {message}\n"
        assert not list(tmp_path.glob("r.*"))


_SOLVER = "cmd:true {problem_file} {ordering}"


@pytest.mark.parametrize(
    "command, flags, code, message",
    [
        ("search", ["--step-base", "nan"], 2, "step_base must be finite and positive"),
        ("search", ["--step-base", "inf"], 2, "step_base must be finite and positive"),
        ("search", ["--oracle", "table", "--timeout", "nan"], 2, "timeout must be finite"),
        ("search", ["--oracle", "table", "--timeout", "1", "--penalty", "nan"], 2,
         "penalty factor must be finite"),
        ("search", ["--oracle", "table", "--timeout", "1", "--penalty", "inf"], 2,
         "penalty factor must be finite"),
        ("search", ["--oracle", _SOLVER, "--timeout", "nan"], 2, "timeout must be finite"),
        ("search", ["--oracle", _SOLVER, "--timeout", "inf"], 2, "timeout must be finite"),
        ("search", ["--oracle", _SOLVER, "--timeout", "1", "--penalty", "inf"], 2,
         "penalty factor must be finite"),
        ("train", ["--lr", "nan"], 1, "learning_rate must be finite"),
        ("train", ["--lr", "inf"], 1, "learning_rate must be finite"),
        ("train", ["--temperature", "nan"], 1, "softmax_temperature must be finite"),
        ("train", ["--temperature", "inf"], 1, "softmax_temperature must be finite"),
    ],
)
def test_non_finite_settings_are_rejected(
    tmp_path, dataset_dir, pool_file, capsys, command, flags, code, message
):
    table = tmp_path / "times.csv"
    table.write_text("problem,ordering,time_s,timed_out\n")
    flags = [f"table:{table}" if f == "table" else f for f in flags]
    inputs = {"search": ["--pool", str(pool_file), "--data", str(dataset_dir)],
              "train": ["--train", str(dataset_dir), "--val", str(dataset_dir)]}[command]
    out = tmp_path / "r"
    got, _, stderr = run(capsys, command, *inputs, *flags, "--out", str(out))
    assert got == code
    assert message in stderr
    assert "Traceback" not in stderr
    assert not out.with_suffix(".json").exists()


def test_diverged_train_is_a_usage_error_without_traceback(tmp_path, dataset_dir):
    # A separate process: an uncaught exception would print its traceback.
    root = Path(__file__).parents[1]
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "cadorder.cli", "train", "--train", str(dataset_dir),
         "--val", str(dataset_dir), "--epochs", "1", "--init-weight", "1e300",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "usage error: non-finite loss at epoch 1\n"
    assert not out.with_suffix(".json").exists()


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    for name in ("gen", "features", "order", "search", "train", "check"):
        assert name in stdout


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param(flag, "0", "must be >= 1, got 0", id=flag)
        for flag in ("--search-count", "--train-count", "--val-count", "--epochs")
    ]
    + [
        pytest.param("--val-count", "x", "must be an integer >= 1, got 'x'", id="--val-count=x"),
        pytest.param("--pool-size", "-1", "must be >= 0, got -1", id="--pool-size=-1"),
        pytest.param("--lr", "nan", "learning_rate must be finite and >= 0, got nan",
                     id="--lr=nan"),
        pytest.param("--lr", "-1", "learning_rate must be finite and >= 0, got -1.0",
                     id="--lr=-1"),
    ],
)
def test_pipeline_script_counts_below_one_are_rejected(tmp_path, flag, value, message):
    root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_pipeline.py"), flag, value,
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # argparse's usage-error status
    assert f"{flag}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_pipeline_script_writes_its_tuned_network(tmp_path, capsys):
    root = Path(__file__).parents[1]
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, str(root / "scripts" / "run_pipeline.py"), "--search-count", "10",
         "--train-count", "30", "--val-count", "10", "--epochs", "2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        check=True,
    )
    report = json.loads((out / "train.json").read_text())
    rule = load_rule(out / "train.ckpt.json")
    assert rule.weights == report["final_weights"]
    assert list(rule.feature_scale) == report["feature_scale"]
    problem = tmp_path / "q.poly"
    problem.write_text(PROBLEM_B_TEXT + "\n")
    code, stdout, _ = run(capsys, "order", "--heuristic", str(out / "train.ckpt.json"),
                          "--problem", str(problem))
    pr = parse_file(problem, problem.read_bytes(), problem.stem)
    assert code == 0 and stdout == rule.order(feature_matrix(rule.triplet, pr)).names(pr) + "\n"


def test_pipeline_script_divergence_is_one_error_line(tmp_path):
    root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_pipeline.py"), "--init-weight", "nan",
         "--search-count", "3", "--train-count", "3", "--val-count", "2", "--epochs", "1",
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: non-finite loss at epoch 1\n"
    assert not (tmp_path / "out" / "train.json").exists()
