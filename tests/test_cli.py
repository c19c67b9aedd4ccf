import json

import pytest

from conftest import UNREADABLE_JSON, unreadable_json
from threatbench import cli, pipeline
from threatbench.cli import main
from threatbench.evalx import classification_report

FAST_OVERRIDES = [
    "--override", "generator.n=400",
    "--override", "models.dense_ae.epochs=3",
    "--override", "models.iforest.n_trees=20",
    "--override", "models.importance_repeats=1",
]


def run_cli(args):
    return main(args)


class TestGenerate:
    def test_generate_writes_csv(self, tmp_path, capsys):
        code = run_cli(["generate", "phishing", "--seed", "7", "--out", str(tmp_path),
                        "--override", "generator.n=200"])
        assert code == 0
        assert (tmp_path / "phishing.csv").exists()
        assert "200 rows" in capsys.readouterr().out

    def test_generate_ueba_emits_events(self, tmp_path):
        code = run_cli(["generate", "ueba", "--out", str(tmp_path),
                        "--override", 'generator.overrides={"users": 3, "days": 2}'])
        assert code == 0
        assert (tmp_path / "ueba.csv").exists()
        assert (tmp_path / "events.jsonl").exists()


class TestRun:
    def test_run_and_evaluate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["run", "intrusion", "--seed", "42", "--out", str(out)] + FAST_OVERRIDES)
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "report.txt").exists()
        assert (out / "data" / "intrusion.csv").exists()
        assert (out / "models" / "isolation_forest.json").exists()
        capsys.readouterr()

        code = run_cli(["evaluate", "--report", str(out / "report.json")])
        printed = capsys.readouterr().out
        assert code in (0, 1)  # tiny run may miss bands; the lines must be there
        assert "intrusion/isolation_forest" in printed

    def test_run_respects_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "domain": "phishing",
            "seed": 5,
            "generator": {"n": 300, "anomaly_rate": 0.2},
            "models": {"boosting": {"n_rounds": 10}, "logistic": {"epochs": 50},
                       "forest": {"n_trees": 10}, "importance_repeats": 1},
        }))
        out = tmp_path / "out"
        assert run_cli(["run", "phishing", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 5
        assert report["config"]["generator"]["n"] == 300

    def test_echo_is_the_checked_config(self, tmp_path):
        """An int given for a float echoes as the float that ran, and a partial
        config file echoes every default key."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"models": {"dense_ae": {"epochs": 3}}}))
        out = tmp_path / "out"
        assert run_cli(["run", "intrusion", "--config", str(cfg_path), "--out", str(out),
                        "--override", "threshold_percentile=90"] + FAST_OVERRIDES) == 0
        text = (out / "report.json").read_text()
        report = json.loads(text)
        assert '"threshold_percentile": 90.0' in text and report["config"]["threshold_percentile"] == 90.0
        assert report["config"]["models"]["dense_ae"] == {"l1": 1e-5, "epochs": 3, "step_size": 0.01, "batch_size": 64}
        assert report["config"]["models"]["boosting"]["lam"] == 1.0
        assert report["config"]["preprocess"] == pipeline.default_config("intrusion").preprocess

    def test_config_domain_conflict(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"domain": "malware"}))
        assert run_cli(["run", "phishing", "--config", str(cfg_path)]) == 2


class TestReportCommand:
    def test_report_renders_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(["run", "intrusion", "--out", str(out)] + FAST_OVERRIDES)
        capsys.readouterr()
        assert run_cli(["report", "--report", str(out / "report.json")]) == 0
        assert "isolation_forest" in capsys.readouterr().out

    def test_report_writes_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(["run", "intrusion", "--out", str(out)] + FAST_OVERRIDES)
        dest = tmp_path / "render"
        assert run_cli(["report", "--report", str(out / "report.json"), "--out", str(dest)]) == 0
        assert (dest / "report.txt").exists()


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert run_cli(["run", "intrusion", "--override", "bogus.key=1"]) == 2
        assert run_cli(["run", "intrusion", "--override", "generator.anomaly_rate=0.9"]) == 2
        assert run_cli(["run", "intrusion", "--override", "no-equals-sign"]) == 2
        assert run_cli(["run", "intrusion", "--override", 'threshold_percentile="x"']) == 2
        assert run_cli(["run", "malware", "--override", "models.boosting=5"]) == 2
        assert run_cli(["run", "malware", "--override", "preprocess.validation_fraction=0"]) == 2
        assert run_cli(["run", "intrusion", "--override", "generator.n=abc"]) == 2
        assert run_cli(["run", "phishing", "--override", "preprocess.downsample_ratio=x"]) == 2
        assert run_cli(["run", "phishing", "--override", "models.importance_repeats=x"]) == 2
        assert run_cli(["run", "malware", "--override", 'models.boosting.n_rounds="abc"']) == 2
        assert run_cli(["run", "malware", "--override", 'models.boosting.lam="x"']) == 2
        assert run_cli(["run", "malware", "--override", "models.forest.n_trees=0"]) == 2
        assert run_cli(["run", "malware", "--override", "models.boosting.n_rounds=0"]) == 2
        assert run_cli(["run", "malware", "--override", "models.boosting.subsample=0"]) == 2
        assert run_cli(["run", "malware", "--override", "models.boosting.subsample=1.5"]) == 2
        for key in ("models.bogus", "models.forest.bogus", "models.forest.n_tree", "preprocess.smote"):
            capsys.readouterr()
            assert run_cli(["run", "malware", "--override", f"{key}=5"]) == 2
            assert f"unknown config key {key}" in capsys.readouterr().err
        for domain, override, message in (
            ("phishing", "generator.bogus=1", "unknown config key generator.bogus"),
            ("ueba", 'generator.overrides={"users": "x"}', "generator.overrides.users must have the type of 100"),
            ("ueba", 'generator.overrides={"user": 5}', "unknown config key generator.overrides.user"),
            ("intrusion", 'models.dense_ae.layers="abc"', "models.dense_ae.layers must be a symmetric list"),
            ("malware", "preprocess.smote_k=0", "preprocess.smote_k must be >= 1"),
            ("ueba", "models.lstm_ae.batch_size=0", "models.lstm_ae.batch_size must be >= 1"),
            ("intrusion", "models.dense_ae.batch_size=0", "models.dense_ae.batch_size must be >= 1"),
            ("phishing", "models.importance_repeats=0", "models.importance_repeats must be >= 1"),
            ("ueba", 'generator.overrides={"users": 2, "days": 1, "activity_mix": [1.0]}',
             "generator.overrides.activity_mix must hold one weight per entry"),
            ("ueba", 'generator.overrides={"activity_types": [], "activity_mix": []}',
             "generator.overrides.activity_mix must hold one weight per entry of a non-empty"),
            ("intrusion", "models.iforest.psi=1", "models.iforest.psi must be >= 2"),
            ("ueba", "preprocess.time_steps=0", "preprocess.time_steps must be >= 1"),
            ("phishing", "preprocess.time_steps=-1", "preprocess.time_steps must be >= 1"),
            ("ueba", "models.lstm_ae.latent=64", "models.lstm_ae.latent must be below models.lstm_ae.hidden"),
            ("ueba", "models.lstm_ae.hidden=0", "models.lstm_ae.latent must be below models.lstm_ae.hidden"),
            ("malware", 'generator.overrides={"file_types": ["exe"]}',
             "generator.overrides.benign_file_type_mix must hold one weight per entry"),
            ("phishing", 'generator.overrides={"attachment_types": ["pdf"]}',
             "generator.overrides.legit_attachment_mix must hold one weight per entry"),
            ("intrusion", "generator.anomaly_rate=0.9", "generator.anomaly_rate must be in (0, 0.5), got 0.9"),
            ("intrusion", "generator.n=50", "generator.n must be >= 100, got 50"),
            ("malware", "models.forest.max_depth=0", "models.forest.max_depth must be >= 1"),
            ("malware", "models.forest.min_samples_split=1", "models.forest.min_samples_split must be >= 2"),
            ("malware", "models.boosting.early_stopping_rounds=0", "models.boosting.early_stopping_rounds must be >= 1"),
            ("phishing", "models.logistic.step_size=0", "models.logistic.step_size must be a finite number > 0"),
            ("intrusion", "models.dense_ae.step_size=-1", "models.dense_ae.step_size must be a finite number > 0"),
            ("ueba", "models.lstm_ae.step_size=1e999", "models.lstm_ae.step_size must be a finite number > 0"),
            ("phishing", "models.boosting.learning_rate=-1", "models.boosting.learning_rate must be a finite number > 0"),
            ("phishing", "models.boosting.learning_rate=NaN", "models.boosting.learning_rate must be a finite number > 0"),
            ("phishing", "models.boosting.lam=-1", "models.boosting.lam must be a finite number >= 0"),
            ("phishing", "models.boosting.lam=NaN", "models.boosting.lam must be a finite number >= 0"),
            ("phishing", "models.boosting.gamma=-1", "models.boosting.gamma must be a finite number >= 0"),
            ("phishing", "models.boosting.gamma=NaN", "models.boosting.gamma must be a finite number >= 0"),
            ("phishing", "models.logistic.l2=-1", "models.logistic.l2 must be a finite number >= 0"),
            ("intrusion", "models.dense_ae.l1=-1", "models.dense_ae.l1 must be a finite number >= 0"),
            ("intrusion", "models.dense_ae.l1=1e999", "models.dense_ae.l1 must be a finite number >= 0"),
        ):
            capsys.readouterr()
            assert run_cli(["run", domain, "--override", override]) == 2
            err = capsys.readouterr().err
            assert message in err and "stage" not in err  # raised before the first stage

    def test_internal_error_is_5_without_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("kernel broke")

        monkeypatch.setattr(pipeline, "fit_isolation_forest", broken)
        assert run_cli(["run", "intrusion", "--out", str(tmp_path)] + FAST_OVERRIDES) == 5
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: stage 'fit_isolation_forest': kernel broke" in err
        assert "Traceback" not in err

    def test_too_deep_override_is_2(self, capsys):
        assert run_cli(["run", "phishing", "--override", "generator.overrides=" + "[" * 5000]) == 2
        assert "config error: override 'generator.overrides' is nested too deeply" in capsys.readouterr().err

    def test_too_deep_config_is_2(self, tmp_path, capsys):
        """Deep enough to parse, too deep for the config's copy and checks."""
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text('{"generator": {"overrides": {"users": ' + "[" * 600 + "]" * 600 + "}}}")
        assert run_cli(["run", "ueba", "--config", str(cfg_path)]) == 2
        assert "config error: config is nested too deeply" in capsys.readouterr().err

    def test_data_error_is_3(self, tmp_path):
        assert run_cli(["evaluate", "--report", str(tmp_path / "missing.json")]) == 3

    def test_missing_config_file_is_2(self, tmp_path):
        assert run_cli(["run", "intrusion", "--config", str(tmp_path / "none.json")]) == 2

    def test_non_object_config_file_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1]")
        assert run_cli(["run", "intrusion", "--config", str(cfg_path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_bad_expectations_file_is_2(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["run", "intrusion", "--out", str(out)] + FAST_OVERRIDES)
        assert run_cli(["evaluate", "--report", str(out / "report.json"),
                        "--expectations", str(tmp_path / "none.json")]) == 2


class TestEvaluate:
    def test_custom_expectations(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(["run", "intrusion", "--out", str(out)] + FAST_OVERRIDES)
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({"intrusion": {"isolation_forest": {"min_auc": 0.0}}}))
        capsys.readouterr()
        assert run_cli(["evaluate", "--report", str(out / "report.json"), "--expectations", str(exp)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_band_returns_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(["run", "intrusion", "--out", str(out)] + FAST_OVERRIDES)
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({"intrusion": {"isolation_forest": {"min_auc": 1.01}}}))
        capsys.readouterr()
        assert run_cli(["evaluate", "--report", str(out / "report.json"), "--expectations", str(exp)]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run_cli(["run", "intrusion", "--out", str(out)] + FAST_OVERRIDES) == 0
    return out / "report.json"


class TestMalformedInput:
    @pytest.mark.parametrize("document", [
        [1],
        {"intrusion": 5},
        {"intrusion": {"isolation_forest": 5}},
        {"intrusion": {"isolation_forest": {"min_auc": "x"}}},
        {"intrusion": {"isolation_forest": {"min_auc": None}}},
        {"intrusion": {"isolation_forest": {"min_auc": True}}},
        {"intrusion": {"isolation_forest": {"min_aucc": 0.5}}},
        {"malware": {"random_forest": {"min_accuracy": []}}},
    ])
    def test_malformed_expectations_are_2(self, report_path, tmp_path, capsys, document):
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps(document))
        capsys.readouterr()
        assert run_cli(["evaluate", "--report", str(report_path), "--expectations", str(exp)]) == 2
        assert f"config error: expectations file {exp}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit", [
        ("evaluate", lambda doc: doc.update(models=5)),
        ("evaluate", lambda doc: doc["models"]["isolation_forest"].pop("accuracy")),
        ("evaluate", lambda doc: doc["models"]["isolation_forest"].pop("roc_auc")),
        ("evaluate", lambda doc: doc["models"]["isolation_forest"].update(roc_auc="x")),
        ("report", lambda doc: doc.update(models=5)),
        ("report", lambda doc: doc["models"]["isolation_forest"].pop("accuracy")),
        ("report", lambda doc: doc["models"]["isolation_forest"].update(accuracy="x")),
    ])
    def test_malformed_report_is_3(self, report_path, tmp_path, capsys, command, edit):
        doc = json.loads(report_path.read_text())
        edit(doc)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({"intrusion": {"isolation_forest": {"min_accuracy": 0.0, "min_auc": 0.0}}}))
        capsys.readouterr()
        args = ["--expectations", str(exp)] if command == "evaluate" else []
        assert run_cli([command, "--report", str(bad)] + args) == 3
        assert f"data error: malformed report document {bad}" in capsys.readouterr().err


class TestUnreadableInput:
    @pytest.mark.parametrize("kind", UNREADABLE_JSON)
    @pytest.mark.parametrize("command, flag, code", [
        ("run", "--config", 2),
        ("evaluate", "--expectations", 2),
        ("evaluate", "--report", 3),
        ("report", "--report", 3),
    ])
    def test_exit_code(self, report_path, tmp_path, capsys, kind, command, flag, code):
        bad = unreadable_json(tmp_path, kind)
        args = {"run": ["run", "phishing"], "evaluate": ["evaluate", "--report", str(report_path)],
                "report": ["report"]}[command]
        capsys.readouterr()
        assert run_cli(args + [flag, str(bad)]) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data error: ") and str(bad) in err
        assert "internal error" not in err


class TestUnwritableOut:
    def test_out_below_a_file_is_3(self, report_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for args in (["generate", "phishing"], ["run", "phishing"], ["report", "--report", str(report_path)]):
            capsys.readouterr()
            assert run_cli(args + ["--out", str(blocker / "sub")]) == 3, args
            assert capsys.readouterr().err.startswith("data error: cannot write ")

    def test_report_txt_that_is_a_directory_is_3(self, report_path, tmp_path, capsys):
        (tmp_path / "report.txt").mkdir()
        capsys.readouterr()
        assert run_cli(["report", "--report", str(report_path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: cannot write {tmp_path / 'report.txt'}")

    def test_models_dir_that_cannot_be_made_leaves_data_and_no_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "models").write_text("")
        assert run_cli(["run", "intrusion", "--out", str(out)] + FAST_OVERRIDES) == 3
        assert capsys.readouterr().err.startswith(f"data error: cannot write under {out / 'models'}")
        assert (out / "data" / "intrusion.csv").exists()
        assert not (out / "report.json").exists()


def test_band_getters_and_summary_read_the_metrics_dict():
    """`classification_report` returns the block a report holds per model."""
    metrics = classification_report([0, 1, 1, 0, 1], [0, 1, 0, 0, 1], scores=[0.1, 0.9, 0.4, 0.2, 0.8],
                                    positive_label="threat")
    for label, getter in cli._BAND_METRICS.values():
        assert type(getter(metrics)) is float, label
    report = pipeline.RunReport(domain="intrusion", config={"seed": 1}, toolkit_version="0",
                                dataset={"n": 5}, stages=["evaluate"], models={"m": metrics})
    summary = pipeline.render_summary(report)
    assert "model: m" in summary and "ROC-AUC: 1.0000" in summary
    assert "confusion: tp=2 fp=0 fn=1 tn=2" in summary
