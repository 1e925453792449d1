import json
import math
import pathlib

import pytest

from charbox import ExperimentConfig, cached_field, run_config, theorem_survey
from charbox import survey as survey_mod
from charbox.boxes import format_box_spec
from charbox.survey import ConfigError, render_csv, render_json, write_report, CSV_HEADERS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sample_survey.csv"
CONFIG = pathlib.Path(__file__).parent.parent / "configs" / "sample_survey.json"


class TestConfig:
    def test_valid_roundtrip(self):
        cfg = ExperimentConfig.from_file(str(CONFIG))
        assert cfg.p_list == [31, 61] and cfg.n == 2 and cfg.seed == 42

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"p_list": [31], "n": 2, "bogus": 1})

    def test_eps_validated(self):
        with pytest.raises(ConfigError, match="eps"):
            ExperimentConfig.from_dict({"p_list": [31], "n": 2, "eps": 0.9, "random_boxes": 1})

    def test_box_regime_validated(self, tmp_path, capsys):
        from charbox.cli import main

        data = {"p_list": [31], "n": 2, "random_boxes": 1, "box_regime": "smal"}
        with pytest.raises(ConfigError, match="box_regime"):
            ExperimentConfig.from_dict(data)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert "box_regime" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_parse_error_has_line_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "p_list": [31,,]\n}\n')
        with pytest.raises(ConfigError, match=r"bad\.json:2:"):
            ExperimentConfig.from_file(str(bad))

    def test_needs_boxes(self):
        with pytest.raises(ConfigError, match="boxes"):
            ExperimentConfig.from_dict({"p_list": [31], "n": 2})


class TestSurvey:
    def test_empty_grid(self, tmp_path):
        cfg = ExperimentConfig(p_list=[], n=2, random_boxes=1)
        report = theorem_survey(cfg)
        assert report.rows == [] and report.all_ok
        text = render_csv(report)
        assert text.splitlines()[0] == ",".join(CSV_HEADERS)

    def test_explicit_boxes_and_chars(self):
        cfg = ExperimentConfig(
            p_list=[31], n=2, boxes=["-1:3,-1:4"], char_indices=[0, 7], seed=1
        )
        report = theorem_survey(cfg)
        assert len(report.rows) == 2
        k0 = next(r for r in report.rows if r["char_index"] == 0)
        # trivial character: norm sum (|B|-1)/|B| since 0 is in this box
        assert abs(k0["norm_sum"] - 11 / 12) < 1e-12
        assert k0["line_term"] == 4  # trivial on F_p: the omega-line count
        k7 = next(r for r in report.rows if r["char_index"] == 7)
        assert k7["line_term"] == 0  # k=7 is nontrivial on F_31

    def test_routes(self):
        ctx = cached_field(61, 2, seed=0)
        cfg = ExperimentConfig(
            p_list=[61], n=2,
            boxes=["0:3,0:4", "0:3,0:9", "0:3,0:55"],
            char_indices=[5], seed=1,
        )
        report = theorem_survey(cfg)
        routes = [r["route"] for r in report.rows]
        assert routes == ["direct", "subdivided", "tall"]
        threshold = 61 ** (0.5 + 0.3 / 2)
        assert 9 > math.sqrt(61 / 2) and 9 <= threshold and 55 > threshold
        assert all(r["_ok"] for r in report.rows)

    def test_golden_file(self, tmp_path):
        out = tmp_path / "survey.csv"
        code = run_config(str(CONFIG), out_override=str(out))
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_worker_determinism(self):
        base = dict(p_list=[31], n=2, random_boxes=3, random_chars=2, seed=9)
        rep1 = theorem_survey(ExperimentConfig(**base, workers=1))
        rep4 = theorem_survey(ExperimentConfig(**base, workers=4))
        assert render_csv(rep1) == render_csv(rep4)

    def test_json_format(self, tmp_path):
        cfg = ExperimentConfig(
            p_list=[31], n=2, boxes=["0:2,0:2"], char_indices=[3],
            format="json", out=str(tmp_path / "r.json"),
        )
        report = theorem_survey(cfg)
        text = write_report(report, cfg.out)
        data = json.loads(text)
        assert data["rows"][0]["route"] == "direct"
        assert (tmp_path / "r.json").exists()
        assert json.loads((tmp_path / "r.json").read_text()) == data

    def test_csv_has_lf_endings(self):
        cfg = ExperimentConfig(p_list=[31], n=2, boxes=["0:2,0:2"], char_indices=[3])
        text = render_csv(theorem_survey(cfg))
        assert "\r" not in text


class TestCli:
    def test_charsum_command(self, capsys):
        from charbox.cli import main

        code = main([
            "charsum", "--p", "31", "--n", "2", "--box", "0:3,0:4", "--char-index", "0",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["size"] == 12 and abs(out["sum_abs"] - 12) < 1e-9

    def test_moments_command(self, capsys):
        from charbox.cli import main

        code = main([
            "moments", "--p", "31", "--n", "2", "--char-index", "7",
            "--interval-len", "3", "--r", "2",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["within_bound"] and out["census_ok"]

    def test_run_command(self, tmp_path, capsys):
        from charbox.cli import main

        out = tmp_path / "o.csv"
        code = main(["run", str(CONFIG), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()


class TestErrorRows:
    def test_failed_row_recorded_survey_continues(self):
        # second box is invalid at p = 31 (edge > p): recorded, not raised
        cfg = ExperimentConfig(
            p_list=[31], n=2, boxes=["0:2,0:2", "0:40,0:2"], char_indices=[3], seed=1
        )
        report = theorem_survey(cfg)
        assert len(report.rows) == 2
        good, bad = report.rows
        assert good["_ok"] and good["route"] == "direct"
        assert not bad["_ok"] and bad["route"] == "error"
        assert bad["pass_flags"].startswith("error=")
        assert not report.all_ok

    def test_injected_fault_keeps_message_other_rows_identical(self, monkeypatch):
        cfg = dict(p_list=[31, 61], n=2, random_boxes=3, random_chars=2, seed=9)
        clean = theorem_survey(ExperimentConfig(**cfg))
        assert clean.all_ok and not any("_error" in row for row in clean.rows)
        target = clean.rows[3]
        real_sum = survey_mod.box_char_sum

        def faulty_sum(chi, box):
            if chi.k == target["char_index"] and format_box_spec(box) == target["box"]:
                raise ArithmeticError("injected fault")
            return real_sum(chi, box)

        monkeypatch.setattr(survey_mod, "box_char_sum", faulty_sum)
        faulty = theorem_survey(ExperimentConfig(**cfg))
        row = faulty.rows[3]
        assert row["route"] == "error" and row["pass_flags"] == "error=ArithmeticError"
        assert row["_error"] == "ArithmeticError: injected fault"
        clean_lines = render_csv(clean).splitlines()
        faulty_lines = render_csv(faulty).splitlines()
        assert len(clean_lines) == len(faulty_lines)
        assert [i for i, (a, b) in enumerate(zip(clean_lines, faulty_lines)) if a != b] == [4]
        assert "injected" not in render_csv(faulty) + render_json(faulty)
