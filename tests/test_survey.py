import collections
import dataclasses
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from charbox import Character, ExperimentConfig, box_char_sum, cached_field, run_config, theorem_survey
from charbox import boxes, field
from charbox import survey as survey_mod
from charbox.boxes import Box, format_box_spec, small_edge_cap, tall_box_identity
from charbox.survey import ConfigError, render_csv, render_json, emit_report, CSV_HEADERS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sample_survey.csv"
CONFIG = pathlib.Path(__file__).parent.parent / "configs" / "sample_survey.json"
FAULT_GRID = dict(p_list=[31, 61], n=2, random_boxes=3, random_chars=2, seed=9)
FAULT_ARGV = ["--p", "31,61", "--n", "2", "--random-boxes", "3", "--random-chars", "2",
              "--seed", "9"]


def _inject_fault(monkeypatch, target: dict) -> None:
    """Make the survey's box_char_sum raise on the (character, box) of one
    clean row."""
    real_sum = survey_mod.box_char_sum

    def faulty_sum(chi, box):
        if chi.k == target["char_index"] and format_box_spec(box) == target["box"]:
            raise ArithmeticError("injected fault")
        return real_sum(chi, box)

    monkeypatch.setattr(survey_mod, "box_char_sum", faulty_sum)


def _workers() -> dict:
    """pid -> multiprocessing.Process of the live survey pool."""
    return dict(survey_mod._POOL[2]._processes)


def _worker_field_keys() -> tuple[int, set]:
    """Run in a pool worker: its pid and the keys of its field cache, after a
    pause that leaves the next task to another worker."""
    time.sleep(0.05)
    return os.getpid(), set(field._FIELD_CACHE)


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

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"p_list": 31, "n": 2, "random_boxes": 1}, "p_list must be list[int], got 31"),
            ({"p_list": [31], "n": 2, "random_boxes": 1, "workers": "2"}, "workers must be int, got '2'"),
            ({"p_list": [31], "n": 2, "boxes": ["0:3,0:3", 7]}, "boxes must be list[str] | None"),
            ({"p_list": [31], "n": True, "random_boxes": 1}, "n must be int, got True"),
            ({"n": 2, "random_boxes": 1}, "missing config fields: ['p_list']"),
            ({"p_list": [31], "n": 2, "random_boxes": 1, "seed": -1},
             "seed and basis_seed must be >= 0, got -1, 1"),
            ({"p_list": [31], "n": 2, "random_boxes": 1, "basis_seed": -3},
             "seed and basis_seed must be >= 0, got 0, -3"),
            ({"p_list": [31], "n": 2, "random_boxes": 1, "modulus": []},
             "modulus must have n + 1 = 3 coefficients, got []"),
            ({"p_list": [31], "n": 2, "random_boxes": 1, "modulus": [1, 1]},
             "modulus must have n + 1 = 3 coefficients, got [1, 1]"),
        ],
    )
    def test_field_types_validated(self, tmp_path, capsys, data, message):
        from charbox.cli import main

        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(data)
        assert message in str(exc.value)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {exc.value}\n"

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

    @pytest.mark.parametrize("p", [7, 31, 61, 101])
    def test_route_boundary_is_small_edge_cap(self, p):
        cap = small_edge_cap(p)
        cfg = ExperimentConfig(p_list=[p], n=2, boxes=[f"0:1,0:{cap}", f"0:{cap + 1},0:1"],
                               char_indices=[5], seed=1)
        report = theorem_survey(cfg)
        assert [r["route"] for r in report.rows] == ["direct", "subdivided"]
        assert "piece_edges=P" in report.rows[1]["pass_flags"]
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
        assert emit_report(report, cfg.out) == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["rows"][0]["route"] == "direct"
        assert data["rows"] == json.loads(render_json(report))["rows"]

    def test_csv_has_lf_endings(self):
        cfg = ExperimentConfig(p_list=[31], n=2, boxes=["0:2,0:2"], char_indices=[3])
        text = render_csv(theorem_survey(cfg))
        assert "\r" not in text


# p = 101, n = 3: one direct, one subdivided and one tall box
ROUTE_GRID = dict(p_list=[101], n=3, boxes=["0:5,3:6,-7:4", "1:15,2:12,-3:18", "4:6,-2:7,10:60"],
                  char_indices=[5], seed=7, basis_seed=3)


class TestOneEnumeration:
    def test_each_box_enumerated_at_most_once(self, monkeypatch):
        calls = collections.Counter()  # Box object -> coords_grid calls
        real_grid = Box.coords_grid

        def counted_grid(box):
            calls[box] += 1
            return real_grid(box)

        monkeypatch.setattr(Box, "coords_grid", counted_grid)
        for spec, route in zip(ROUTE_GRID["boxes"], ("direct", "subdivided", "tall")):
            calls.clear()
            report = theorem_survey(ExperimentConfig(**{**ROUTE_GRID, "boxes": [spec]}))
            assert [r["route"] for r in report.rows] == [route] and report.all_ok
            assert calls and max(calls.values()) == 1, route
            # the subdivided row enumerates the box and each of its pieces
            assert (len(calls) > 1) == (route == "subdivided")

    def test_chi_evaluated_once_per_row(self, monkeypatch):
        calls = []
        real_values = Character.values_at

        def counted_values(chi, idx):
            calls.append(len(idx))
            return real_values(chi, idx)

        monkeypatch.setattr(Character, "values_at", counted_values)
        for spec, route in zip(ROUTE_GRID["boxes"], ("direct", "subdivided", "tall")):
            calls.clear()
            report = theorem_survey(ExperimentConfig(**{**ROUTE_GRID, "boxes": [spec]}))
            assert [r["route"] for r in report.rows] == [route] and report.all_ok
            size = math.prod(int(part.split(":")[1]) for part in spec.split(","))
            assert calls == [size], route

    def test_tall_flag_compares_the_public_split(self, monkeypatch):
        seen = []
        real_identity = survey_mod.tall_box_identity

        def recording_identity(box):
            seen.append((box, real_identity(box)))
            return seen[-1][1]

        monkeypatch.setattr(survey_mod, "tall_box_identity", recording_identity)
        cfg = ExperimentConfig(**{**ROUTE_GRID, "boxes": ROUTE_GRID["boxes"][2:]})
        (row,) = theorem_survey(cfg).rows
        assert row["route"] == "tall" and "tall_identity=P" in row["pass_flags"]
        ((box, held),) = seen
        assert held and format_box_spec(box) == row["box"]
        fresh = Box(box.basis, box.N, box.H)
        assert tall_box_identity(fresh)
        total = box_char_sum(Character(box.ctx, row["char_index"]), fresh)
        bits = lambda z: np.complex128(z).tobytes()
        assert bits(total) == bits(complex(row["sum_re"], row["sum_im"]))


class TestExactChecksCanFail:
    """The route checks are integer equalities; a wrong walk or a wrong
    partition turns them to F and the row fails."""

    def test_foreign_walk_fails_tall_identity(self, monkeypatch):
        real_walk = boxes.tall_walk

        def foreign_walk(box):  # the walk of the box one step up the last axis
            return real_walk(Box(box.basis, box.N[:-1] + (box.N[-1] + 1,), box.H))

        monkeypatch.setattr(boxes, "tall_walk", foreign_walk)
        cfg = ExperimentConfig(**{**ROUTE_GRID, "boxes": ROUTE_GRID["boxes"][2:]})
        (row,) = theorem_survey(cfg).rows
        assert row["route"] == "tall" and "tall_identity=F" in row["pass_flags"]
        assert not row["_ok"]

    @pytest.mark.parametrize("fault", ["drop", "repeat"])
    def test_wrong_pieces_fail_partition_sum(self, monkeypatch, fault):
        real_subdivide = survey_mod.subdivide_box

        def faulty_subdivide(box):
            pieces = real_subdivide(box)
            return pieces[1:] if fault == "drop" else pieces + pieces[:1]

        monkeypatch.setattr(survey_mod, "subdivide_box", faulty_subdivide)
        cfg = ExperimentConfig(**{**ROUTE_GRID, "boxes": ROUTE_GRID["boxes"][1:2]})
        (row,) = theorem_survey(cfg).rows
        assert row["route"] == "subdivided" and "partition_sum=F" in row["pass_flags"]
        assert not row["_ok"]


class TestCli:
    def test_survey_tiny_prime_subdivides(self, capsys):
        # p = 7: every edge above the cap 1 splits into unit pieces (was error=BoxError)
        from charbox.cli import main

        assert main(["survey", "--p", "7", "--n", "2", "--box", "0:3,0:1", "--char-index", "5"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        row = out.out.splitlines()[1]
        assert ",subdivided," in row and "piece_edges=P" in row and "partition_sum=P" in row

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

    @pytest.mark.parametrize(
        "grid, errors",
        [
            (dict(p_list=[31, 33], n=2, boxes=["0:3,1:4", "0:3"], char_indices=[1, 7]),
             ["31,2,0.3,1,1,0:3,,0,0,0,0,0,error,error=BoxError",
              "31,2,0.3,7,1,0:3,,0,0,0,0,0,error,error=BoxError",
              '33,2,0.3,1,1,"0:3,1:4",,0,0,0,0,0,error,error=FieldError',
              '33,2,0.3,7,1,"0:3,1:4",,0,0,0,0,0,error,error=FieldError',
              "33,2,0.3,1,1,0:3,,0,0,0,0,0,error,error=FieldError",
              "33,2,0.3,7,1,0:3,,0,0,0,0,0,error,error=FieldError"]),
            # a random box or character that was never drawn reads "" and -1
            (dict(p_list=[31, 33], n=2, random_boxes=2, random_chars=2, seed=4),
             ["33,2,0.3,-1,1,,,0,0,0,0,0,error,error=FieldError"] * 4),
        ],
    )
    def test_error_rows_pinned(self, grid, errors):
        texts = [render_csv(theorem_survey(ExperimentConfig(**grid, workers=w))) for w in (1, 2)]
        assert texts[0] == texts[1]
        assert [line for line in texts[0].splitlines() if ",error," in line] == errors

    def test_injected_fault_keeps_message_other_rows_identical(self, monkeypatch):
        cfg = FAULT_GRID
        clean = theorem_survey(ExperimentConfig(**cfg))
        assert clean.all_ok and not any("_error" in row for row in clean.rows)
        target = clean.rows[3]
        _inject_fault(monkeypatch, target)
        faulty = theorem_survey(ExperimentConfig(**cfg))
        row = faulty.rows[3]
        assert row["route"] == "error" and row["pass_flags"] == "error=ArithmeticError"
        assert row["_error"] == "ArithmeticError: injected fault"
        clean_lines = render_csv(clean).splitlines()
        faulty_lines = render_csv(faulty).splitlines()
        assert len(clean_lines) == len(faulty_lines)
        assert [i for i, (a, b) in enumerate(zip(clean_lines, faulty_lines)) if a != b] == [4]
        assert "injected" not in render_csv(faulty) + render_json(faulty)

    @pytest.mark.parametrize("command", ["survey", "run"])
    def test_cli_prints_error_rows_report_unchanged(self, monkeypatch, capsys, tmp_path, command):
        from charbox.cli import main

        _inject_fault(monkeypatch, theorem_survey(ExperimentConfig(**FAULT_GRID)).rows[3])
        quiet = render_csv(theorem_survey(ExperimentConfig(**FAULT_GRID)))  # prints nothing
        assert capsys.readouterr().err == ""
        out = tmp_path / "o.csv"
        if command == "survey":
            argv = ["survey", *FAULT_ARGV, "--out", str(out)]
        else:
            config = tmp_path / "grid.json"
            config.write_text(json.dumps(FAULT_GRID))
            argv = ["run", str(config), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error row 3: ArithmeticError: injected fault\n"
        assert out.read_text(encoding="utf-8") == quiet


class TestPool:
    """workers > 1 reuses one process pool across theorem_survey calls."""

    GRID = dict(p_list=[31], n=2, random_boxes=3, random_chars=2, seed=9)

    def setup_method(self):
        cached_field(31, 2, seed=self.GRID["seed"])  # the parent holds the grid's field

    def _csv(self, workers: int, **kw) -> str:
        return render_csv(theorem_survey(ExperimentConfig(**{**self.GRID, **kw}, workers=workers)))

    def test_consecutive_calls_share_workers(self):
        first = self._csv(2)
        pids = set(_workers())
        assert len(pids) == 2
        assert self._csv(2) == first == self._csv(1)
        assert set(_workers()) == pids

    def test_new_worker_count_replaces_pool(self):
        self._csv(2)
        old = _workers()
        survey_mod._pool(3, set())  # at most one pool is alive: the old workers are joined first
        assert not any(proc.is_alive() for proc in old.values())
        assert self._csv(3) == self._csv(1)
        assert len(_workers()) == 3 and set(_workers()).isdisjoint(old)

    def test_killed_worker_pool_is_rebuilt(self):
        serial = self._csv(1)
        self._csv(2)
        old = _workers()
        killed, pool = next(iter(old)), survey_mod._POOL[2]
        os.kill(killed, signal.SIGKILL)
        # the executor learns of the death on its own thread; until it does,
        # the survivor could run the whole next call on the old pool
        deadline = time.monotonic() + 30
        while not (pool._broken or killed not in pool._processes):
            assert time.monotonic() < deadline, "the pool did not see its worker die within 30 s"
            time.sleep(0.01)
        assert self._csv(2) == serial
        assert len(_workers()) == 2 and set(_workers()).isdisjoint(old)

    def test_forked_child_starts_without_pool_or_held_lock(self):
        self._csv(2)
        with survey_mod._POOL_LOCK:
            pid = os.fork()
            if pid == 0:  # child: inspect, then leave at once without any cleanup
                clean = survey_mod._POOL is None and not survey_mod._POOL_LOCK.locked()
                os._exit(0 if clean else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert self._csv(2) == self._csv(1)  # the parent's pool is untouched

    def test_golden_twice_on_one_pool(self):
        cfg = ExperimentConfig.from_file(str(CONFIG))
        assert render_csv(theorem_survey(cfg)).encode() == GOLDEN.read_bytes()  # fields in the parent
        cfg = dataclasses.replace(cfg, workers=2)
        pids = []
        for _ in range(2):
            assert render_csv(theorem_survey(cfg)).encode() == GOLDEN.read_bytes()
            pids.append(set(_workers()))
        assert pids[0] == pids[1]

    def test_kept_pool_workers_hold_only_inherited_fields(self):
        self._csv(2)
        inherited = survey_mod._POOL[1]
        assert field.field_key(31, 2, seed=self.GRID["seed"]) in inherited
        assert survey_mod._POOL[2].submit(_worker_field_keys).result()[1] == inherited

    def test_field_the_parent_lacked_is_built_there_and_pool_kept(self):
        key = field.field_key(31, 2, seed=101)
        field._FIELD_CACHE.pop(key, None)
        first = self._csv(2, seed=101)
        assert key in field._FIELD_CACHE and survey_mod._POOL is not None
        pids = set(_workers())
        assert self._csv(2, seed=101) == first == self._csv(1, seed=101)
        assert set(_workers()) == pids
        inherited = survey_mod._POOL[1]
        assert key in inherited
        seen = {}
        deadline = time.monotonic() + 30
        while set(seen) != pids:
            assert time.monotonic() < deadline, "a worker took no task within 30 s"
            futures = [survey_mod._POOL[2].submit(_worker_field_keys) for _ in pids]
            seen.update(f.result() for f in futures)
        assert all(keys == inherited for keys in seen.values())

    def test_field_built_later_in_parent_starts_fresh_kept_pool(self):
        self._csv(2)
        old = _workers()
        serial = self._csv(1, seed=103)  # the parent builds the field after the pool started
        assert self._csv(2, seed=103) == serial
        assert not any(proc.is_alive() for proc in old.values())
        assert field.field_key(31, 2, seed=103) in survey_mod._POOL[1]
        assert set(_workers()).isdisjoint(old)

    def test_fault_patched_before_pool_start_reaches_workers(self, monkeypatch):
        _inject_fault(monkeypatch, theorem_survey(ExperimentConfig(**FAULT_GRID)).rows[3])
        serial = theorem_survey(ExperimentConfig(**FAULT_GRID))
        survey_mod._shutdown_pool()  # workers forked from here on carry the patch
        try:
            pooled = theorem_survey(ExperimentConfig(**FAULT_GRID, workers=2))
        finally:
            survey_mod._shutdown_pool()  # later tests must not meet patched workers
        assert pooled.rows[3]["route"] == "error"
        assert pooled.rows[3] == serial.rows[3]
        assert render_csv(pooled) == render_csv(serial)

    def test_cli_exits_with_live_pool(self):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(survey_mod.__file__).parents[1]))
        out = {}
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "charbox.cli", "survey", *FAULT_ARGV, "--workers", workers],
                env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            out[workers] = proc.stdout
        assert out["2"] == out["1"]
