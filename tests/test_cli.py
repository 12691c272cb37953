"""Tests for the command line interface, driven in-process."""

import json
import os

import numpy as np
import pytest

from wdnflow import bundled, cli
from wdnflow.scada import SensorPlacement
from wdnflow.scenario import ScenarioConfig, run_scenario, save_config
from wdnflow.uncertainty import UncertaintyModel

NO_SOURCE_INP = """
[JUNCTIONS]
 j1  5.0  0.001
[OPTIONS]
 Units CMS
"""

VALVE_FEED_INP = """
[JUNCTIONS]
 j1  0.0  0.05
[RESERVOIRS]
 r1  20.0
[VALVES]
 v1  r1  j1  200  TCV  4.0
[OPTIONS]
 Units CMS
"""


def write_config(tmp_path, name="scenario.json", **kw):
    defaults = dict(
        network_path=bundled.toy9_path(),
        duration_s=3600,
        hydraulic_time_step_s=300,
        sensors=SensorPlacement(
            pressure_nodes=("n1", "n2", "n3"), flow_links=("p1",)),
        uncertainties=(UncertaintyModel(kind="gauss_abs",
                                        target="sensor_noise",
                                        params={"sigma": 0.02}),),
        seed=0)
    defaults.update(kw)
    path = tmp_path / name
    save_config(ScenarioConfig(**defaults), str(path))
    return path


class TestRun:
    def test_writes_scada_next_to_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "12 steps" in out
        scada = tmp_path / "scenario_scada.csv"
        assert scada.exists()
        assert str(scada) in out
        assert not (tmp_path / "scenario_scada_truth.csv").exists()

    def test_truth_flag_adds_truth_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config), "--truth"]) == 0
        assert (tmp_path / "scenario_scada_truth.csv").exists()

    def test_out_dir_redirects_files(self, tmp_path):
        config = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert cli.main(["run", "--config", str(config),
                         "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "scenario_scada.csv").exists()

    def test_seed_override_changes_noise(self, tmp_path):
        config = write_config(tmp_path)
        cli.main(["run", "--config", str(config),
                  "--out-dir", str(tmp_path / "a")])
        cli.main(["run", "--config", str(config), "--seed", "9",
                  "--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "scenario_scada.csv").read_text()
        b = (tmp_path / "b" / "scenario_scada.csv").read_text()
        assert a != b

    def test_same_invocation_reproduces_bytes(self, tmp_path):
        config = write_config(tmp_path)
        cli.main(["run", "--config", str(config),
                  "--out-dir", str(tmp_path / "a")])
        cli.main(["run", "--config", str(config),
                  "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "scenario_scada.csv").read_text() == \
            (tmp_path / "b" / "scenario_scada.csv").read_text()

    def test_parallel_jobs_match_input_order(self, tmp_path, capsys):
        first = write_config(tmp_path, name="one.json")
        second = write_config(tmp_path, name="two.json", seed=5)
        code = cli.main(["run", "--config", str(first),
                         "--config", str(second), "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index(str(first)) < out.index(str(second))
        assert (tmp_path / "one_scada.csv").exists()
        assert (tmp_path / "two_scada.csv").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", "--config",
                         str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err != ""

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1, "network_path": "x",
                                    "simulation": {"duration_s": 300}}))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_exits_2_with_one_error_line(self, tmp_path,
                                                          capsys):
        path = write_config(tmp_path, name="bad.json")
        payload = json.loads(path.read_text())
        payload["leakages"] = 5
        path.write_text(json.dumps(payload))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "leakages" in errors[0]
        assert "Traceback" not in err

    def test_malformed_config_does_not_stop_parallel_jobs(self, tmp_path):
        bad = write_config(tmp_path, name="bad.json")
        payload = json.loads(bad.read_text())
        payload["leakages"] = 5
        bad.write_text(json.dumps(payload))
        good = write_config(tmp_path, name="good.json")
        code = cli.main(["run", "--jobs", "2", "--config", str(bad),
                         "--config", str(good)])
        assert code == 2
        assert (tmp_path / "good_scada.csv").exists()
        assert not (tmp_path / "bad_scada.csv").exists()

    def test_missing_network_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, network_path="/nonexistent.inp")
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_runtime_disconnection_exits_3(self, tmp_path):
        # closing the only feed mid-scenario strands demand at run time
        inp = tmp_path / "valvefeed.inp"
        inp.write_text(VALVE_FEED_INP)
        payload = {
            "network_path": str(inp),
            "simulation": {"duration_s": 3600,
                           "hydraulic_time_step_s": 300},
            "sensors": {"pressure_nodes": ["j1"]},
            "actuator_events": [{
                "kind": "valve_state", "target_id": "v1", "value": False,
                "start_time_s": 600.0, "end_time_s": 1200.0}],
            "seed": 0,
        }
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(payload))
        assert cli.main(["run", "--config", str(config)]) == 3

    def test_one_failure_does_not_stop_others(self, tmp_path, capsys):
        bad = tmp_path / "missing.json"
        good = write_config(tmp_path, name="good.json")
        code = cli.main(["run", "--config", str(bad),
                         "--config", str(good)])
        assert code == 2
        assert (tmp_path / "good_scada.csv").exists()


class TestDetect:
    @pytest.fixture()
    def scada_csv(self, tmp_path):
        # two identical demand days; the default split calibrates on the
        # first day and replays the second
        config = write_config(tmp_path, duration_s=2 * 86400,
                              uncertainties=())
        cli.main(["run", "--config", str(config)])
        return tmp_path / "scenario_scada.csv"

    def test_quiet_data_raises_no_alarms(self, scada_csv, capsys):
        assert cli.main(["detect", str(scada_csv)]) == 0
        out = capsys.readouterr().out
        assert "alarms: 0" in out

    def test_alarm_lines_list_times(self, tmp_path, capsys):
        config = write_config(tmp_path, duration_s=2 * 86400,
                              uncertainties=())
        payload = json.loads((tmp_path / "scenario.json").read_text())
        payload["leakages"] = [{
            "kind": "abrupt", "link_id": "p3", "diameter": 0.01,
            "start_time_s": 108000.0, "end_time_s": 172800.0}]
        (tmp_path / "scenario.json").write_text(json.dumps(payload))
        cli.main(["run", "--config", str(tmp_path / "scenario.json"),
                  "--truth"])
        capsys.readouterr()
        code = cli.main(["detect", str(tmp_path / "scenario_scada.csv"),
                         "--truth",
                         str(tmp_path / "scenario_scada_truth.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "alarms:" in out
        assert "alarm at t=108000 s" in out
        assert "true_positive_rate" in out
        assert "leakage_0" in out

    def test_bad_split_exits_2(self, scada_csv, capsys):
        assert cli.main(["detect", str(scada_csv), "--split", "0"]) == 2
        assert "split index" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["detect", str(tmp_path / "nope.csv")]) == 2

    def test_infinite_reading_exits_2(self, tmp_path, capsys):
        # an inf cell once reached the detector's fit, where LAPACK never
        # returned; the reader now stops it at its line
        rows = [f"{300.0 * i},{1.0 + i % 3},{2.0 + i % 5}" for i in range(20)]
        rows[12] = "3600.0,inf,2.0"
        path = tmp_path / "scada.csv"
        path.write_text("time_s,pressure:n1,flow:p1\n" + "\n".join(rows) + "\n")
        assert cli.main(["detect", str(path)]) == 2
        assert "line 14: non-finite value 'inf'" in capsys.readouterr().err

    def test_reversed_truth_window_exits_2(self, scada_csv, tmp_path, capsys):
        # a reversed window was once scored as an undetected event whose
        # alarms all counted as false positives
        truth = tmp_path / "truth.csv"
        truth.write_text("event_id,kind,start_s,end_s\n"
                         "leakage_0,abrupt,150000.0,120000.0\n")
        assert cli.main(["detect", str(scada_csv), "--truth",
                         str(truth)]) == 2
        assert "line 2: end_s" in capsys.readouterr().err

    def test_unordered_times_exit_2(self, tmp_path, capsys):
        rows = [f"{300.0 * i},{1.0 + i % 3},{2.0 + i % 5}" for i in range(20)]
        rows[12] = "0.0,1.0,2.0"
        path = tmp_path / "scada.csv"
        path.write_text("time_s,pressure:n1,flow:p1\n" + "\n".join(rows) + "\n")
        assert cli.main(["detect", str(path)]) == 2
        assert "line 14: time" in capsys.readouterr().err


class TestInspect:
    def test_summary_lines(self, capsys):
        assert cli.main(["inspect", bundled.toy9_path()]) == 0
        out = capsys.readouterr().out
        assert "nodes: 9, links: 10, violations: 0" in out
        assert "total base demand: 0.000175 m3/s" in out

    def test_violations_go_to_stderr_without_failing(self, tmp_path,
                                                     capsys):
        path = tmp_path / "nosource.inp"
        path.write_text(NO_SOURCE_INP)
        assert cli.main(["inspect", str(path)]) == 0
        captured = capsys.readouterr()
        assert "violations: " in captured.out
        assert captured.err != ""

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.inp"
        path.write_text("junk before any section\n")
        assert cli.main(["inspect", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestLogging:
    def test_env_var_enables_info_logging(self, tmp_path, capsys,
                                          monkeypatch):
        import logging
        monkeypatch.setenv("WDNFLOW_LOG", "INFO")
        config = write_config(tmp_path)
        scada = tmp_path / "scenario_scada.csv"
        cli.main(["run", "--config", str(config)])
        logger = logging.getLogger("wdnflow")
        assert logger.isEnabledFor(logging.INFO)
        assert scada.exists()
