"""Tests for sensor extraction, corruption order, and CSV round-trips."""

import math

import numpy as np
import pytest

from wdnflow import ConfigError, UnknownSensorRefError
from wdnflow.events import CommunicationEvent, EventWindow, SensorFaultEvent
from wdnflow.hydraulics import simulate_hydraulics
from wdnflow.quality import QualitySettings, simulate_quality
from wdnflow.scada import (
    GroundTruthRecord,
    RowCorruptor,
    ScadaData,
    SensorColumn,
    SensorPlacement,
    corrupt,
    extract_readings,
    from_csv,
    to_csv,
    truth_from_csv,
    truth_to_csv,
)
from wdnflow.uncertainty import SeededStream, UncertaintyModel


@pytest.fixture(scope="module")
def toy9_series(toy9):
    return simulate_hydraulics(toy9, duration_s=7200, hydraulic_step_s=300)


def synthetic(values, sensor=("pressure", "n1")):
    """One-column ScadaData with 300 s spacing for corruption tests."""
    arr = np.asarray(values, dtype=float).reshape(len(values), 1)
    col = SensorColumn(sensor_type=sensor[0], element_id=sensor[1],
                       unit="m")
    times = tuple(300.0 * i for i in range(len(values)))
    return ScadaData(times=times, columns=(col,), values=arr)


class TestPlacement:
    def test_column_order_by_type_then_id(self):
        placement = SensorPlacement(
            pressure_nodes=("n2", "n1"),
            flow_links=("p9", "p10", "p1"),
            quality_nodes=("n3",),
            tank_level_tanks=("t1",))
        labels = [c.label for c in placement.columns()]
        assert labels == ["pressure:n1", "pressure:n2",
                          "flow:p1", "flow:p10", "flow:p9",
                          "quality:n3", "level:t1"]

    def test_units_follow_type(self):
        placement = SensorPlacement(pressure_nodes=("n1",),
                                    flow_links=("p1",),
                                    quality_nodes=("n1",),
                                    tank_level_tanks=("t1",))
        units = {c.sensor_type: c.unit for c in placement.columns()}
        assert units == {"pressure": "m", "flow": "m3/s",
                         "quality": "mg/L", "level": "m"}

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            SensorPlacement(pressure_nodes=("n1", "n1"))

    @pytest.mark.parametrize("field", ["pressure_nodes", "flow_links",
                                       "quality_nodes", "tank_level_tanks"])
    def test_comma_in_an_id_rejected(self, field):
        # the comma separates the CSV columns, so `time_s,pressure:a,b`
        # could not be read back
        with pytest.raises(ConfigError, match=f"{field}: id 'a,b' holds a"
                                              " comma"):
            SensorPlacement(**{field: ("n1", "a,b")})


class TestExtraction:
    def test_values_match_state_arrays(self, toy9, toy9_series):
        placement = SensorPlacement(pressure_nodes=("n1", "n4"),
                                    flow_links=("p1",))
        scada = extract_readings(toy9_series, placement)
        assert scada.times == tuple(s.t for s in toy9_series.states)
        n1 = toy9_series.node_ids.index("n1")
        n4 = toy9_series.node_ids.index("n4")
        p1 = toy9_series.link_ids.index("p1")
        for row, state in enumerate(toy9_series.states):
            assert scada.values[row, 0] == float(state.pressure_head[n1])
            assert scada.values[row, 1] == float(state.pressure_head[n4])
            assert scada.values[row, 2] == float(state.flow[p1])

    def test_quality_requires_quality_states(self, toy9, toy9_series):
        placement = SensorPlacement(quality_nodes=("n1",))
        with pytest.raises(UnknownSensorRefError):
            extract_readings(toy9_series, placement)

    def test_quality_column_reads_quality_states(self, toy9, toy9_series):
        states = simulate_quality(
            toy9_series, toy9,
            QualitySettings(quality_time_step=60, source_nodes={"r1": 1.0}))
        placement = SensorPlacement(quality_nodes=("n1",))
        scada = extract_readings(toy9_series, placement,
                                 quality_states=states)
        n1 = toy9_series.node_ids.index("n1")
        for row, qs in enumerate(states):
            assert scada.values[row, 0] == float(qs.node_concentration[n1])

    def test_pressure_sensor_must_sit_on_junction(self, toy9_series):
        with pytest.raises(UnknownSensorRefError):
            extract_readings(toy9_series,
                             SensorPlacement(pressure_nodes=("r1",)))

    def test_unknown_ids_rejected(self, toy9_series):
        with pytest.raises(UnknownSensorRefError):
            extract_readings(toy9_series,
                             SensorPlacement(pressure_nodes=("nope",)))
        with pytest.raises(UnknownSensorRefError):
            extract_readings(toy9_series,
                             SensorPlacement(flow_links=("nope",)))
        with pytest.raises(UnknownSensorRefError):
            extract_readings(toy9_series,
                             SensorPlacement(tank_level_tanks=("n1",)))

    def test_matrix_must_match_times_and_columns(self):
        column = SensorColumn(sensor_type="pressure", element_id="n1",
                              unit="m")
        with pytest.raises(ConfigError, match="shape does not match"):
            ScadaData(times=(0.0, 300.0), columns=(column,),
                      values=np.zeros((3, 1)))

    def test_values_are_read_only(self, toy9_series):
        scada = extract_readings(toy9_series,
                                 SensorPlacement(pressure_nodes=("n1",)))
        with pytest.raises(ValueError):
            scada.values[0, 0] = 1.0
        copy = scada.get_data()
        copy[0, 0] = 1.0
        assert scada.values[0, 0] != 1.0


class TestCorruption:
    def stream(self):
        return SeededStream(11).child("scada")

    def test_no_models_is_identity(self, toy9_series):
        scada = extract_readings(
            toy9_series, SensorPlacement(pressure_nodes=("n1", "n2")))
        out = corrupt(scada, [], [], [], self.stream())
        assert np.array_equal(out.values, scada.values)

    def test_noise_changes_values_reproducibly(self, toy9_series):
        scada = extract_readings(
            toy9_series, SensorPlacement(pressure_nodes=("n1", "n2")))
        noise = [UncertaintyModel(kind="gauss_abs", target="sensor_noise",
                                  params={"sigma": 0.1})]
        a = corrupt(scada, [], [], noise, self.stream())
        b = corrupt(scada, [], [], noise, self.stream())
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, scada.values)

    def test_fault_only_hits_its_sensor_and_window(self):
        scada = synthetic([10.0, 10.0, 10.0, 10.0])
        fault = SensorFaultEvent(kind="offset", sensor_ref=("pressure", "n1"),
                                 param=2.5, window=EventWindow(300.0, 900.0))
        out = corrupt(scada, [fault], [], [], self.stream())
        assert out.values[:, 0].tolist() == [10.0, 12.5, 12.5, 10.0]

    def test_data_loss_blanks_all_sensors(self):
        scada = synthetic([1.0, 2.0, 3.0, 4.0])
        comm = CommunicationEvent(kind="data_loss",
                                  window=EventWindow(300.0, 900.0))
        out = corrupt(scada, [], [comm], [], self.stream())
        assert out.values[0, 0] == 1.0
        assert math.isnan(out.values[1, 0])
        assert math.isnan(out.values[2, 0])
        assert out.values[3, 0] == 4.0

    def test_freeze_holds_last_pre_window_value(self):
        scada = synthetic([4.0, 5.0, 6.0, 7.0])
        comm = CommunicationEvent(kind="freeze",
                                  window=EventWindow(300.0, 1200.0))
        out = corrupt(scada, [], [comm], [], self.stream())
        assert out.values[:, 0].tolist() == [4.0, 4.0, 4.0, 4.0]

    def test_freeze_holds_post_fault_value(self):
        # the frozen reading must include the sensor fault active before
        # the outage, since that is what the channel last transmitted
        scada = synthetic([4.0, 5.0, 6.0, 7.0])
        fault = SensorFaultEvent(kind="offset", sensor_ref=("pressure", "n1"),
                                 param=1.0, window=EventWindow(0.0, 1200.0))
        comm = CommunicationEvent(kind="freeze",
                                  window=EventWindow(300.0, 1200.0))
        out = corrupt(scada, [fault], [comm], [], self.stream())
        assert out.values[:, 0].tolist() == [5.0, 5.0, 5.0, 5.0]

    def test_targeted_freeze_leaves_other_columns(self):
        cols = (SensorColumn("pressure", "n1", "m"),
                SensorColumn("pressure", "n2", "m"))
        values = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        scada = ScadaData(times=(0.0, 300.0, 600.0), columns=cols,
                          values=values)
        comm = CommunicationEvent(kind="freeze",
                                  window=EventWindow(300.0, 900.0),
                                  sensor_ref=("pressure", "n2"))
        out = corrupt(scada, [], [comm], [], self.stream())
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert out.values[:, 1].tolist() == [10.0, 10.0, 10.0]

    def test_fault_on_absent_column_rejected(self):
        scada = synthetic([1.0, 2.0])
        fault = SensorFaultEvent(kind="offset", sensor_ref=("flow", "p1"),
                                 param=1.0, window=EventWindow(0.0, 600.0))
        with pytest.raises(UnknownSensorRefError):
            corrupt(scada, [fault], [], [], self.stream())

    def test_row_by_row_equals_batch(self, toy9_series):
        placement = SensorPlacement(pressure_nodes=("n1", "n2"),
                                    flow_links=("p1",))
        scada = extract_readings(toy9_series, placement)
        noise = [UncertaintyModel(kind="random_walk", target="sensor_noise",
                                  params={"sigma": 0.05})]
        fault = SensorFaultEvent(kind="gaussian", sensor_ref=("flow", "p1"),
                                 param=0.01, window=EventWindow(900.0, 3000.0))
        comm = CommunicationEvent(kind="freeze",
                                  window=EventWindow(1500.0, 2400.0),
                                  sensor_ref=("pressure", "n1"))
        batch = corrupt(scada, [fault], [comm], noise, self.stream())
        stepper = RowCorruptor(scada.columns, scada.times, [fault], [comm],
                               noise, self.stream())
        rows = [stepper.corrupt_next(scada.values[i:i + 1])
                for i in range(len(scada.times))]
        assert np.array_equal(batch.values, np.vstack(rows))


class TestCsvRoundTrip:
    def test_values_and_labels_survive(self, toy9_series):
        placement = SensorPlacement(pressure_nodes=("n1", "n2"),
                                    flow_links=("p1",))
        scada = extract_readings(toy9_series, placement)
        back = from_csv(to_csv(scada))
        assert back.times == scada.times
        assert [c.label for c in back.columns] == \
            [c.label for c in scada.columns]
        assert np.array_equal(back.values, scada.values)

    def test_nan_becomes_empty_field(self):
        scada = synthetic([1.0, float("nan"), 3.0])
        text = to_csv(scada)
        lines = text.strip().split("\n")
        assert lines[0] == "time_s,pressure:n1"
        assert lines[2] == "300.0,"
        back = from_csv(text)
        assert math.isnan(back.values[1, 0])
        assert back.values[2, 0] == 3.0

    def test_full_float_precision_survives(self):
        value = 1.0 / 3.0 + 1e-16
        scada = synthetic([value])
        assert from_csv(to_csv(scada)).values[0, 0] == value

    @pytest.mark.parametrize("text, message", [
        ("time_s,pressure:n1\nabc,1.0\n", "line 2: non-numeric value 'abc'"),
        ("nonsense\n", "must start with a time_s column"),
        ("time_s,badlabel\n0,1.0\n", "malformed column label 'badlabel'"),
        ("time_s,speed:n1\n0,1.0\n",
         "unknown sensor type in column 'speed:n1'"),
        ("time_s,pressure:n1,flow:p1\n0.0,1.0\n",
         "line 2: expected 3 fields, got 2"),
    ])
    def test_malformed_csv_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            from_csv(text)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "NaN",
                                       "Infinity", " +inf"])
    def test_non_finite_token_rejected_with_line(self, token):
        text = f"time_s,pressure:n1,flow:p1\n0.0,1.0,2.0\n300.0,{token},2.0\n"
        with pytest.raises(ConfigError, match="line 3: non-finite"):
            from_csv(text)
        with pytest.raises(ConfigError, match="line 2: non-finite"):
            from_csv(f"time_s,pressure:n1\n{token},1.0\n")

    def test_duplicate_label_rejected_by_name(self):
        with pytest.raises(ConfigError, match="duplicate column label"
                                              " 'pressure:n1'"):
            from_csv("time_s,pressure:n1,flow:p1,pressure:n1\n0.0,1,2,3\n")

    @pytest.mark.parametrize("second", ["0.0", "-300.0"])
    def test_times_must_strictly_increase(self, second):
        text = f"time_s,pressure:n1\n0.0,1.0\n300.0,1.0\n{second},1.0\n"
        with pytest.raises(ConfigError, match="line 4: time"):
            from_csv(text)

    def test_empty_cell_still_means_missing(self):
        back = from_csv("time_s,pressure:n1,flow:p1\n0.0,,2.0\n")
        assert math.isnan(back.values[0, 0])
        assert back.values[0, 1] == 2.0


class TestTruthCsv:
    def test_round_trip(self):
        records = (
            GroundTruthRecord(event_id="leakage_0", kind="abrupt",
                              start_s=600.0, end_s=1200.0),
            GroundTruthRecord(event_id="communication_0", kind="data_loss",
                              start_s=0.0, end_s=300.0),
        )
        back = truth_from_csv(truth_to_csv(records))
        assert back == records

    def test_empty_round_trip(self):
        assert truth_from_csv(truth_to_csv(())) == ()

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_time_rejected_with_line(self, token):
        text = ("event_id,kind,start_s,end_s\n"
                "leakage_0,abrupt,0.0,600.0\n"
                f"leakage_1,abrupt,600.0,{token}\n")
        with pytest.raises(ConfigError, match="line 3: non-finite"):
            truth_from_csv(text)

    @pytest.mark.parametrize("end", ["600.0", "0.0"])
    def test_window_must_end_after_start(self, end):
        text = ("event_id,kind,start_s,end_s\n"
                "leakage_0,abrupt,0.0,600.0\n"
                f"leakage_1,abrupt,600.0,{end}\n")
        with pytest.raises(ConfigError, match="line 3: end_s"):
            truth_from_csv(text)

    @pytest.mark.parametrize("text, message", [
        ("event_id,kind,start_s\n", "malformed ground-truth CSV header"),
        ("", "malformed ground-truth CSV header"),
        ("event_id,kind,start_s,end_s\nleakage_0,abrupt,0.0\n",
         "line 2: expected 4 fields"),
    ])
    def test_malformed_csv_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            truth_from_csv(text)

    def test_header_is_stable(self):
        assert truth_to_csv(()).startswith("event_id,kind,start_s,end_s")
