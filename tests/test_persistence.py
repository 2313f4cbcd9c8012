"""Trace I/O and experiment-result persistence round trips."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.persist import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.experiments.runner import ExperimentResult
from repro.workloads import synth_diurnal_trace
from repro.workloads.traceio import load_trace_csv, save_trace_csv


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = synth_diurnal_trace(n_minutes=100, seed_or_rng=3)
        path = tmp_path / "day.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert np.allclose(loaded.minutes, trace.minutes)
        assert np.allclose(loaded.search_load, trace.search_load, atol=1e-6)
        assert np.allclose(
            loaded.background_utilization, trace.background_utilization, atol=1e-6
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_trace_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,0.5,0.1\n")
        with pytest.raises(ConfigurationError):
            load_trace_csv(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("minute,search_load,background_utilization\n0,oops,0.1\n")
        with pytest.raises(ConfigurationError):
            load_trace_csv(p)

    def test_out_of_range_rejected_by_trace_validation(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("minute,search_load,background_utilization\n0,1.5,0.1\n")
        with pytest.raises(ConfigurationError):
            load_trace_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ConfigurationError):
            load_trace_csv(p)


class TestResultPersistence:
    def make(self):
        r = ExperimentResult("figX", "a title", ("name", "value"), notes="n")
        r.add("alpha", 1.5)
        r.add("beta", 2.0)
        return r

    def test_dict_round_trip(self):
        r = self.make()
        r2 = result_from_dict(result_to_dict(r))
        assert r2.figure == r.figure
        assert r2.columns == r.columns
        assert r2.rows == r.rows
        assert r2.notes == r.notes

    def test_file_round_trip(self, tmp_path):
        r = self.make()
        path = save_result(r, tmp_path / "out")
        assert path.name == "figX.json"
        r2 = load_result(path)
        assert r2.rows == r.rows

    def test_bad_version(self):
        data = result_to_dict(self.make())
        data["format_version"] = 99
        with pytest.raises(ConfigurationError):
            result_from_dict(data)

    def test_missing_key(self):
        with pytest.raises(ConfigurationError):
            result_from_dict({"format_version": 1})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_result(tmp_path / "nope.json")


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["prog"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out

    def test_unknown_figure(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["prog", "figZZ"]) == 1

    def test_run_and_save(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["prog", "fig08", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "fig08.json").exists()

    def test_save_without_dir(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["prog", "fig08", "--save"]) == 1

    def test_bad_task_timeout_rejected(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["prog", "fig01", "--task-timeout", "0"]) == 1
        assert "timeout_s must be positive" in capsys.readouterr().out
