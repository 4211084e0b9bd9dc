"""Smoke/integration tests for the bench harness itself."""

import pytest

from repro.bench import ALL_ABLATIONS, ALL_EXPERIMENTS, ExperimentResult, run
from repro.bench.runner import REGISTRY
from repro.bench.tables import format_table


class TestRegistry:
    def test_every_paper_artifact_has_a_driver(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table2", "fig6", "fig7", "fig8", "fig9",
            "fig10a", "fig10b", "fig10c", "fig11", "fig12", "fig13",
        }

    def test_ablation_registry(self):
        assert set(ALL_ABLATIONS) == {
            "abl-cudagraph", "abl-fusion", "abl-pcc", "abl-expert-slicing",
            "abl-hybrid", "abl-prefetch", "abl-sla", "abl-pinned",
            "abl-serving",
        }
        assert not set(ALL_ABLATIONS) & set(ALL_EXPERIMENTS)

    def test_run_selected(self):
        results = run(["table1", "fig12"])
        assert [r.exp_id for r in results] == ["table1", "fig12"]

    def test_run_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown"):
            run(["fig99"])

    @pytest.mark.parametrize("exp_id", sorted(REGISTRY))
    def test_driver_contract(self, exp_id):
        """Every driver returns well-formed rows whose keys are columns."""
        if exp_id in ("fig8", "fig10b"):
            pytest.skip("slow drivers covered by benchmarks/")
        res = REGISTRY[exp_id]()
        assert isinstance(res, ExperimentResult)
        assert res.exp_id == exp_id
        assert res.rows, exp_id
        for row in res.rows:
            assert set(row) <= set(res.columns), (exp_id, row)
        # render() must not crash and must include the title.
        assert res.title in res.render()


class TestExport:
    def test_json_dict_roundtrips(self):
        import json

        res = run(["table2"])[0]
        blob = json.dumps(res.to_json_dict())
        back = json.loads(blob)
        assert back["exp_id"] == "table2"
        assert len(back["rows"]) == len(res.rows)

    def test_csv_has_header_and_rows(self):
        res = run(["table1"])[0]
        lines = res.to_csv().strip().splitlines()
        assert lines[0].split(",")[0] == "model"
        assert len(lines) == 1 + len(res.rows)

    def test_cli_writes_artifacts(self, tmp_path, capsys):
        from repro.bench.runner import main

        json_file = tmp_path / "out.json"
        csv_dir = tmp_path / "csv"
        rc = main(["--json", str(json_file), "--csv", str(csv_dir), "table1"])
        assert rc == 0
        assert json_file.exists()
        assert (csv_dir / "table1.csv").exists()
        assert "table1" in capsys.readouterr().out

    def test_cli_bad_flag_usage(self, capsys):
        from repro.bench.runner import main

        assert main(["--json"]) == 2
        assert main(["fig99"]) == 2


class TestTables:
    def test_format_basic(self):
        out = format_table(["a", "b"], [{"a": 1, "b": 2.5}, {"a": 30}])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.5" in out
        assert len(lines) == 4

    def test_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out
