"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_vendor_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--vendor", "Z"])

    def test_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.vendor == "A"
        assert args.rows == 128

    @pytest.mark.parametrize("flag", ["--ecc", "--ecc-recover"])
    def test_fleet_rejects_ecc_flags(self, flag, capsys):
        # fleet never builds an ECC twin, so the flags do not exist.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fleet", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestCommands:
    def test_characterize(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["characterize", "--vendor", "B", "--rows", "96",
                   "--sample", "800", "--json", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "{+-1, +-64}" in captured
        payload = json.loads(out.read_text())
        assert payload["total_tests"] == 66
        assert set(payload["distances"]) == {-1, 1, -64, 64}

    def test_appendix(self, capsys, tmp_path):
        out = tmp_path / "a.json"
        rc = main(["appendix", "--json", str(out)])
        assert rc == 0
        assert "745,654x" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["campaign_92_s"] == pytest.approx(38.08, rel=0.01)

    def test_dcref_small(self, capsys):
        rc = main(["dcref", "--workloads", "2",
                   "--instructions", "20000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "refresh cut vs baseline" in out

    def test_compare_small(self, capsys):
        rc = main(["compare", "--vendor", "A", "--rows", "48"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PARBOR failures" in out


class TestNewCommands:
    def test_march(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        rc = main(["march", "--test", "mats+", "--vendor", "A",
                   "--rows", "32", "--json", str(out)])
        assert rc == 0
        assert "MATS+" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["test"] == "MATS+"

    def test_march_checker_background(self, capsys):
        rc = main(["march", "--background", "checker", "--vendor", "B",
                   "--rows", "32"])
        assert rc == 0
        assert "checker" in capsys.readouterr().out

    def test_fleet_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fleet.csv"
        rc = main(["fleet", "--modules-per-vendor", "1",
                   "--rows", "48", "--csv", str(csv_path)])
        assert rc == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("module,budget")

    def test_plan(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        rc = main(["plan", "8", "16", "48", "--json", str(out)])
        assert rc == 0
        assert "{+-8, +-16, +-48}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["tests_per_level"] == [2, 8, 8, 24, 48]

    def test_dataset(self, capsys, tmp_path):
        out = tmp_path / "ds"
        rc = main(["dataset", "--out", str(out),
                   "--modules-per-vendor", "1", "--rows", "48"])
        assert rc == 0
        files = {p.name for p in out.iterdir()}
        assert {"campaign_A1.json", "campaign_B1.json",
                "campaign_C1.json", "fleet.csv",
                "fleet.json"} <= files
        payload = json.loads((out / "campaign_B1.json").read_text())
        assert payload["magnitudes"] == [1, 64]

class TestServiceCommands:
    def test_report_journal_renders_live_journal(self, capsys,
                                                 tmp_path):
        from repro.runtime import CampaignSpec, chip_seed, run_fleet
        ckpt = tmp_path / "fleet.ckpt"
        spec = CampaignSpec(experiment="characterize", vendor="A",
                            index=1,
                            build_seed=chip_seed(7, "A", 0, "build"),
                            run_seed=chip_seed(7, "A", 0, "run"),
                            n_rows=32, sample_size=200,
                            run_sweep=False)
        run_fleet([spec], jobs=1, checkpoint=str(ckpt))
        with open(ckpt, "a") as fh:
            fh.write('{"kind": "outcome", "key": "torn')  # live tail
        rc = main(["report", "--journal", str(ckpt)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 completed target(s)" in out
        assert "characterize:A1" in out

    def test_report_without_inputs_errors(self, capsys):
        rc = main(["report"])
        assert rc == 2
        assert "nothing to render" in capsys.readouterr().err

    def test_report_missing_journal_errors(self, capsys, tmp_path):
        rc = main(["report", "--journal", str(tmp_path / "absent")])
        assert rc == 2

    def test_serve_parser_and_config_validation(self, capsys,
                                                tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--socket", str(tmp_path / "s.sock"),
             "--state-dir", str(tmp_path), "--jobs", "2",
             "--no-fsync", "--resume", "skip"])
        assert args.resume == "skip" and args.no_fsync
        rc = main(["serve", "--socket", str(tmp_path / "s.sock"),
                   "--state-dir", str(tmp_path),
                   "--max-queued-targets", "0"])
        assert rc == 2
        assert "max_queued_targets" in capsys.readouterr().err

    def test_submit_against_dead_socket_fails_cleanly(self, capsys,
                                                      tmp_path):
        rc = main(["submit", "--socket", str(tmp_path / "none.sock"),
                   "--vendors", "A"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
