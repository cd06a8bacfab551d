"""CLI tests (main() invoked in-process)."""

import pytest

from repro.cli import build_parser, main
from repro.molecules import pdbio, synthetic_protein


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.atoms == 2000 and args.method == "octree"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "OCT_MPI" in out

    def test_solve_small(self, capsys):
        assert main(["solve", "--atoms", "300", "--seed", "3",
                     "--compare-naive"]) == 0
        out = capsys.readouterr().out
        assert "E_pol" in out and "% difference" in out

    def test_solve_trace_has_far_and_near_spans(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.json"
        assert main(["solve", "--atoms", "200", "--trace", str(path)]) == 0
        assert "simulated schedule" in capsys.readouterr().out
        names = {ev["name"] for ev in json.loads(path.read_text())[
            "traceEvents"]}
        assert {"born.approx_integrals.far", "born.approx_integrals.near",
                "epol.traversal.far", "epol.traversal.near"} <= names

    def test_solve_naive_method(self, capsys):
        assert main(["solve", "--atoms", "250", "--method",
                     "naive"]) == 0
        assert "naive" in capsys.readouterr().out

    def test_solve_from_file(self, tmp_path, capsys):
        mol = synthetic_protein(260, seed=2, with_surface=False)
        path = tmp_path / "m.xyzqr"
        pdbio.write_xyzqr(mol, path)
        assert main(["solve", "--file", str(path)]) == 0
        assert "E_pol" in capsys.readouterr().out

    def test_packages(self, capsys):
        assert main(["packages", "--atoms", "300"]) == 0
        out = capsys.readouterr().out
        for name in ("Amber", "Gromacs", "Tinker"):
            assert name in out

    def test_scale(self, capsys):
        assert main(["scale", "--atoms", "300", "--nodes", "12"]) == 0
        out = capsys.readouterr().out
        assert "OCT_MPI" in out and "144" in out


class TestDoctor:
    def test_healthy_molecule_exits_zero(self, capsys):
        assert main(["doctor", "--atoms", "200", "--seed", "3"]) == 0
        assert "doctor:" in capsys.readouterr().out

    def test_degenerate_file_reports_and_fails(self, tmp_path, capsys):
        mol = synthetic_protein(60, seed=2, with_surface=False)
        mol.positions[1] = mol.positions[0]  # coincident pair
        path = tmp_path / "dup.xyzqr"
        pdbio.write_xyzqr(mol, path)
        assert main(["doctor", "--file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "GRD105" in out and "coincident" in out

    def test_unreadable_molecule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.xyzqr"
        path.write_text("0.0 0.0 0.0 1.0 0.0\n")  # zero radius
        assert main(["doctor", "--file", str(path)]) == 2
        assert "unreadable" in capsys.readouterr().err


class TestGuardedSolve:
    ARGS = ["solve", "--atoms", "250", "--seed", "3"]

    def test_checkpoint_roundtrip_bitwise(self, tmp_path, capsys):
        import json

        ck = tmp_path / "ck"
        fresh = tmp_path / "fresh.json"
        resumed = tmp_path / "resumed.json"
        assert main(self.ARGS + ["--json", str(fresh)]) == 0
        assert main(self.ARGS + ["--checkpoint", str(ck),
                                 "--stop-after", "born"]) == 0
        assert "stopped after the Born phase" in capsys.readouterr().out
        assert main(self.ARGS + ["--checkpoint", str(ck), "--resume",
                                 "--json", str(resumed)]) == 0
        d1 = json.loads(fresh.read_text())
        d2 = json.loads(resumed.read_text())
        assert d1["guarded"] and d2["guarded"]
        assert d2["energy"] == d1["energy"]  # bitwise-identical resume
        assert d2["born_mean"] == d1["born_mean"]

    def test_no_guard_conflicts_with_checkpoint(self, tmp_path, capsys):
        assert main(self.ARGS + ["--no-guard", "--checkpoint",
                                 str(tmp_path / "ck")]) == 2
        assert "--no-guard" in capsys.readouterr().err

    def test_stop_after_requires_checkpoint(self, capsys):
        assert main(self.ARGS + ["--stop-after", "born"]) == 2
        assert "--stop-after" in capsys.readouterr().err

    def test_no_guard_still_solves(self, capsys):
        assert main(self.ARGS + ["--no-guard"]) == 0
        assert "E_pol" in capsys.readouterr().out

    def test_preflight_failure_exits_one(self, tmp_path, capsys):
        mol = synthetic_protein(60, seed=2, with_surface=False)
        mol.positions[1] = mol.positions[0]
        path = tmp_path / "dup.xyzqr"
        pdbio.write_xyzqr(mol, path)
        assert main(["solve", "--file", str(path)]) == 1
        assert "coincident" in capsys.readouterr().err


class TestServe:
    def test_synthetic_smoke(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert main(["serve", "--synthetic", "12", "--atoms", "120",
                     "--molecules", "2", "--workers", "2",
                     "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "hit rate" in text and "throughput" in text
        import json
        doc = json.loads(out.read_text())
        assert doc["failed"] == 0 and doc["expired"] == 0
        assert doc["ok"] + doc["rejected"] >= 12

    def test_workload_file_warm_hits(self, tmp_path, capsys):
        import json
        workload = tmp_path / "wl.json"
        workload.write_text(json.dumps({"requests": [
            {"atoms": 120, "seed": 4, "repeat": 3},
            {"atoms": 120, "seed": 4, "eps_epol": 0.5},
        ]}))
        out = tmp_path / "serve.json"
        # One worker, batch 1: the repeats run strictly after the first
        # completes, so they must come from the cache or coalesce.
        assert main(["serve", "--workload", str(workload),
                     "--workers", "1", "--batch-size", "1",
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["failed"] == 0
        assert doc["hit_rate"] > 0 or doc["coalesced"] > 0

    def test_fleet_synthetic_smoke(self, tmp_path, capsys):
        import json
        out = tmp_path / "fleet.json"
        assert main(["serve", "--synthetic", "12", "--atoms", "120",
                     "--molecules", "2", "--shards", "2",
                     "--json", str(out)]) == 0
        assert "fleet:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["failed"] == 0 and doc["expired"] == 0
        assert doc["ok"] == 12

    @pytest.mark.parametrize("flag", [["--retries", "3"],
                                      ["--hedge-after", "1"]])
    def test_fleet_rejects_retry_policy(self, flag, capsys):
        assert main(["serve", "--synthetic", "2", "--atoms", "120",
                     "--shards", "2"] + flag) == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("body,names", [
        ('[{"atoms": 120, "bogus": 1}]', "entry 0"),
        ("not json", ""),
        (None, "missing.json"),
    ], ids=["unknown-field", "not-json", "missing-path"])
    def test_bad_workload_file_is_one_line_exit_2(self, tmp_path, capsys,
                                                  body, names):
        path = tmp_path / ("wl.json" if body is not None else "missing.json")
        if body is not None:
            path.write_text(body)
        assert main(["serve", "--workload", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad --workload file: ")
        assert len(err.splitlines()) == 1 and names in err

    def test_metrics_out_includes_serve_counters(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["serve", "--synthetic", "6", "--atoms", "120",
                     "--molecules", "1",
                     "--metrics-out", str(metrics)]) == 0
        import json
        doc = json.loads(metrics.read_text())
        assert "serve.requests" in doc
        assert "serve.wait_seconds" in doc
        assert doc["serve.wait_seconds"]["type"] == "histogram"
