"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["expedited"])
        assert args.seed == 1
        assert args.replicas == 1
        assert args.case == "terasort"

    def test_jobsize_sizes(self):
        args = build_parser().parse_args(["jobsize", "--sizes", "2,10"])
        assert args.sizes == "2,10"

    def test_invalid_replicas(self):
        assert main(["--replicas", "0", "list"]) == 2

    @pytest.mark.parametrize("raw", ["abc", "-2"])
    def test_invalid_workers_env(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        assert main(["digest"]) == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err
        # An explicit --workers wins over the environment knob.
        assert main(["--workers", "1", "list"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kinds", "link_flaky", "--plan-json", "plans.json", "faults"],
            ["faults", "--kinds", "link_flaky", "--plan-json", "plans.json"],
            ["--kinds", "link_flaky", "faults", "--plan-json", "plans.json"],
        ],
    )
    def test_faults_flags_accepted_before_and_after_subcommand(self, argv):
        # PR 2's shared-flags convention: root declares real defaults,
        # the subparser re-declares with SUPPRESS, so either position
        # (or a mix) parses identically.
        args = build_parser().parse_args(argv)
        assert args.kinds == "link_flaky"
        assert args.plan_json == "plans.json"

    def test_faults_flags_default_to_none(self):
        args = build_parser().parse_args(["faults"])
        assert args.kinds is None
        assert args.plan_json is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["--optimizer", "spsa", "digest"],
            ["digest", "--optimizer", "spsa"],
        ],
    )
    def test_optimizer_flag_accepted_before_and_after_subcommand(self, argv):
        args = build_parser().parse_args(argv)
        assert args.optimizer == "spsa"

    def test_optimizer_defaults_to_hill_climb(self):
        args = build_parser().parse_args(["expedited"])
        assert args.optimizer == "hill_climb"

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["digest", "--optimizer", "bayesian"])

    def test_tuning_mode_composition(self):
        from repro.cli import _tuning_mode

        p = build_parser()
        args = p.parse_args(["digest", "--tuning", "aggressive", "--optimizer", "spsa"])
        assert _tuning_mode(args) == "aggressive:spsa"
        args = p.parse_args(["digest", "--tuning", "aggressive"])
        assert _tuning_mode(args) == "aggressive"
        # Non-aggressive modes never grow a backend suffix.
        args = p.parse_args(["digest", "--optimizer", "spsa"])
        assert _tuning_mode(args) == "none"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "terasort" in out
        assert "bbp" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "bigram-wikipedia" in out
        assert "676" in out

    def test_single_run_small_case(self, capsys):
        # 2 GB Terasort keeps this end-to-end test quick.
        from repro.workloads import suite

        original = suite.case_by_name

        def patched(name):
            if name == "tiny":
                return suite.terasort_case(2.0)
            return original(name)

        suite.case_by_name = patched
        try:
            assert main(["single-run", "--case", "tiny"]) == 0
        finally:
            suite.case_by_name = original
        out = capsys.readouterr().out
        assert "MRONLINE" in out

    def test_whatif_small(self, capsys):
        assert main(["whatif", "--size-gb", "1"]) == 0
        out = capsys.readouterr().out
        assert "best" in out

    def test_trace_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "trace-out"
        assert (
            main(
                [
                    "trace",
                    "--blocks", "2",
                    "--reducers", "1",
                    "--out", str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "digest:" in out
        assert "wordcount-wikipedia" in out
        for name in ("trace.jsonl", "trace.chrome.json", "trace.summary.txt"):
            assert (out_dir / name).exists()


class TestBackendFlag:
    """Only ``serve`` runs on both runtimes, so only it takes ``--backend``."""

    @pytest.mark.parametrize("name", ["local", "sim"])
    def test_serve_accepts_backend(self, name):
        assert build_parser().parse_args(["serve", "--backend", name]).backend == name

    def test_serve_backend_defaults_to_sim(self):
        assert build_parser().parse_args(["serve"]).backend == "sim"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "yarn"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["digest", "--backend", "sim"],
            ["--backend", "local", "list"],
            ["real", "--backend", "local"],
        ],
        ids=["digest", "root", "real"],
    )
    def test_backend_rejected_off_serve(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_real_defaults(self):
        args = build_parser().parse_args(["real"])
        assert args.workload == "wordcount"
        assert args.tuning == "aggressive"
        assert args.splits == 24
        assert args.split_kb == 32
        assert args.reducers == 4
        assert args.slots is None


class TestArgumentValidation:
    """Bad values exit 2 at parse time, naming the flag, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["whatif", "--size-gb", "0"],
            ["whatif", "--size-gb", "-5"],
            ["whatif", "--size-gb", "nan"],
            ["whatif", "--size-gb", "inf"],
            ["jobsize", "--sizes", "2,x"],
            ["jobsize", "--sizes", "0"],
            ["faults", "--levels", "none,extreme"],
            ["faults", "--kinds", "nope"],
            ["--kinds", "link_flaky,nope", "faults"],
            ["elastic", "--levels", "bogus"],
        ],
    )
    def test_bad_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {next(a for a in argv if a.startswith('--'))}" in err

    def test_good_values_parse_unchanged(self):
        args = build_parser().parse_args(
            ["faults", "--levels", "none,high", "--kinds", "link_flaky,node_join"]
        )
        assert args.levels == "none,high"
        assert args.kinds == "link_flaky,node_join"
        assert build_parser().parse_args(["whatif", "--size-gb", "2.5"]).size_gb == 2.5
        assert build_parser().parse_args(["elastic"]).levels == "none,low,high"


class TestServeFaultPlan:
    """``serve --fault-plan``: every bad plan exits 2 before a run starts."""

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["serve", "--fault-plan", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["serve", "--fault-plan", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"faults": [{"time": 1.0, "kind": "bogus", "node_id": 0}]}',
            '{"faults": [{"kind": "tuner_crash"}]}',
        ],
        ids=["syntax", "unknown-kind", "missing-fields"],
    )
    def test_invalid_plan(self, tmp_path, capsys, monkeypatch, text):
        import repro.service

        def fail(config):  # pragma: no cover - reached only on a regression
            raise AssertionError("the stream ran with an invalid plan")

        monkeypatch.setattr(repro.service, "run_service", fail)
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["serve", "--fault-plan", str(path)]) == 2
        assert "invalid fault_plan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ['{"faults": []}', "not json"],
        ids=["valid", "invalid"],
    )
    def test_local_backend_rejects_any_plan(self, tmp_path, capsys, text):
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["serve", "--backend", "local", "--fault-plan", str(path)]) == 2
        assert "simulator-only" in capsys.readouterr().err


class TestRealCommand:
    def test_real_small(self, capsys):
        assert (
            main(
                [
                    "real",
                    "--workload", "wordcount",
                    "--tuning", "aggressive",
                    "--splits", "12",
                    "--split-kb", "8",
                    "--reducers", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "waves" in out
        assert "default" in out and "tuned" in out
