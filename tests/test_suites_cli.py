"""Suite harness tests: determinism of report bodies, exit codes, JSON
schema and parameter bounds."""

import errno
import io
import json
import os
import random
from fractions import Fraction

import pytest

import spinorlab.cli as cli
from spinorlab.lie import MAX_N, SymplecticRep, sp_standard
from spinorlab.matrix import ExactMatrix
from spinorlab.moment import MomentContext
from spinorlab.suites import (
    SUITE_NAMES,
    ConfigError,
    SuiteConfig,
    _INT_FIELDS,
    _SUITE_CASES,
    run_suite,
    splitmix64,
    trial_seed,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SuiteConfig(suite="dims")
        assert cfg.n == 2 and cfg.trials == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"suite": "nope"},
            {"suite": "dims", "n": 0},
            {"suite": "dims", "n": 5},
            {"suite": "dims", "g": 1},
            {"suite": "dims", "m": 0},
            {"suite": "dims", "s": 5},
            {"suite": "dims", "prec": 0},
            {"suite": "dims", "trials": 0},
            {"suite": "dims", "trials": 10001},
            {"suite": "dims", "seed": 2 ** 64},
            {"suite": "dims", "g": 1001},
            {"suite": "dims", "m": 65},
            {"suite": "dims", "prec": 65},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SuiteConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.5),
            ("seed", 1.5),
            ("trials", True),
            ("n", False),
            ("g", "2"),
            ("m", None),
            ("s", Fraction(2)),
            ("prec", 4.0),
        ],
    )
    def test_non_int_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an int, not {type(value).__name__}"):
            SuiteConfig(suite="dims", **{field: value})

    def test_range_checked_in_field_order(self):
        with pytest.raises(ConfigError, match="n must be in 1..4"):
            SuiteConfig(suite="dims", n=5, g=2.5)

    def test_n_is_capped_by_the_standard_representations(self):
        """One cap: the suites' n range is the range of ``sp_standard``,
        and both messages read as they did."""
        assert [field[:3] for field in _INT_FIELDS if field[0] == "n"] == [("n", 1, MAX_N)]
        assert MAX_N == 4
        sp_standard(MAX_N)
        SuiteConfig(suite="dims", n=MAX_N)
        for n in (0, MAX_N + 1):
            with pytest.raises(ValueError, match=r"^supported range is 1 <= n <= 4$"):
                sp_standard(n)
            with pytest.raises(ConfigError, match=r"^n must be in 1\.\.4$"):
                SuiteConfig(suite="dims", n=n)

    def test_upper_bounds_accepted(self):
        cfg = SuiteConfig(suite="dims", g=1000, m=64, prec=64)
        assert (cfg.g, cfg.m, cfg.prec) == (1000, 64, 64)

    def test_seed_mixing(self):
        assert splitmix64(0) != splitmix64(1)
        seeds = {trial_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert trial_seed(7, 3) == trial_seed(7, 3)


class TestDeterminism:
    @pytest.mark.parametrize("suite", ["dims", "hecke", "bbflow", "gaiotto"])
    def test_byte_identical_reports(self, suite):
        cfg = SuiteConfig(suite=suite, n=2, trials=5, seed=123)
        body1 = cli.report_body(run_suite(cfg))
        body2 = cli.report_body(run_suite(cfg))
        assert body1 == body2

    def test_wall_time_not_in_body(self):
        cfg = SuiteConfig(suite="dims")
        body = json.loads(cli.report_body(run_suite(cfg)))
        assert "wall_time" not in body
        assert body["schema_version"] == 1
        assert body["config"]["seed"] == 0


class TestSuites:
    def test_every_suite_passes_small(self):
        for suite in SUITE_NAMES:
            if suite == "all":
                continue
            cfg = SuiteConfig(suite=suite, n=2, trials=3, seed=11)
            report = run_suite(cfg)
            assert report.failed == 0, (suite, report.failures)
            assert report.passed + report.failed >= 1

    def test_all_suite_prefixes_case_ids(self):
        cfg = SuiteConfig(suite="all", n=2, trials=2, seed=5)
        report = run_suite(cfg)
        assert report.failed == 0
        assert report.passed > 8

    def test_cech_suite_records_euler_disagreement(self, monkeypatch):
        import spinorlab.cech as cech

        good = cech.hypercohomology
        monkeypatch.setattr(cech, "hypercohomology", lambda m: tuple(h + 1 for h in good(m)))
        report = run_suite(SuiteConfig(suite="cech", trials=2, seed=9))
        assert report.failures == [
            ("euler/t0000", "formula disagreement"),
            ("euler/t0001", "formula disagreement"),
        ]
        assert report.passed == 2

    def test_off_grid_glue_failure_names_the_four_flags(self, monkeypatch):
        import spinorlab.hecke as hecke

        good = hecke.glue_check

        def off_grid_broken(n, m):
            report = good(n, m)
            if (n, m) != (4, 5):
                return report
            return hecke.GlueReport(report.spinor_regular, False, report.higgs_glues, report.higgs_regular)

        monkeypatch.setattr(hecke, "glue_check", off_grid_broken)
        report = run_suite(SuiteConfig(suite="hecke", n=4, m=5, trials=1, seed=4))
        assert report.failures == [
            ("glue/n4/m5", "regular=True nonzero=False glues=True higgs_regular=True"),
        ]

    def test_raising_check_fails_only_its_case(self, monkeypatch):
        import spinorlab.hecke as hecke

        clean = run_suite(SuiteConfig(suite="all", trials=1, seed=4))
        clean_hecke = run_suite(SuiteConfig(suite="hecke", trials=1, seed=4))
        # literal image, 9 family and 9 glue cases, and the completion case
        assert clean_hecke.passed == 20 and clean_hecke.failed == 0
        monkeypatch.setattr(hecke, "in_sp", lambda N: False)
        report = run_suite(SuiteConfig(suite="all", trials=1, seed=4))
        # every case that builds a family raises; each fails under its own id
        # and the cases after it, in hecke and in the later suites, still run
        assert report.passed + report.failed == clean.passed
        failed = dict(report.failures)
        assert "hecke/error" not in failed
        assert "hecke/modified-spinor/literal-image-n1-m1" in failed
        assert "hecke/glue/n3/m3" in failed
        assert all(d.startswith("HeckeIdentityError: ") for d in failed.values())
        assert "hecke/completion/n2/prec4" not in failed

    @pytest.mark.parametrize(
        "target, suite, case",
        [
            ("pair_euler_identity", "dims", "pair-euler/n2/g3"),
            ("y_dimension_identity", "dims", "y-dim/n2/g3"),
            ("stability_scan", "stability-scan", "stability-scan"),
        ],
    )
    def test_raising_point_case_fails_under_its_prefix(self, monkeypatch, target, suite, case):
        import spinorlab.rrdim as rrdim

        cfg = SuiteConfig(suite=suite, n=2, g=3)
        clean = run_suite(cfg)
        assert clean.failed == 0 and any(
            c.startswith(case) for c, _, _ in _SUITE_CASES[suite](cfg)
        )

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(rrdim, target, boom)
        report = run_suite(cfg)
        assert report.passed + report.failed == clean.passed
        failed = dict(report.failures)
        assert failed[case] == "RuntimeError: boom"
        # the range case calls the identities too; every other case passes
        assert set(failed) <= {case, "numeric-range/n<=20/g<=20"}

    def test_equivariance_failure_names_its_trial_index(self, monkeypatch):
        import spinorlab.suites as suites

        good = suites.sl2_sym_cube()
        bad0 = [list(r) for r in good.rho[0].entries]
        bad0[0][1] += Fraction(1, 3)
        corrupted = SymplecticRep(
            good.algebra, good.omega, [ExactMatrix(bad0), *good.rho[1:]], good.summands, good.name
        )
        monkeypatch.setattr(suites, "sl2_sym_cube", lambda: corrupted)
        cfg = SuiteConfig(suite="moment-equivariance", n=1, trials=4, seed=21)
        report = run_suite(cfg)
        assert report.failed > 0
        ctx = MomentContext(corrupted)
        for case, detail in report.failures:
            i = int(case.rsplit("/t", 1)[1])
            trial = 2 * cfg.trials + i
            assert case.startswith(f"{good.name}/")
            assert detail == f"nonzero equivariance residual (trial index {trial})"
            # the index replays the case on its own
            assert not suites.check_equivariance(random.Random(trial_seed(cfg.seed, trial)), ctx)[0]

    def test_counts_are_consistent(self):
        cfg = SuiteConfig(suite="gaiotto", trials=7, seed=2)
        report = run_suite(cfg)
        assert report.passed + report.failed == 7


class TestCli:
    def test_exit_zero_and_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["--suite", "dims", "--n", "2", "--g", "2", "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "passed" in captured.out
        data = json.loads(out.read_text())
        assert data["suite"] == "dims"
        assert data["failed"] == 0
        assert data["config"]["n"] == 2 and data["config"]["g"] == 2

    def test_json_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["--suite", "hecke", "--n", "1", "--m", "1", "--trials", "4", "--seed", "77"]
        assert cli.main(argv + ["--json", str(a)]) == 0
        assert cli.main(argv + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exit_two_on_config_error(self, capsys):
        assert cli.main(["--suite", "unknown-suite"]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err

    def test_exit_two_on_huge_genus(self, capsys):
        assert cli.main(["--suite", "stability-scan", "--g", str(10 ** 9)]) == 2
        assert "g must be in 2..1000" in capsys.readouterr().err

    def test_exit_two_on_bad_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--suite", "dims", "--bogus", "1"])
        assert exc.value.code == 2

    def test_exit_one_on_failure(self, monkeypatch, capsys):
        from spinorlab.suites import SuiteReport

        def fake_run(config):
            return SuiteReport(
                suite=config.suite,
                config={"seed": config.seed},
                passed=0,
                failed=1,
                failures=[("case/t0000", "synthetic failure")],
                wall_time=0.0,
            )

        monkeypatch.setattr(cli, "run_suite", fake_run)
        assert cli.main(["--suite", "dims"]) == 1
        assert "FAIL case/t0000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--suite", "dims"], ["--suite", "hecke", "--m", "3", "--seed", "0"], ["--suite", "all", "--n", "4", "--g", "7"]],
    )
    def test_flags_left_out_take_the_config_defaults(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda config: seen.append(config) or run_suite(SuiteConfig("dims")))
        assert cli.main(argv) == 0
        given = dict(zip(argv[::2], argv[1::2]))
        expected = SuiteConfig(**{flag[2:]: value if flag == "--suite" else int(value) for flag, value in given.items()})
        assert seen == [expected]

    def test_help_states_the_config_ranges(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, lo, hi, _ in _INT_FIELDS:
            assert f"--{name} {name.upper()} " in text
            assert f"({lo}..{hi})" in text
        assert "half-rank (1..4)" in text and "randomized trials (1..10000)" in text

    def test_raising_check_still_writes_the_report(self, monkeypatch, tmp_path, capsys):
        import spinorlab.hecke as hecke

        monkeypatch.setattr(hecke, "in_sp", lambda N: False)
        out = tmp_path / "hecke.json"
        assert cli.main(["--suite", "hecke", "--json", str(out)]) == 1
        data = json.loads(out.read_text())
        # 20 cases at the defaults; only the completion case builds no family
        assert data["passed"] + data["failed"] == 20
        assert data["failed"] == 19
        assert data["failures"][0]["case"] == "modified-spinor/literal-image-n1-m1"
        assert all(f["residual"].startswith("HeckeIdentityError: ") for f in data["failures"])
        assert "Traceback" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing-dir", "directory", "empty"])
    def test_exit_two_on_unwritable_json_path(self, target, monkeypatch, tmp_path, capsys):
        """A path that cannot be opened for writing, the empty path among
        them, exits 2 before the suite runs."""
        path = {"missing-dir": tmp_path / "no" / "such" / "x.json", "directory": tmp_path, "empty": ""}[target]
        monkeypatch.setattr(cli, "run_suite", lambda config: pytest.fail("the suite ran"))
        assert cli.main(["--suite", "dims", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write the JSON report to ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["write", "close"])
    def test_exit_two_when_the_json_write_fails(self, stage, monkeypatch, capsys):
        """A report file that opens but cannot take the report (a full disk)
        is a usage error with one line on stderr, not a traceback."""

        class FullDisk(io.StringIO):
            def write(self, text):
                if stage == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(text)

            def close(self):
                if stage == "close":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                super().close()

        monkeypatch.setattr(cli, "open", lambda path, mode: FullDisk(), raising=False)
        assert cli.main(["--suite", "dims", "--json", "report.json"]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write the JSON report to report.json: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_exit_two_on_dev_full(self, capsys):
        assert cli.main(["--suite", "dims", "--json", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write the JSON report to /dev/full: ") and err.count("\n") == 1

    def test_dims_report_carries_decomposition(self, tmp_path):
        out = tmp_path / "dims.json"
        cli.main(["--suite", "dims", "--n", "2", "--g", "2", "--json", str(out)])
        # the decomposition is embedded in a case id; with zero failures it
        # only shows in passed cases, so re-run the suite to inspect ids
        report = run_suite(SuiteConfig(suite="dims", n=2, g=2))
        from spinorlab.suites import _dims_cases

        ids = [case_id for case_id, _, _ in _dims_cases(SuiteConfig(suite="dims", n=2, g=2))]
        assert any("3+4+3=10" in i for i in ids)
        assert report.failed == 0
