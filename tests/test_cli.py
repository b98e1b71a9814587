"""End-to-end command-line tests driving main() and the console script."""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from cellsched import (
    ExperimentConfig,
    SimConfig,
    StrategySpec,
    WorkloadConfig,
    cli,
    experiment_from_dict,
    experiment_to_dict,
    generate_workload,
    run_simulation,
)
from cellsched.cli import load_config, main, write_trace_csv
from cellsched.experiments import RANKING_KINDS
from test_golden_hashes import CLI_CONFIG

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import LoadedSweep, ReferenceRanking, ShortRuns  # noqa: E402

BASE_CONFIG = {
    "horizon": 400,
    "replications": 2,
    "base_seed": 1,
    "strategies": ["tas", "max_ci"],
}


def write_config(tmp_path, extra=None, name="config.yaml"):
    data = dict(BASE_CONFIG)
    if extra:
        data.update(extra)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def run_cli(tmp_path, command, extra=None, args=()):
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "results"
    code = main([command, "--config", cfg, "--out", str(out), *args])
    return code, out


class TestRun:
    def test_writes_table_and_manifest(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "run")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "strategy" in stdout and "tas" in stdout and "max_ci" in stdout
        assert (out / "ranking.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "ranking"
        assert manifest["seeds"] == [1, 2]
        assert set(manifest["outputs"]) == {"ranking.csv"}

    def test_table_columns_line_up(self, tmp_path, capsys):
        # both labels are shorter than the header, and ALPT cells can be wider than it
        code, _ = run_cli(tmp_path, "run", extra={"strategies": ["T", "tas"]})
        assert code == 0
        header, *rows = capsys.readouterr().out.splitlines()[:3]
        log_end = header.index("logALPT") + len("logALPT")
        for row in rows:
            assert row[: len("strategy  ")].rstrip() in ("T", "tas")
            assert re.search(r"± \S+", row).end() == log_end
            assert len(row) == len(header)  # the last column ends where "ALPT" does

    def test_seed_and_replication_overrides(self, tmp_path):
        code, out = run_cli(
            tmp_path, "run", args=["--seed", "5", "--replications", "3"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [5, 6, 7]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out / "ranking.csv").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestSweeps:
    def test_sweep_linear(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path,
            "sweep-linear",
            extra={"sweep": {"kind": "linear", "alpha_max": 0.2, "alpha_step": 0.1}},
        )
        assert code == 0
        assert "best alpha:" in capsys.readouterr().out
        lines = (out / "linear_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,logalpt_mean,logalpt_std"
        assert len(lines) == 1 + 3

    def test_sweep_prob(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path,
            "sweep-prob",
            extra={"sweep": {"kind": "probabilistic", "simplex_step": 0.5}},
        )
        assert code == 0
        assert "best mixture:" in capsys.readouterr().out
        lines = (out / "prob_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("p_t,p_tas,p_das,")
        assert len(lines) == 1 + 6

    def test_sweep_prob_labels_are_distinct(self, tmp_path, capsys):
        # one decimal gave two points of this grid the label p=(0.1,0.8,0.1)
        code, _ = run_cli(tmp_path, "sweep-prob", extra={"sweep": {"simplex_step": 0.05}})
        assert code == 0
        out = capsys.readouterr().out
        labels = [line.split()[0] for line in out.splitlines() if line.startswith("p=(")]
        assert len(labels) == len(set(labels)) == 231


class TestSweepGridsFollowTheConfig:
    """Each sweep runs the grid fields of ``sweep``; ``kind`` selects nothing."""

    def rerun_echo(self, tmp_path, command, out, filename):
        echo = json.loads((out / "manifest.json").read_text())["config"]
        path = tmp_path / "echo.yaml"
        path.write_text(yaml.safe_dump(echo))
        again = tmp_path / "again"
        assert main([command, "--config", str(path), "--out", str(again)]) == 0
        assert (again / filename).read_bytes() == (out / filename).read_bytes()

    def test_sweep_prob_without_kind(self, tmp_path, capsys):
        sweep = {"simplex_step": 0.5}  # kind takes its default, "linear"
        code, out = run_cli(tmp_path, "sweep-prob", extra={"sweep": sweep})
        assert code == 0
        assert len((out / "prob_sweep.csv").read_text().splitlines()) == 1 + 6
        self.rerun_echo(tmp_path, "sweep-prob", out, "prob_sweep.csv")

    def test_sweep_linear_with_the_other_kind(self, tmp_path, capsys):
        sweep = {"kind": "probabilistic", "alpha_max": 0.2, "alpha_step": 0.1}
        code, out = run_cli(tmp_path, "sweep-linear", extra={"sweep": sweep})
        assert code == 0
        lines = (out / "linear_sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.1", "0.2"]
        self.rerun_echo(tmp_path, "sweep-linear", out, "linear_sweep.csv")


class TestDataDumps:
    def test_dump_workload_matches_generator(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "dump-workload", args=["--seed", "9"])
        assert code == 0
        capsys.readouterr()
        lines = (out / "workload.csv").read_text().splitlines()
        config = load_config(write_config(tmp_path))
        flows = generate_workload(replace(config.sim.workload, seed=9))
        assert len(lines) == len(flows) + 1
        first = flows[0]
        assert lines[1] == (
            f"{first.id},{first.arrival_slot},{first.file_size},{first.mean_rate}"
        )

    def test_trace(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "trace")
        assert code == 0
        assert "slots" in capsys.readouterr().out
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,chosen_id,transfer_kb,active_count"
        assert len(lines) >= 1 + 400  # at least one row per horizon slot

    def test_trace_runs_the_first_listed_strategy(self, tmp_path, capsys):
        # the manifest echoes the strategies, and the trace is of the first one
        pf = StrategySpec(kind="pf")
        config = replace(
            load_config(write_config(tmp_path)), strategies=(pf,), output=str(tmp_path / "out")
        )
        cli.cmd_trace(config)
        assert "strategy pf)" in capsys.readouterr().out
        workload = replace(config.sim.workload, seed=config.base_seed)
        run = replace(config.sim, strategy=pf, workload=workload)
        trace = run_simulation(run, collect_trace=True).trace
        expected = write_trace_csv(tmp_path / "expected.csv", trace)
        assert (tmp_path / "out" / "trace.csv").read_bytes() == expected
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["strategies"] == [{"kind": "pf"}]


class TestErrors:
    def test_unknown_config_field(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "run", extra={"typo_field": 1})
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_horizon(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "run", extra={"horizon": "abc"})
        assert code == 2
        assert "error: config.horizon" in capsys.readouterr().err

    def test_non_boolean_drain_flag(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "run", extra={"drain_after_horizon": "false"})
        assert code == 2
        assert "error: config.drain_after_horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_alpha_max_must_be_finite(self, tmp_path, capsys, value):
        # no alpha grid can be built from it, so the loader rejects it
        path = tmp_path / "sweep.yaml"
        path.write_text(f"sweep: {{alpha_max: {value}}}\n")
        assert main(["sweep-linear", "--config", str(path)]) == 2
        assert "error: config.sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [("channel: {envelope_freq: .inf}", "config.channel.envelope_freq"),
         ("channel: {envelope_freq: 1.0e+308, envelope_phase: 1.0e+308}",
          "config.channel: envelope_freq + envelope_phase"),
         ("channel: {envelope_phase: .nan}", "config.channel.envelope_phase"),
         ("channel: {envelope_amplitude: .inf}", "config.channel.envelope_amplitude"),
         ("channel: {hi_coeff: .inf}", "config.channel.hi_coeff"),
         ("workload: {rate_hi_mult: .inf}", "config.workload.rate_hi_mult"),
         ("workload: {arrival_rate: .inf}", "config.workload.arrival_rate"),
         ("workload: {size_mixture: {components: [{weight: 1.0, scale_kb: .inf}]}}",
          "config.workload.size_mixture.components[0].scale_kb"),
         ("buffer: {mode: tcp-refill, max_window: -.inf}", "config.buffer.max_window"),
         ("{channel: {envelope_mode: time_varying, envelope_freq: 1.0e+306}, horizon: 1000,"
          " replications: 2, strategies: [tas]}", "config: channel.envelope_freq=1e+306"),
         ("{channel: {envelope_amplitude: 1.0e+308}, horizon: 300, replications: 2,"
          " strategies: [TK]}", "config: channel.hi_coeff * envelope * workload")],
    )
    def test_floats_must_be_finite(self, tmp_path, capsys, text, field):
        # a non-finite float, or a product of finite ones that overflows, would
        # give NaN or infinite rates, or a math error
        path = tmp_path / "config.yaml"
        path.write_text(text + "\n")
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_simplex_step_must_divide_one(self, tmp_path, capsys, command):
        # the loader checks the sweep section whichever subcommand reads it
        code, out = run_cli(tmp_path, command, extra={"sweep": {"simplex_step": 0.3}})
        assert code == 2
        assert "error: config.sweep: simplex_step=0.3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize(
        "sweep, field",
        [({"alpha_step": 1e-12}, "alpha_step=1e-12"),
         ({"simplex_step": 1e-6}, "simplex_step=1e-06"),
         ({"simplex_step": 5e-324}, "simplex_step=5e-324")],
    )
    def test_sweep_grids_are_bounded(self, tmp_path, capsys, command, sweep, field):
        # the loader counts either grid, without building it, whichever subcommand runs
        code, out = run_cli(tmp_path, command, extra={"sweep": sweep})
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: config.sweep: {field} makes over 10000 grid points" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_strategy_is_checked_on_load(self, tmp_path, capsys, command):
        # sectf reads the station buffer, which the default infinite buffer lacks
        code, out = run_cli(tmp_path, command, extra={"strategies": ["tas", "sectf"]})
        assert code == 2
        err = capsys.readouterr().err
        assert "error: config: strategy sectf needs buffer mode 'tcp-refill'" in err
        assert not out.exists()

    def test_replication_without_completions_names_its_seed(self, tmp_path, capsys):
        # at horizon 5, seed 1 completes a flow and seed 2 generates none
        code, out = run_cli(tmp_path, "run", extra={"horizon": 5})
        assert code == 2
        err = capsys.readouterr().err
        assert "error: seed 2, strategy tas: ALPT is undefined over zero completed flows" in err
        assert not out.exists()

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"horizon: 5\n\xc3\x28\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "error: unacceptable character" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_empty_strategy_list(self, tmp_path, capsys, command):
        code, out = run_cli(tmp_path, command, extra={"strategies": []})
        assert code == 2
        assert "error: config.strategies" in capsys.readouterr().err
        assert not out.exists()

    def test_config_must_be_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "error: config: expected a mapping, got [1, 2]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]\n", "false\n", "0\n"])
    def test_falsy_non_mapping_is_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "falsy.yaml"
        path.write_text(text)
        argv = ["dump-workload", "--config", str(path), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "error: config: expected a mapping" in capsys.readouterr().err

    def test_empty_file_is_the_reference_setup(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(str(path)) == experiment_from_dict({})

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [unclosed\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestParserReuse:
    """``main`` parses with one parser per process; no call may leave a trace in it."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_call_carries_nothing_into_the_next(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["run", "--config", cfg, "--seed", "7", "--replications", "3", "--out", str(a)]
        assert main(argv) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        seeds = [json.loads((out / "manifest.json").read_text())["seeds"] for out in (a, b)]
        assert seeds == [[7, 8, 9], [1, 2]]  # the second run keeps the config's own seeds
        with pytest.raises(SystemExit):
            main(["no-such-command", "--config", cfg])
        assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


def _readme_yaml() -> str:
    return (ROOT / "README.md").read_text().split("```yaml\n")[1].split("```")[0]


def _config_texts(tmp_path) -> list[bytes]:
    """Config files as the loader meets them: the README example, the golden CLI
    configs and the benchmark's, and a sample of ``short_runs`` with their echoes."""
    prob = dict(CLI_CONFIG, sweep={"kind": "probabilistic", "simplex_step": 0.5})
    texts = [_readme_yaml(), json.dumps(CLI_CONFIG), json.dumps(prob)]
    texts += [json.dumps(w.mapping, indent=2) + "\n" for w in (ReferenceRanking, LoadedSweep)]
    for mapping in ShortRuns(1, tmp_path).config_mappings[::40]:
        echo = experiment_to_dict(experiment_from_dict(mapping))
        texts += [yaml.safe_dump(mapping), yaml.safe_dump(echo)]
    return [text.encode() for text in texts]


class TestYamlLoaders:
    @pytest.mark.skipif(
        not hasattr(yaml, "CSafeLoader"), reason="this PyYAML is built without libyaml"
    )
    def test_both_loaders_read_every_config_alike(self, tmp_path):
        texts = _config_texts(tmp_path)
        assert len(texts) == 105
        for text in texts:
            pure = yaml.load(text, Loader=yaml.SafeLoader)
            fast = yaml.load(text, Loader=yaml.CSafeLoader)
            assert pure == fast and repr(pure) == repr(fast)  # repr: 1 and 1.0 differ

    def test_pure_python_loader_gives_the_same_config(self, tmp_path, monkeypatch):
        path = tmp_path / "readme.yaml"
        path.write_text(_readme_yaml())
        config = load_config(str(path))
        monkeypatch.setattr(cli, "_LOADER", _PURE_LOADER)
        assert load_config(str(path)) == config
        assert len(config.strategies) == 6


_PURE_LOADER = type("PureLoader", (cli._UniqueKeys, yaml.SafeLoader), {})


@pytest.fixture(params=["default", "pure"])
def either_loader(request, monkeypatch):
    """Each test runs with the CLI's loader and with the pure-Python one."""
    if request.param == "pure":
        monkeypatch.setattr(cli, "_LOADER", _PURE_LOADER)


@pytest.mark.usefixtures("either_loader")
class TestDuplicateKeys:
    """A key given twice in one mapping is an error, not a silent last-wins."""

    def test_top_level_key_given_twice(self, tmp_path, capsys):
        path = tmp_path / "twice.yaml"
        path.write_text("horizon: 50\nreplications: 2\nhorizon: 60\n")
        assert main(["dump-workload", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "found duplicate key 'horizon'" in err and "line 3" in err
        assert not (tmp_path / "workload.csv").exists()

    def test_nested_key_given_twice(self, tmp_path, capsys):
        path = tmp_path / "twice.yaml"
        path.write_text("horizon: 50\nworkload:\n  arrival_rate: 0.1\n"
                        "  rate_lo_mult: 0.5\n  'arrival_rate': 0.2\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "found duplicate key 'arrival_rate'" in err and "line 5" in err

    def test_a_key_may_override_a_merged_one(self, tmp_path):
        # T's own c_const overrides the merged one; that mapping is merged again
        # into the second strategy, where its merged keys are already in place
        path = tmp_path / "merge.yaml"
        path.write_text(
            "horizon: 50\n"
            "workload:\n  <<: {arrival_rate: 0.1, rate_lo_mult: 0.5}\n  arrival_rate: 0.2\n"
            "strategies:\n"
            "  - &t {kind: T, <<: {c_const: 1.0}, c_const: 2.0}\n"
            "  - {<<: *t, mean_rate_mode: assigned}\n"
        )
        config = load_config(str(path))
        workload = config.sim.workload
        assert (workload.arrival_rate, workload.rate_lo_mult) == (0.2, 0.5)
        assert [s.label() for s in config.strategies] == [
            "T(c_const=2)", "T(c_const=2,mean_rate_mode=assigned)"]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has left."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize(
        "command, csv_name",
        [("run", "ranking.csv"), ("sweep-linear", "linear_sweep.csv"),
         ("sweep-prob", "prob_sweep.csv")],
    )
    def test_reader_leaving_is_not_an_error(self, tmp_path, capsys, monkeypatch,
                                            command, csv_name):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        sweep = {"alpha_max": 0.2, "simplex_step": 0.5}
        code, out = run_cli(tmp_path, command, extra={"sweep": sweep})
        assert code == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["outputs"]) == [csv_name]
        assert (out / csv_name).exists()

    def test_console_script_with_closed_stdout(self, tmp_path):
        # the reader closes before the first byte is written, so the flush at
        # the end of main fails; Python's own flush at exit must stay silent too
        cfg = write_config(tmp_path)
        out = tmp_path / "results"
        proc = subprocess.Popen(
            [sys.executable, "-m", "cellsched.cli", "run", "--config", cfg, "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        assert proc.wait() == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()
        assert (out / "ranking.csv").exists() and (out / "manifest.json").exists()


class TestHelp:
    def test_every_subcommand_is_described(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0]
        lines = [" ".join(line.split()) for line in listed.splitlines()]
        assert [line.split()[0] for line in lines] == list(cli._COMMANDS)
        for line in lines:
            assert line in text


class TestDefaults:
    def test_no_config_loads_reference_setup(self):
        sim = SimConfig(workload=WorkloadConfig(), strategy=StrategySpec(kind="T"))
        strategies = tuple(StrategySpec(kind=k) for k in RANKING_KINDS)
        assert load_config(None) == ExperimentConfig(sim, strategies)

    def test_manifest_echoes_the_default_sweep_and_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)  # no sweep section, no output
        assert main(["run", "--config", cfg]) == 0
        echo = json.loads((tmp_path / "results" / "manifest.json").read_text())["config"]
        assert echo["sweep"] == {
            "kind": "linear", "alpha_max": 2.0, "alpha_step": 0.1, "simplex_step": 0.1
        }
        assert echo["output"] == "results"
        assert experiment_from_dict(echo) == load_config(cfg)

    def test_no_config_is_an_empty_config_file(self):
        assert load_config(None) == experiment_from_dict({})


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "results"
        proc = subprocess.run(
            [sys.executable, "-m", "cellsched.cli", "run",
             "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "ranking.csv").exists()
