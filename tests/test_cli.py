import importlib.util
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from grouptower.cli import build_parser, main
from grouptower.constructions import build_suite, classical_suite
from grouptower.fieldext import field_suite
from grouptower.minstruct import minstruct_suite
from grouptower.oracles import run_standard_suite, standard_towers
from grouptower.report import RunReport
from grouptower.tower import format_tower


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _seeded(report, seed):
    """The report with the CLI's echo of a seed the suite does not use."""
    report.config["seed"] = seed
    return report


@pytest.fixture()
def hnn_tower_file(tmp_path):
    path = tmp_path / "tower.txt"
    path.write_text("base rank=2\nstep 1 hnn source=g0 target=g1\n")
    return str(path)


class TestParser:
    def test_reduce_flags(self):
        args = build_parser().parse_args(["reduce", "g0", "--tower", "x.txt", "--format", "structured"])
        assert args.command == "reduce"
        assert args.word == "g0"
        assert args.tower == "x.txt"
        assert args.format == "structured"

    def test_build_defaults(self):
        args = build_parser().parse_args(["build"])
        assert args.stages == 4 and args.radius == 2 and args.power_bound == 4
        assert args.seed == 0
        # every build starts from the free group, so no seed mode is accepted
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["build", "--g0-mode", "free"])
        assert exc.value.code == 2

    def test_lemmas_flags(self):
        args = build_parser().parse_args(
            ["lemmas", "--radius", "2", "--power-bound", "3", "--order-bound", "4", "--cap", "100", "--seed", "9"]
        )
        assert (args.radius, args.power_bound, args.order_bound, args.cap, args.seed) == (2, 3, 4, 100, 9)


class TestReduce:
    def test_prints_normal_form(self, hnn_tower_file):
        code, out = run_cli(["reduce", "t1 g0 t1^-1", "--tower", hnn_tower_file])
        assert code == 0
        assert out.strip() == "g1"

    def test_identity(self):
        code, out = run_cli(["reduce", "e"])
        assert code == 0
        assert out.strip() == "e"

    def test_parse_error_exits_nonzero(self, capsys):
        code = main(["reduce", "b@d"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_structured_output(self, hnn_tower_file):
        code, out = run_cli(["reduce", "t1 g0", "--tower", hnn_tower_file, "--format", "structured"])
        tree = json.loads(out)
        assert code == 0
        assert tree["schema_version"] == 1
        assert tree["checks"][0]["details"]["normal_form"] == "g1 t1"


class TestSubcommands:
    def test_build_small(self):
        code, out = run_cli(
            ["build", "--stages", "2", "--radius", "1", "--check-candidates", "40", "--format", "structured"]
        )
        tree = json.loads(out)
        assert code == 0
        ids = [c["id"] for c in tree["checks"]]
        assert "stage-1" in ids and "stage-2" in ids and "condition-progress" in ids
        stage2 = next(c for c in tree["checks"] if c["id"] == "stage-2")
        assert stage2["details"]["step"].startswith("hnn")

    def test_field_suite_small(self):
        code, out = run_cli(["field", "--cap", "5", "--format", "structured"])
        tree = json.loads(out)
        assert code == 0
        ids = [c["id"] for c in tree["checks"]]
        assert "worked-instance" in ids
        assert all(c["verdict"] == "pass" for c in tree["checks"])

    def test_field_single_instance(self):
        code, out = run_cli(["field", "--n", "2", "--b", "1,1", "--alpha", "1", "--beta", "2"])
        assert code == 0
        assert "2 -1" in out and "-1 1" in out

    def test_minstruct_small(self):
        code, out = run_cli(
            ["minstruct", "--bound", "5", "--support-bound", "4", "--embed-bound", "3", "--format", "structured"]
        )
        tree = json.loads(out)
        assert code == 0
        assert all(c["verdict"] == "pass" for c in tree["checks"])

    def test_classical_small(self):
        code, out = run_cli(["classical", "--count", "5", "--format", "structured"])
        tree = json.loads(out)
        assert code == 0
        assert all(c["verdict"] == "pass" for c in tree["checks"])

    def test_lemmas_on_tower_file(self, hnn_tower_file, tmp_path):
        code, out = run_cli(
            ["lemmas", "--tower", hnn_tower_file, "--radius", "2", "--cap", "3000", "--format", "structured"]
        )
        tree = json.loads(out)
        assert code == 0
        assert all(c["verdict"] in ("pass", "vacuous_pass") for c in tree["checks"])

    @pytest.mark.parametrize(
        "argv, suite",
        [
            (["field", "--cap", "5", "--seed", "3"], lambda: field_suite(5, 3)),
            (
                ["minstruct", "--bound", "5", "--support-bound", "4", "--embed-bound", "3"],
                lambda: minstruct_suite(5, 4, 3),
            ),
            (["classical", "--count", "5", "--seed", "7"], lambda: _seeded(classical_suite(1, 5, "g0"), 7)),
            (
                ["build", "--stages", "2", "--radius", "1", "--check-candidates", "40", "--seed", "3"],
                lambda: build_suite(2, 1, 4, 40, 3),
            ),
        ],
        ids=["field", "minstruct", "classical", "build"],
    )
    def test_suite_command_matches_library_suite(self, argv, suite):
        code, out = run_cli(argv + ["--format", "structured"])
        report = suite()
        assert code == report.exit_code == 0
        assert out == report.to_json()

    @pytest.mark.parametrize("name", ["free_z", "hnn"])
    def test_lemmas_tower_file_matches_standard_suite(self, name, tmp_path):
        path = tmp_path / f"{name}.txt"
        path.write_text(format_tower(standard_towers()[name]))
        code, out = run_cli(["lemmas", "--tower", str(path), "--radius", "2", "--format", "structured"])
        got = [
            (c["id"].split("@")[0], c["verdict"], c["details"]["checked"], c["details"]["premise_hits"],
             c["details"]["undecided"])
            for c in json.loads(out)["checks"]
        ]
        want = [
            (v.lemma_id, v.outcome, v.checked, v.premise_hits, v.undecided)
            for n, v in run_standard_suite(radius=2)
            if n == name
        ]
        assert code == 0
        assert got == want


class TestTextReport:
    """The CLI's default output: the config echo, one marked line per check
    with its scalar details and witnesses, the undecided total, and the
    elapsed seconds, which only the text rendering carries."""

    def test_passing_build(self):
        code, out = run_cli(["build", "--stages", "1", "--radius", "1", "--check-candidates", "10"])
        lines = out.splitlines()
        assert code == 0
        assert lines[:2] == ["grouptower build", "  config check_candidates = 10"]
        assert "PASS         condition-growth [pass] fresh_letter=t1" in lines
        # a row whose only detail is a list shows no details
        assert "PASS         condition-progress [pass]" in lines
        checks = [line for line in lines if re.match(r"\S+ +\S+ \[", line)]
        assert len(checks) == 6 and all(line.startswith("PASS ") for line in checks)
        assert "witness:" not in out
        assert lines[-2] == "undecided_total = 0"
        assert re.fullmatch(r"elapsed_s = \d+\.\d\d", lines[-1])

    def test_failing_build(self):
        # the centralizer row blames 8 candidates in an element's own cyclic
        # group (ROADMAP item 16); mending that row re-points this test
        argv = ["build", "--stages", "2", "--radius", "3", "--power-bound", "3", "--check-candidates", "50"]
        code, out = run_cli(argv)
        report = build_suite(2, 3, 3, 50, 0)
        assert code == report.exit_code == 1
        # the text is the library report's, followed by the elapsed seconds
        text = report.to_text()
        assert out.startswith(text)
        assert re.fullmatch(r"elapsed_s = \d+\.\d\d\n", out[len(text):])
        assert ("FAIL         condition-centralizers [counterexample] candidates_per_element=397 elements=32 "
                "undecided=0") in out
        witnesses = [line for line in out.splitlines() if "witness:" in line]
        assert len(witnesses) == 8
        assert witnesses == [f"             witness: {w}" for c in report.checks for w in c.witnesses]

    def test_undecided_total_and_other_verdicts(self):
        report = RunReport("demo", {"b": 2, "a": 1})
        report.add("sampled", "undecided", {"undecided": 3, "rows": [1, 2]})
        report.add("scan", "vacuous_pass", {"undecided": 2})
        assert report.to_text() == (
            "grouptower demo\n"
            "  config a = 1\n"
            "  config b = 2\n"
            "UNDECIDED    sampled [undecided] undecided=3\n"
            "PASS         scan [vacuous_pass] undecided=2\n"
            "undecided_total = 5\n"
        )
        assert report.exit_code == 0


class TestDeterminism:
    def test_byte_identical_structured_reports(self):
        runs = [
            ["build", "--stages", "2", "--radius", "1", "--check-candidates", "40", "--seed", "3"],
            ["field", "--cap", "3", "--seed", "5"],
            ["minstruct", "--bound", "4", "--support-bound", "3", "--embed-bound", "3"],
            ["classical", "--count", "4"],
        ]
        for argv in runs:
            _, first = run_cli(argv + ["--format", "structured"])
            _, second = run_cli(argv + ["--format", "structured"])
            assert first.encode() == second.encode(), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--n", "2", "--b", "1,0", "--alpha", "1"],
            ["field", "--n", "2", "--b", "1,1", "--alpha", "1/0"],
            ["field", "--n", "3", "--b", "1,1"],
            ["lemmas", "--radius", "2", "--cap", "10"],
            ["build", "--stages", "-1"],
            ["build", "--stages", "1", "--power-bound", "0"],
            ["build", "--stages", "1", "--radius", "0"],
            ["build", "--stages", "1", "--check-candidates", "-5"],
            ["lemmas", "--order-bound", "1"],
            ["lemmas", "--radius", "0"],
            ["field", "--cap", "0"],
            ["minstruct", "--bound", "0"],
            ["minstruct", "--support-bound", "0"],
            ["minstruct", "--embed-bound", "0"],
            # an hnn edge word outside the rank-2 base
            ["reduce", "t1^-1 g0 t1", "--tower", "{tmp}/outside.tower"],
            # a directory where a tower file belongs
            ["reduce", "g0", "--tower", "{tmp}"],
        ],
    )
    def test_invalid_input_exits_two(self, argv, tmp_path, capsys):
        (tmp_path / "outside.tower").write_text("base rank=2\nstep 1 hnn source=g5 target=g0\n")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_exit_code_contract(self):
        code, out = run_cli(["field", "--cap", "2", "--format", "structured"])
        tree = json.loads(out)
        bad = [c for c in tree["checks"] if c["verdict"] in ("counterexample", "fail", "error")]
        assert (code == 0) == (not bad)


def test_perfbench_tracing_finds_every_name_it_patches(capsys):
    # the benchmark's traced mode patches package names from outside; a
    # renamed or deleted name would raise here or be listed as absent
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder()
    recorder.install_layers()
    try:
        assert main(["classical", "--count", "2", "--format", "structured"]) == 0
        # the build path: the condition-check hook reads the report's totals
        assert main(["build", "--stages", "1", "--radius", "1", "--check-candidates", "10",
                     "--format", "structured"]) == 0
        # the exact suites, whose functions are patched by name
        assert main(["field", "--cap", "2", "--format", "structured"]) == 0
        assert main(["minstruct", "--bound", "3", "--support-bound", "2", "--embed-bound", "2",
                     "--format", "structured"]) == 0
    finally:
        recorder.uninstall()
    metrics = recorder.layer_metrics()
    # tracing still lists the memo table that _reduce no longer has
    assert metrics["absent"] == ["tower.cache.reduce"]
    assert metrics["constructions.check_conditions.checked"] > 0
    assert metrics["fieldext.instances"] > 0
    assert metrics["minstruct.max_chain_brute.calls"] > 0
