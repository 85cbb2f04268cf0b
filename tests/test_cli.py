from fractions import Fraction as F
from pathlib import Path

import pytest

from tilewalk.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_VALIDATION,
    REFERENCE_SCENARIO,
    ScenarioError,
    fmt_real,
    main,
    parse_scenario,
    run_command,
)

SMALL = """\
system.degree = 2
kernel.family = doubling_px
kernel.x = "1/4"
run.max_level = 6
run.n_paths = 1500
run.n_steps = 18
run.seed = 1
run.bin_level = 5
run.window_level = 3
run.trace_level = 14
run.targets = "1/2"
run.x_grid = "3/10, 1/2"
"""


def test_parse_minimal_defaults():
    scn = parse_scenario('kernel.family = doubling_px\nkernel.x = "1/4"\n')
    assert scn.degree == 2 and scn.x == F(1, 4)
    assert scn.seed == 1 and scn.max_level == 8


def test_parse_reference():
    scn = parse_scenario(REFERENCE_SCENARIO)
    assert scn.x == F(1, 4)
    assert len(scn.x_grid) == 9
    assert scn.hash == parse_scenario(REFERENCE_SCENARIO).hash


def test_parse_range_error():
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario('kernel.x = "5/3"\n')


def test_parse_unknown_key_and_bad_value_collected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('bogus.key = 1\nrun.seed = abc\n')
    problems = err.value.problems
    assert any("unknown key" in p for p in problems)
    assert any("run.seed" in p for p in problems)


def test_parse_caps():
    with pytest.raises(ScenarioError, match="cap"):
        parse_scenario("run.n_paths = 999999999\n")


def test_table_scenario_row_sum_error(tmp_path):
    table = tmp_path / "kernel.tsv"
    table.write_text("base_level = 0\no 0 1/2\no 1 1/3\n")
    scn = parse_scenario(f"kernel.table = {table}\nkernel.base_level = 0\n")
    rc = run_command("validate", scn, tmp_path / "out")
    assert rc == EXIT_VALIDATION


def test_fmt_real():
    assert fmt_real(0.5) == "0.5"
    assert fmt_real(1 / 3) == "0.333333333333"
    assert fmt_real(float("nan")) == "nan"
    assert fmt_real(1.23456789012345e-7) == "1.23456789012e-07"


def test_run_commands_and_outputs(tmp_path):
    scn = parse_scenario(SMALL)
    out = tmp_path / "out"
    for command in ("build", "validate", "green", "classify", "hyperbolicity",
                    "simulate", "checks"):
        assert run_command(command, parse_scenario(SMALL), out) == EXIT_OK, command
    header = (out / "green_o.tsv").read_text().splitlines()[:4]
    assert header[0].startswith("# tilewalk v")
    assert any("scenario_hash" in line for line in header)
    assert any("seed = 1" in line for line in header)


def test_rerun_byte_identical(tmp_path):
    scn = parse_scenario(SMALL)
    rc1 = run_command("simulate", scn, tmp_path / "a")
    rc2 = run_command("simulate", parse_scenario(SMALL), tmp_path / "b")
    assert rc1 == rc2 == EXIT_OK
    for name in ("samples.tsv", "measure.tsv", "quasi_invariance.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_checks_reference_scenario_green(tmp_path):
    scn = parse_scenario(REFERENCE_SCENARIO)
    assert run_command("checks", scn, tmp_path / "out") == EXIT_OK


def test_checks_reference_scenario_body(tmp_path):
    # the multiplicativity row pins the rng order and the acceptance filter
    scn = parse_scenario(REFERENCE_SCENARIO)
    assert run_command("checks", scn, tmp_path) == EXIT_OK
    body = [line for line in (tmp_path / "checks.tsv").read_text().splitlines()
            if not line.startswith("#")]
    assert body == [
        "assumptions\tok\tminimal_R=1",
        "green_dp_vs_enumeration\tok\t63 targets",
        "multiplicativity\tok\t200 quadruples in 393 attempts",
        "cylinder_invariance\tok\t30 cylinders",
        "shadow_geometry\tok\tlevels <= 6",
    ]


def test_checks_fail_exit_code(tmp_path):
    # x = 1/2 breaks the path-space invariance identity -> exit 3
    scn = parse_scenario(SMALL.replace('"1/4"', '"1/2"'))
    assert run_command("checks", scn, tmp_path / "out") == EXIT_PROPERTY


def test_budget_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("TILEWALK_BUDGET", "50")
    scn = parse_scenario(SMALL)
    assert run_command("build", scn, tmp_path / "out") == EXIT_BUDGET


def test_main_entry(tmp_path, capsys):
    rc = main(["demo-doubling", "--x", "1/2", "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "1:2:1" in out and "growth 3" in out
    assert "non_injective" in out


def test_main_classify_grid(tmp_path, capsys):
    scn_file = tmp_path / "s.scn"
    scn_file.write_text(SMALL)
    rc = main(["classify", "--scenario", str(scn_file), "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    rows = (tmp_path / "o" / "classify.tsv").read_text().splitlines()
    body = [r for r in rows if not r.startswith("#")][1:]
    verdicts = {r.split("\t")[0]: r.split("\t")[1] for r in body}
    assert verdicts["3/10"] == "homeomorphism"
    assert verdicts["1/2"] == "non_injective"


def test_main_bad_x(tmp_path):
    assert main(["demo-doubling", "--x", "7/5", "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_main_bad_scenario(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("who.knows = 3\n")
    assert main(["build", "--scenario", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_seed_override(tmp_path):
    scn = parse_scenario(SMALL)
    run_command("simulate", scn, tmp_path / "a", seed=99)
    scn2 = parse_scenario(SMALL.replace("run.seed = 1", "run.seed = 99"))
    run_command("simulate", scn2, tmp_path / "b")
    a = [l for l in (tmp_path / "a" / "samples.tsv").read_text().splitlines()
         if not l.startswith("#")]
    b = [l for l in (tmp_path / "b" / "samples.tsv").read_text().splitlines()
         if not l.startswith("#")]
    assert a == b


def _header(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


def test_scenario_hash_covers_overrides(tmp_path):
    assert main(["demo-doubling", "--x", "1/2", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["demo-doubling", "--x", "3/5", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert (_header(tmp_path / "a" / "demo.tsv", "scenario_hash")
            != _header(tmp_path / "b" / "demo.tsv", "scenario_hash"))
    # the text is not hashed, only what it resolves to
    assert parse_scenario(SMALL).hash == parse_scenario("# note\n" + SMALL).hash
    assert parse_scenario(SMALL).hash != parse_scenario(SMALL + "run.seed = 2\n").hash


def test_classify_classifies_each_parameter_once(tmp_path, monkeypatch):
    import tilewalk.cli as cli

    calls = []
    original = cli.classify_doubling_boundary
    monkeypatch.setattr(cli, "classify_doubling_boundary",
                        lambda x: calls.append(x) or original(x))
    assert run_command("classify", parse_scenario(SMALL), tmp_path) == EXIT_OK
    assert calls == [F(3, 10), F(1, 2)]


def test_checks_multiplicativity_attempt_cap(tmp_path, monkeypatch):
    import tilewalk.cli as cli

    # no target vector holds the sampled pair, so no quadruple ever qualifies
    monkeypatch.setattr(cli, "hitting_vector", lambda kernel, w: {})
    assert run_command("checks", parse_scenario(SMALL), tmp_path) == EXIT_PROPERTY
    rows = [line.split("\t") for line in (tmp_path / "checks.tsv").read_text().splitlines()
            if not line.startswith("#")]
    mult = next(r for r in rows if r[0] == "multiplicativity")
    assert mult[1:] == ["FAIL", "0 quadruples in 4000 attempts"]


def test_classify_x_replaces_scenario_grid(tmp_path):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "reference.scn"
    rc = main(["classify", "--scenario", str(scenario), "--x", "3/5",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "classify.tsv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")][1:]
    assert [row.split("\t")[:2] for row in body] == [["3/5", "non_injective"]]


@pytest.mark.parametrize("max_level,rows", [
    (5, ["4", "5", "diam_comparability_5"]),
    (6, ["4", "5", "6", "diam_comparability_6"]),
    (8, ["4", "5", "6", "diam_comparability_6", "diam_comparability_8"]),
])
def test_hyperbolicity_pair_levels_follow_max_level(tmp_path, max_level, rows):
    scn = parse_scenario(REFERENCE_SCENARIO.replace("run.max_level = 8",
                                                    f"run.max_level = {max_level}"))
    assert scn.max_level == max_level
    assert run_command("hyperbolicity", scn, tmp_path) == EXIT_OK
    lines = (tmp_path / "hyperbolicity.tsv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")][1:]
    assert [row.split("\t")[0] for row in body] == rows
