import hashlib
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest

from tilewalk.cli import (
    COMMANDS,
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


@pytest.mark.parametrize("key,value,command", [
    ("run.bin_level", -1, "simulate"),
    ("run.window_level", -1, "martin"),
    ("run.window_level", -2, "martin"),
    ("run.max_level", -1, "green"),
    ("run.trace_level", -1, "martin"),
    ("run.n_paths", 0, "simulate"),
    ("run.n_steps", 0, "dimension"),
])
def test_scenario_values_below_their_floor_exit_2(tmp_path, capsys, key, value, command):
    scenario = tmp_path / "s.scn"
    scenario.write_text(SMALL + f"{key} = {value}\n")
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == \
        EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"scenario error: {key}: ")


@pytest.mark.parametrize("key,value,command", [
    ("run.window_level", 0, "martin"),
    ("run.max_level", 0, "green"),
])
def test_scenario_values_at_their_floor_run(tmp_path, key, value, command):
    scenario = tmp_path / "s.scn"
    scenario.write_text(SMALL + f"{key} = {value}\n")
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == EXIT_OK


@pytest.mark.parametrize("lines,problem", [
    (["kernel.family = table"], "table requires kernel.table"),
    (["kernel.family = doubling_px", "kernel.table = {table}"],
     "doubling_px conflicts with kernel.table"),
], ids=["table-without-file", "doubling-with-table"])
def test_kernel_family_must_agree_with_kernel_table(tmp_path, capsys, lines, problem):
    from tilewalk.kernels import doubling_table_spec, save_table_spec

    table = tmp_path / "table.tsv"
    with table.open("w") as fh:
        save_table_spec(doubling_table_spec(F(3, 5)), fh)
    text = "\n".join(lines).format(table=table) + "\n"
    scenario = tmp_path / "s.scn"
    scenario.write_text(text)
    assert main(["green", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == \
        EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"scenario error: kernel.family: {problem}\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text + "run.n_steps = 0\n")
    assert exc.value.problems == [f"kernel.family: {problem}", "run.n_steps: must be >= 1"]


def test_table_scenario_row_sum_error(tmp_path):
    table = tmp_path / "kernel.tsv"
    table.write_text("base_level = 0\no 0 1/2\no 1 1/3\n")
    scn = parse_scenario(f"kernel.table = {table}\nkernel.base_level = 0\n")
    rc = run_command("validate", scn, tmp_path / "out")
    assert rc == EXIT_VALIDATION


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace("0\t01\t", "0\t02\t"), "0 -> 02 has a symbol outside 0..1"),
    (lambda text: "base_level = 1\no 0 1/3\no 1 1/3\no 2 1/3\n0 00 1\n1 11 1\n2 22 1\n",
     "o -> 2 has a symbol outside 0..1"),
    (lambda text: text.replace("o\t0\t4/15", "o\t0\t4/0"), "line 3: probability '4/0'"),
], ids=["target-symbol-2", "degree-3-table", "zero-denominator"])
def test_green_refuses_malformed_tables(tmp_path, capsys, edit, message):
    scenario = tmp_path / "s.scn"
    scenario.write_text(_table_scenario(tmp_path).text)
    table = tmp_path / "table.tsv"
    table.write_text(edit(table.read_text()))
    assert main(["green", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == \
        EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace("base_level = 2", "base_level = x"),
     "error: line 2: base_level 'x' is not an integer\n"),
    (lambda text: text.replace("o\t0\t4/15", "o\t3x\t4/15"), "error: line 3: not a word: '3x'\n"),
], ids=["base-level", "word"])
def test_green_names_the_bad_table_line(tmp_path, capsys, edit, message):
    scenario = tmp_path / "s.scn"
    scenario.write_text(_table_scenario(tmp_path).text)
    table = tmp_path / "table.tsv"
    table.write_text(edit(table.read_text()))
    assert main(["green", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == \
        EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == message


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


SUPERCRITICAL = Path(__file__).resolve().parent.parent / "scenarios" / "supercritical.scn"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_martin_supercritical_scenario_body(tmp_path, capsys):
    # four rays at 1/2 and one at 1/3, levels 5..25, nine and seven window words
    assert main(["martin", "--scenario", str(SUPERCRITICAL), "--out", str(tmp_path)]) == EXIT_OK
    body = _body(tmp_path / "martin.tsv")
    assert len(body) == 1 + 4 * 21 * 9 + 21 * 7
    assert _digest("\n".join(body)) == \
        "35f94493c1d4fd1799e62ad6fef1d2048c24af98c1a1f344f5b6449e3e9414ef"
    assert _digest(capsys.readouterr().out) == \
        "573452c44ed1e97cb746a3382fe93fa5eb0da7e6c71b2c3043bbc1398914028b"


@pytest.mark.parametrize("x,rows", [
    ("1/2", ["eigenvalues\t1/2,1/3,0", "contraction\t1", "trace_ratio\t1:2:1",
             "side_growth\t3"]),
    ("3/5", ["eigenvalues\t3/5,4/15,0", "contraction\t11/8", "trace_ratio\t5/2:7/2:1",
             "side_growth\t15/4"]),
])
def test_demo_doubling_body(tmp_path, x, rows):
    assert main(["demo-doubling", "--x", x, "--out", str(tmp_path)]) == EXIT_OK
    assert _body(tmp_path / "demo.tsv") == [f"x\t{x}", "verdict\tnon_injective"] + rows


REFERENCE = SUPERCRITICAL.parent / "reference.scn"

# exact bodies of reference.scn: (line count, sha256 of the lines joined by "\n")
_REFERENCE_BODIES = {
    "green": ("green_o.tsv", 511,
              "938ac349a3614a0993aa58ad8f810902d4050031fcc67c55d78136aeb6e8ecd1"),
    "classify": ("classify.tsv", 10,
                 "622a4a08ca8e6b31bc43c2d54536e6dd2c75cd86633c8fb5db91d2f41da2bdbd"),
    "build": ("graph_edges.tsv", 1527,
              "becf60d1be3544356de098222c0c07fd58fd32d3bed6830b4dabed1f3e6f9651"),
}


@pytest.mark.parametrize("command", sorted(_REFERENCE_BODIES))
def test_reference_scenario_exact_body(tmp_path, command):
    name, n_lines, digest = _REFERENCE_BODIES[command]
    assert run_command(command, parse_scenario(REFERENCE.read_text()), tmp_path) == EXIT_OK
    body = _body(tmp_path / name)
    assert len(body) == n_lines
    assert _digest("\n".join(body)) == digest


def test_validate_reference_scenario_body(tmp_path):
    # no bounded_range row: locality holds by construction, minimal R is on stdout
    assert run_command("validate", parse_scenario(REFERENCE.read_text()), tmp_path) == EXIT_OK
    assert _body(tmp_path / "validate.tsv") == [
        "row_sums\tok\t",
        "level_increase\tok\t",
        "coverage\tok\t",
        "equivariance\tok\tfrom_level=2",
    ]


def test_hyperbolicity_reference_scenario_delta_rows(tmp_path):
    # the comparability rows are float fits, left to the rerun tests
    assert run_command("hyperbolicity", parse_scenario(REFERENCE.read_text()), tmp_path) == EXIT_OK
    assert _body(tmp_path / "hyperbolicity.tsv")[:4] == [
        "cutoff\tdelta\texhaustive\tn_triples\twitness",
        "4\t1\tTrue\t29791\t001,110,0000,o",
        "5\t1\tTrue\t250047\t001,110,0000,o",
        "6\t1\tTrue\t2048383\t001,110,0000,o",
    ]


def test_simulate_reference_scenario_bodies(tmp_path):
    assert run_command("simulate", parse_scenario(REFERENCE.read_text()), tmp_path) == EXIT_OK
    for name, n_lines, digest in [
            ("samples.tsv", 10001,
             "dd7ba072b5c8530af700c5314b3c598f91e787b153a0b60e59aa9a5afdb6a609"),
            ("measure.tsv", 257,
             "c4adc5c5e751693652e47f41232c996a50779d510d0a40e46fc5e5b6a90c56da")]:
        body = _body(tmp_path / name)
        assert len(body) == n_lines, name
        assert _digest("\n".join(body)) == digest, name


def _table_scenario(tmp_path, extra=""):
    """The x = 3/5 law as a base-level-2 table file and a scenario on it."""
    from tilewalk.kernels import doubling_table_spec, save_table_spec

    table = tmp_path / "table.tsv"
    with table.open("w") as fh:
        save_table_spec(doubling_table_spec(F(3, 5)), fh)
    return parse_scenario(f"system.degree = 2\nkernel.table = {table}\n"
                          f'run.window_level = 3\nrun.trace_level = 25\n'
                          f'run.targets = "1/2, 1/3"\n{extra}')


@pytest.mark.parametrize("command", ["green", "simulate"])
def test_x_on_a_table_scenario_exits_2(tmp_path, capsys, command):
    scenario = tmp_path / "s.scn"
    scenario.write_text(_table_scenario(tmp_path).text)
    out = tmp_path / "o"
    assert main([command, "--scenario", str(scenario), "--x", "1/3", "--out", str(out),
                 "--workers", "1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: kernel.table: --x sets kernel.x, which a table kernel "
                          "does not read")
    assert not out.exists()


def _table_with_a_bad_base_level(tmp_path):
    text = _table_scenario(tmp_path).text
    table = tmp_path / "table.tsv"
    table.write_text(table.read_text().replace("base_level = 2", "base_level = x"))
    return text


@pytest.mark.parametrize("command,scenario_text,message", [
    ("simulate", lambda tmp_path: SMALL + "run.n_steps = 12\nrun.bin_level = 8\n",
     "error: need n_steps >= bin_level + 10, got depth 12\n"),
    ("martin", lambda tmp_path: SMALL + "run.trace_level = 6\n",
     "error: n_max too shallow: "),
    ("green", _table_with_a_bad_base_level,
     "error: line 2: base_level 'x' is not an integer\n"),
], ids=["simulate-after-sampling", "martin-after-the-header", "green-in-the-handler"])
def test_a_failed_command_leaves_no_out_directory(tmp_path, capsys, command, scenario_text,
                                                  message):
    scenario = tmp_path / "s.scn"
    scenario.write_text(scenario_text(tmp_path))
    out = tmp_path / "o"
    assert main([command, "--scenario", str(scenario), "--out", str(out),
                 "--workers", "1"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_an_out_that_cannot_be_made_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("a file, not a directory\n")
    assert main(["green", "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text() == "a file, not a directory\n"


def test_scenario_hash_covers_the_table_bytes(tmp_path):
    from tilewalk.kernels import doubling_table_spec, save_table_spec

    table = tmp_path / "table.tsv"
    scenario = tmp_path / "s.scn"
    scenario.write_text(f"system.degree = 2\nkernel.table = {table}\n")
    hashes = []
    for x in (F(1, 4), F(3, 5)):
        with table.open("w") as fh:
            save_table_spec(doubling_table_spec(x), fh)
        out = tmp_path / f"o{x.numerator}"
        assert main(["green", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        hashes.append(_header(out / "green_o.tsv", "scenario_hash"))
    assert hashes[0] != hashes[1]


def test_table_scenario_refuses_degrees_above_10(tmp_path, capsys):
    # a table file writes each symbol as one digit
    table = tmp_path / "table.tsv"
    table.write_text("base_level = 0\n" + "".join(f"o\t{s}\t1/10\n" for s in range(10)))
    scenario = tmp_path / "s.scn"
    scenario.write_text(f"system.degree = 11\nkernel.table = {table}\n")
    assert main(["green", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == \
        EXIT_VALIDATION
    assert capsys.readouterr().err == ("scenario error: kernel.table: a table file holds "
                                       "symbols 0-9 only, system.degree 11 needs more\n")


def test_table_scenario_exact_bodies(tmp_path):
    assert run_command("validate", _table_scenario(tmp_path), tmp_path / "v") == EXIT_OK
    assert _body(tmp_path / "v" / "validate.tsv") == [
        "row_sums\tok\t",
        "level_increase\tok\t",
        "coverage\tok\t",
        "equivariance\tok\tfrom_level=2",
        "note\t-\tlevel-1 vertices are not equivariant over the root "
        "(root law unconstrained; exempted)",
    ]
    assert run_command("green", _table_scenario(tmp_path), tmp_path / "g") == EXIT_OK
    body = _body(tmp_path / "g" / "green_o.tsv")
    assert len(body) == 511
    assert _digest("\n".join(body)) == \
        "ff6594f1a9f62df1058eca45495b435304898b30b775b5978a6edf4500076957"
    # the same martin.tsv body as the doubling kernel on supercritical.scn
    assert run_command("martin", _table_scenario(tmp_path), tmp_path / "m") == EXIT_OK
    body = _body(tmp_path / "m" / "martin.tsv")
    assert len(body) == 904
    assert _digest("\n".join(body)) == \
        "35f94493c1d4fd1799e62ad6fef1d2048c24af98c1a1f344f5b6449e3e9414ef"


@pytest.mark.parametrize("command,output", [("classify", "classify.tsv"),
                                            ("demo-doubling", "demo.tsv")])
def test_doubling_commands_refuse_table_scenarios(tmp_path, capsys, command, output):
    # both read only kernel.x; on a table they would report on p_{1/4}
    scenario = tmp_path / "s.scn"
    scenario.write_text(_table_scenario(tmp_path).text)
    out = tmp_path / "o"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: kernel.table: ")
    assert not (out / output).exists()


# a radius-2 table: every row above the root steps +1 with 1/2 and +2 with 1/2
RADIUS_2_TABLE = """\
base_level = 1
o 0 1/2
o 1 1/2
0 11 1/8
0 00 1/8
0 01 1/8
0 10 1/8
0 001 1/2
1 01 1/8
1 10 1/8
1 11 1/8
1 00 1/8
1 101 1/2
"""


# the same table with the root row set to its level-1 rows' shift-pushforward
RADIUS_2_SHIFT_TABLE = RADIUS_2_TABLE.replace("o 0 1/2\no 1 1/2\n",
                                              "o 0 1/4\no 1 1/4\no 01 1/2\n")


# checks: the cylinder identities fail for the first root row and hold for the
# shift-pushforward one; classify and demo-doubling refuse tables
@pytest.mark.parametrize("table_text,checks_rc,cylinder_row", [
    (RADIUS_2_TABLE, EXIT_PROPERTY, "cylinder_invariance\tFAIL\t36 cylinders"),
    (RADIUS_2_SHIFT_TABLE, EXIT_OK, "cylinder_invariance\tok\t54 cylinders"),
], ids=["uniform-root", "shift-root"])
def test_radius_2_table_through_every_command(tmp_path, capsys, table_text, checks_rc,
                                              cylinder_row):
    table = tmp_path / "radius2.tbl"
    table.write_text(table_text)
    scenario = tmp_path / "radius2.scn"
    scenario.write_text(f"system.degree = 2\nkernel.table = {table}\n"
                        "run.n_paths = 2000\nrun.n_steps = 20\nrun.bin_level = 8\n"
                        'run.window_level = 3\nrun.trace_level = 20\nrun.targets = "1/2"\n')
    expected = dict.fromkeys(COMMANDS, EXIT_OK) | {
        "checks": checks_rc, "classify": EXIT_VALIDATION, "demo-doubling": EXIT_VALIDATION}
    for command in COMMANDS:
        rc = main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                   "--workers", "1"])
        assert rc == expected[command], command
        assert "Traceback" not in capsys.readouterr().err, command
    assert cylinder_row in (tmp_path / "o" / "checks.tsv").read_text().splitlines()


@pytest.mark.parametrize("family", ["doubling_px", "table"])
def test_scenario_base_level_must_match_the_kernel(tmp_path, capsys, family):
    # doubling_px has base level 2, the table file says base_level = 2
    given = {"doubling_px": 7, "table": 5}[family]
    scenario = tmp_path / "s.scn"
    if family == "doubling_px":
        text = REFERENCE.read_text()
    else:
        text = _table_scenario(tmp_path).text
    for level, expected in ((given, EXIT_VALIDATION), (2, EXIT_OK)):
        scenario.write_text(text + f"kernel.base_level = {level}\n")
        assert main(["green", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == expected
    assert capsys.readouterr().err == (
        f"error: kernel.base_level: scenario gives {given}, the kernel has base level 2\n")


def test_martin_runs_one_backward_dp_per_ray_level(tmp_path, monkeypatch):
    import tilewalk.green_martin as green_martin

    calls = []
    original = green_martin._backward
    monkeypatch.setattr(green_martin, "_backward", lambda kernel, level, targets, stop: (
        calls.append((level, len(targets))) or original(kernel, level, targets, stop)))
    vectors = []
    monkeypatch.setattr(green_martin, "hitting_vector", lambda kernel, w: vectors.append(w))
    assert run_command("martin", parse_scenario(SUPERCRITICAL.read_text()), tmp_path) == EXIT_OK
    # the four rays at 1/2 share one DP per level, the ray at 1/3 has its own
    levels = list(range(5, 26))
    assert calls == [(n, 4) for n in levels] + [(n, 1) for n in levels]
    assert vectors == []


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_refuses_workers_below_1(tmp_path, capsys, workers):
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(SUPERCRITICAL), "--out", str(out),
                 "--workers", workers]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("x", [None, "3/5"])
def test_scenario_hash_is_sha256_of_the_resolved_fields(tmp_path, x):
    # hashlib is the reference: the CLI hashes with the interpreter's built-in module
    argv = ["green", "--scenario", str(REFERENCE), "--out", str(tmp_path)]
    scenario = parse_scenario(REFERENCE.read_text())
    if x is not None:
        argv += ["--x", x]
        scenario.x, scenario.x_grid = F(x), []
    resolved = {f.name: getattr(scenario, f.name) for f in fields(scenario) if f.name != "text"}
    assert main(argv) == EXIT_OK
    assert _header(tmp_path / "green_o.tsv", "scenario_hash") == \
        hashlib.sha256(repr(resolved).encode()).hexdigest()[:16]


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


def _body(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_checks_builds_one_hitting_vector_per_drawn_target(tmp_path, monkeypatch):
    import tilewalk.cli as cli

    calls = []
    original = cli.hitting_vector
    monkeypatch.setattr(cli, "hitting_vector",
                        lambda kernel, w: calls.append(w) or original(kernel, w))
    assert run_command("checks", parse_scenario(REFERENCE_SCENARIO), tmp_path) == EXIT_OK
    # 393 draws of w from the 128 level-7 tiles hit 122 distinct ones
    assert len(set(calls)) == len(calls) == 122
    assert _body(tmp_path / "checks.tsv") == [
        "assumptions\tok\tminimal_R=1",
        "green_dp_vs_enumeration\tok\t63 targets",
        "multiplicativity\tok\t200 quadruples in 393 attempts",
        "cylinder_invariance\tok\t30 cylinders",
        "shadow_geometry\tok\tlevels <= 6",
    ]


def test_checks_multiplicativity_fails_by_an_inequality(tmp_path, monkeypatch):
    import tilewalk.green_martin as green_martin

    # with every neighbourhood empty the upper sum is 0 < F(v, w)
    monkeypatch.setattr(green_martin, "_neighbors", lambda kernel, u, max_level: ({}, set()))
    assert run_command("checks", parse_scenario(REFERENCE_SCENARIO), tmp_path) == EXIT_PROPERTY
    rows = {row.split("\t")[0]: row.split("\t")[1:] for row in _body(tmp_path / "checks.tsv")}
    assert rows["multiplicativity"] == ["FAIL", "200 quadruples in 393 attempts"]
    assert [name for name, (verdict, _) in rows.items() if verdict != "ok"] == ["multiplicativity"]


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a pooled sample_paths loads concurrent.futures
    import tilewalk

    src = str(Path(tilewalk.__file__).resolve().parent.parent)
    code = "import sys, tilewalk.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"


def test_commands_leave_openssl_and_numpy_random_unloaded(tmp_path):
    # libcrypto (through _hashlib) and numpy.random each add megabytes to every process
    import tilewalk

    src = str(Path(tilewalk.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "from tilewalk.cli import parse_scenario, run_command\n"
            "for command in ('green', 'simulate'):\n"
            "    scenario = parse_scenario(open(sys.argv[1]).read())\n"
            "    assert run_command(command, scenario, sys.argv[2], workers=1) == 0\n"
            "print('_hashlib' in sys.modules, 'numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, str(REFERENCE), str(tmp_path)],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.splitlines()[-1] == "False False"


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_import_defaults_openblas_to_one_thread(preset, expected):
    import tilewalk

    src = str(Path(tilewalk.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, tilewalk; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**env, "PYTHONPATH": src})
    assert result.stdout.strip() == expected


def test_package_import_loads_neither_numpy_nor_a_layer():
    # the package root holds only the version and the OpenBLAS default
    import tilewalk

    src = str(Path(tilewalk.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    code = ("import os, sys, tilewalk\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'numpy' or m.startswith(('numpy.', 'tilewalk.'))),\n"
            "      os.environ['OPENBLAS_NUM_THREADS'])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**env, "PYTHONPATH": src})
    assert result.stdout.strip() == "[] 1"


def test_reference_scenario_file_is_the_built_in_one():
    assert parse_scenario(REFERENCE.read_text()).hash == \
        parse_scenario(REFERENCE_SCENARIO).hash


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


@pytest.mark.parametrize("max_level", [1, 3])
def test_hyperbolicity_below_level_4_exits_2(tmp_path, capsys, max_level):
    # every delta cutoff (4, 5, 6) lies above run.max_level
    scn = parse_scenario(REFERENCE_SCENARIO.replace("run.max_level = 8",
                                                    f"run.max_level = {max_level}"))
    assert run_command("hyperbolicity", scn, tmp_path) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: run.max_level: hyperbolicity needs >= 4, got {max_level}\n")
    assert not (tmp_path / "hyperbolicity.tsv").exists()


def test_hyperbolicity_at_level_4_writes_one_delta_row(tmp_path, capsys):
    scn = parse_scenario(REFERENCE_SCENARIO.replace("run.max_level = 8", "run.max_level = 4"))
    assert run_command("hyperbolicity", scn, tmp_path) == EXIT_OK
    lines = (tmp_path / "hyperbolicity.tsv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")][1:]
    assert [row.split("\t")[0] for row in body] == ["4", "diam_comparability_4"]
    assert capsys.readouterr().out.startswith("hyperbolicity: delta = 4:")
