import os
import subprocess
import sys

import pytest

from folint import cli
from folint.cli import main
from folint.cluster import dump_configuration, load_configuration
from folint.numfield import QQ, NumberField
from folint.polyforms import format_form, parse_form
from folint.resolve import ResolutionError
from folint.textio import format_minpoly

from helpers import (
    genus_bound, hold_back_algorithm1, negative_curve_filter, trace_labels,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_field_object_per_run():
    # example1 declares Q(i) in both files: the loaders keep the caller's
    # field, so no element crosses between two equal fields
    omega, field = cli.load_foliation(fx("example1.fol"))
    assert omega.field is field
    assert cli.load_config_file(fx("example1.cfg"), field).field is field
    cfg_field = cli._peek_field(fx("example1.cfg"))
    omega, field = cli.load_foliation(fx("example1.fol"), cfg_field)
    assert omega.field is field is cfg_field


def test_decide_fig2(capsys):
    code, out, _ = run(capsys, "decide", "--machine",
                       fx("fig2.fol"), fx("fig2.cfg"))
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert lines["verdict"] == "integral"
    # the printed pencil re-verifies under check-integral
    code2, out2, _ = run(capsys, "check-integral", "--machine",
                         lines["F"], lines["G"], fx("fig2.fol"))
    assert code2 == 0
    assert "first_integral=true" in out2


def test_decide_degree_example1(capsys):
    code, out, _ = run(capsys, "decide-degree", "4",
                       fx("example1.fol"), fx("example1.cfg"))
    assert code == 0
    assert "rational first integral" in out
    code, out, _ = run(capsys, "decide-degree", "3", "--machine",
                       fx("example1.fol"), fx("example1.cfg"))
    assert code == 1
    assert "verdict=no_integral" in out


def test_decide_family_members(capsys):
    code, out, _ = run(capsys, "decide", fx("family_a59.fol"),
                       fx("family_a59.cfg"))
    assert code == 1
    code, out, _ = run(capsys, "decide", fx("family_a0.fol"),
                       fx("family_a0.cfg"))
    assert code == 0


def test_resolve_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "resolve", fx("fig2.fol"))
    assert code == 0
    emitted = tmp_path / "fig2.cfg"
    emitted.write_text(out)
    code, out2, _ = run(capsys, "decide", "--machine", fx("fig2.fol"),
                        str(emitted))
    assert code == 0
    assert "verdict=integral" in out2


def test_psufficient(capsys):
    code, out, _ = run(capsys, "psufficient", fx("fig3.cfg"))
    assert code == 0
    assert "True" in out


def test_h0(capsys):
    code, out, _ = run(capsys, "h0", "--machine", fx("example1.cfg"), "4",
                       "2", "2", "1", "1", "1", "1", "1", "1", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h0=2"
    assert len([l for l in lines if l.startswith("basis=")]) == 2


def test_h0_wrong_multiplicity_count(capsys):
    code, _, err = run(capsys, "h0", fx("example1.cfg"), "4", "1")
    assert code == 3
    assert "expected 10 multiplicities" in err


@pytest.mark.parametrize("mode", [[], ["--machine"]], ids=["text", "machine"])
@pytest.mark.parametrize("argv", [
    ["decide", fx("fig2.fol"), "--bogus"],
    ["h0", fx("example1.cfg"), "four"],
    ["check-integral", "X", fx("fig2.fol")],
    ["resolve"],
], ids=["unknown-option", "bad-int", "missing-argument", "no-foliation"])
def test_usage_errors_are_input_errors(capsys, argv, mode):
    # argparse's own code 2 would read as an inconclusive verdict
    with pytest.raises(SystemExit) as stop:
        main(argv + mode)
    assert stop.value.code == cli.EXIT_INPUT == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize("mode", [[], ["--machine"]], ids=["text", "machine"])
@pytest.mark.parametrize("argv", [
    ["h0", "--dmax=5", fx("example1.cfg"), "4"],
    ["psufficient", "--depth=5", fx("fig2.cfg")],
    ["resolve", "--trace", fx("fig2.fol")],
    ["decide-degree", "--lmax=5", "2", fx("fig2.fol")],
    ["invariant", "--trace", "X", fx("fig2.fol")],
], ids=["h0-dmax", "psufficient-depth", "resolve-trace", "degree-lmax",
        "invariant-trace"])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv,
                                                              mode):
    with pytest.raises(SystemExit) as stop:
        main(argv + mode)
    assert stop.value.code == cli.EXIT_INPUT == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --" in captured.err


def test_printed_forms_are_accepted_back(capsys):
    code, out, _ = run(capsys, "decide", "--machine", fx("family_a0.fol"),
                       fx("family_a0.cfg"))
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert (code, lines["F"]) == (0, "-X*Z+Y*Z")
    # a form that starts with "-" needs no "--" in front of it
    code, out, _ = run(capsys, "check-integral", "--machine", lines["F"],
                       lines["G"], fx("family_a0.fol"))
    assert (code, out) == (0, "first_integral=true\n")
    code, out, _ = run(capsys, "invariant", lines["F"], fx("family_a0.fol"),
                       "--machine")
    assert (code, out) == (0, "invariant=true\n")
    code, out, _ = run(capsys, "invariant", "--machine", "-X", fx("fig2.fol"))
    assert (code, out) == (1, "invariant=false\n")


def test_invariant(capsys):
    code, out, _ = run(capsys, "invariant", "Y", fx("fig2.fol"))
    assert code == 0
    code, out, _ = run(capsys, "invariant", "X", fx("fig2.fol"))
    assert code == 1


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
@pytest.mark.parametrize("F, G", [("2", "3"), ("X", "X"), ("X", "-2*X")])
def test_a_constant_is_no_first_integral(capsys, machine, F, G):
    code, out, err = run(capsys, "check-integral", *machine, F, G,
                         fx("fig2.fol"))
    assert (code, err) == (1, "")
    assert out == ("first_integral=false\n" if machine else
                   "F/G is a rational first integral: False\n")


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
@pytest.mark.parametrize("curve", ["5", "-1/2"])
def test_a_constant_is_no_curve(capsys, machine, curve):
    code, out, err = run(capsys, "invariant", *machine, curve,
                         fx("fig2.fol"))
    assert (code, out) == (3, "")
    assert err == "error: invariance test on a constant\n"


# the pencil of lines through (0:0:1), which resolves to one dicritical
# point, and Jouanolou's J_2, which has none
ONE_POINT = "A = Y\nB = -X\nC = 0\n"
NO_POINT = "A = Y*X^2-Z^3\nB = Z*Y^2-X^3\nC = X*Z^2-Y^3\n"


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
@pytest.mark.parametrize("fol, code, text, lines", [
    (ONE_POINT, 0, ["rational first integral found:", "  F = X", "  G = Y"],
     ["verdict=integral", "F=X", "G=Y"]),
    (NO_POINT, 1, ["no rational first integral: no degree-1 pencil is "
                   "invariant"],
     ["verdict=no_integral", "reason=no degree-1 pencil is invariant"]),
], ids=["one-point", "no-point"])
def test_decide_degree_on_fewer_than_two_points(tmp_path, capsys, machine,
                                                fol, code, text, lines):
    path = tmp_path / "few.fol"
    path.write_text(fol)
    assert run(capsys, "decide-degree", *machine, "1", str(path)) == (
        code, "".join(l + "\n" for l in (lines if machine else text)), "")
    # decide agrees with the degree-1 search
    assert run(capsys, "decide", *machine, str(path))[0] == code


def test_bad_foliation_file(tmp_path, capsys):
    bad = tmp_path / "bad.fol"
    bad.write_text("A = X\nB = Y\n")
    code, _, err = run(capsys, "decide", str(bad))
    assert code == 3
    assert "missing component" in err


def test_repeated_component_is_an_input_error(tmp_path, capsys):
    # the last A used to win silently
    with open(fx("fig2.fol")) as fh:
        text = fh.read()
    bad = tmp_path / "twice.fol"
    bad.write_text(text + "A = 2*Y*Z^5\n")
    code, out, err = run(capsys, "decide", "--machine", str(bad),
                         fx("fig2.cfg"))
    assert (code, out) == (3, "")
    assert "twice.fol:5: A is already given on line 2" in err


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_second_field_line_in_a_foliation_is_an_input_error(
        tmp_path, capsys, machine):
    # the second declaration used to override the first silently
    with open(fx("fig2.fol")) as fh:
        text = fh.read()
    bad = tmp_path / "twice.fol"
    bad.write_text("field: t^2+1\nfield: t^2-2\n" + text)
    code, out, err = run(capsys, "resolve", *machine, str(bad))
    assert (code, out) == (3, "")
    assert "twice.fol:2: field is already given on line 1" in err


@pytest.mark.parametrize("second", ["t^2+1", "t^2-2"])
@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_second_field_line_in_a_configuration_is_an_input_error(
        tmp_path, capsys, machine, second):
    # an equal second declaration used to pass, and a different one was
    # refused as disagreeing with the caller's field
    with open(fx("example1.cfg")) as fh:
        text = fh.read()
    bad = tmp_path / "twice.cfg"
    bad.write_text(text.replace("point q1", "field: %s\npoint q1" % second))
    for argv in (["decide", *machine, fx("example1.fol"), str(bad)],
                 ["h0", *machine, str(bad), "1"] + ["0"] * 10):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "twice.cfg: line 3: field is already given on line 2" in err


LATE_FIELD = ("point q1 origin=(0:0:1)\npoint q2 parent=q1 chart=1 c=%s\n"
              "field: t^2+1\ndicritical q2\n")


@pytest.mark.parametrize("c", ["1", "a+1"])
@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_field_line_may_come_after_the_points(tmp_path, capsys, machine, c):
    # the points used to be read over Q before the field line was seen,
    # and then refused as elements of a different field
    late = tmp_path / "late.cfg"
    late.write_text(LATE_FIELD % c)
    first = tmp_path / "first.cfg"
    first.write_text("field: t^2+1\n" + (LATE_FIELD % c).replace(
        "field: t^2+1\n", ""))
    outputs = [run(capsys, "h0", *machine, str(path), "2", "1", "1")
               for path in (first, late)]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert ("(-1-a)*X*Z+Y*Z" in outputs[0][1]) == (c == "a+1")


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_decide_reads_a_configuration_whose_field_line_comes_last(
        tmp_path, capsys, machine):
    with open(fx("example1.cfg")) as fh:
        text = fh.read()
    late = tmp_path / "late.cfg"
    late.write_text(text.replace("field: t^2+1\n", "") + "field: t^2+1\n")
    expected = run(capsys, "decide", *machine, fx("example1.fol"),
                   fx("example1.cfg"))
    assert expected[0] == 0
    assert run(capsys, "decide", *machine, fx("example1.fol"),
               str(late)) == expected


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_the_generator_needs_a_field_line(tmp_path, capsys, machine):
    # without a field line the letter a used to read as 0 in a
    # configuration, and h0 printed a basis for c = 1
    with open(fx("fig2.cfg")) as fh:
        text = fh.read()
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("parent=q1 chart=1 c=1", "parent=q1 chart=1 "
                                "c=a+1"))
    for argv in (["h0", *machine, str(bad), "1"] + ["0"] * 13,
                 ["decide", *machine, fx("fig2.fol"), str(bad)],
                 ["decide-degree", *machine, "2", fx("fig2.fol"), str(bad)],
                 ["check-integral", *machine, "a*X", "Y", fx("fig2.fol")]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "generator 'a' used without a field: line" in err


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_a_zero_denominator_is_an_input_error(capsys, machine):
    # Fraction's ZeroDivisionError used to escape main with a traceback
    # and exit code 1, the code of a negative answer
    code, out, err = run(capsys, "check-integral", *machine, "1/0*X", "Y",
                         fx("fig2.fol"))
    assert (code, out) == (3, "")
    assert "zero denominator in '1/0'" in err


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
@pytest.mark.parametrize("command", ["decide", "resolve"])
def test_a_reducible_declared_field_is_an_input_error(tmp_path, capsys,
                                                      machine, command):
    # (t^2 - 2)(t^2 - 3) has no rational root, so NumberField accepts it;
    # inverting a^2 - 2 used to raise ZeroDivisionError out of main with a
    # traceback and exit code 1, the code of a negative answer
    pencil = tmp_path / "reducible.fol"
    pencil.write_text("field: t^4-5*t^2+6\nA = -Y+Z\nB = X-(a^2-2)*Z\n"
                      "C = -X+(a^2-2)*Y\n")
    code, out, err = run(capsys, command, *machine, str(pencil))
    assert (code, out) == (3, "")
    assert err == ("error: -2+a^2 is a zero divisor: the declared minimal "
                   "polynomial t^4-5*t^2+6 is reducible\n")


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
@pytest.mark.parametrize("command", ["decide", "resolve"])
def test_components_with_a_common_factor_are_an_input_error(tmp_path, capsys,
                                                            machine, command):
    # (X+Y+Z)(Y dX - X dY): no pair of A, B, C is certified coprime, so the
    # factor that the message names comes from gcd3's fallback
    form = tmp_path / "shared.fol"
    form.write_text("A = (X+Y+Z)*Y\nB = -(X+Y+Z)*X\nC = 0\n")
    code, out, err = run(capsys, command, *machine, str(form))
    assert (code, out) == (3, "")
    assert err == "error: %s: components share the factor X+Y+Z\n" % form


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_deep_nesting_is_an_input_error(tmp_path, capsys, machine):
    # the parser recursed until RecursionError, which exited 4 as an
    # internal error
    deep = tmp_path / "deep.fol"
    deep.write_text("A = %sX%s\nB = Y\nC = Z\n" % ("(" * 5000, ")" * 5000))
    code, out, err = run(capsys, "decide", *machine, str(deep))
    assert (code, out) == (3, "")
    assert "parentheses nested more than 100 deep" in err
    assert parse_form("(" * 50 + "X+Y" + ")" * 50) == parse_form("X+Y")


def test_every_fixture_reads_back_what_it_prints():
    for name in ("cubic_pencil", "example1", "family_a0", "family_a59",
                 "family_a861", "fig2", "fig3", "penultimate"):
        omega, field = cli.load_foliation(fx(name + ".fol"))
        for comp in omega.components():
            assert parse_form(format_form(comp), field) == comp
        assert NumberField.from_string(format_minpoly(field)) == field
        dumped = dump_configuration(cli.load_config_file(fx(name + ".cfg"),
                                                         field))
        again = load_configuration(dumped, field)
        assert again.field is field
        assert dump_configuration(again) == dumped


def test_ambiguous_point_line_is_an_input_error(tmp_path, capsys):
    with open(fx("family_a0.cfg")) as fh:
        text = fh.read()
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("origin=(1:1:1)", "origin=(1:1:1) parent=q1"))
    code, out, err = run(capsys, "decide", fx("family_a0.fol"), str(bad))
    assert (code, out) == (3, "")
    assert "q4 needs exactly one of origin/parent" in err


def test_euler_violation_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.fol"
    bad.write_text("A = Y\nB = X\nC = 0\n")
    code, _, err = run(capsys, "decide", str(bad))
    assert code == 3
    assert "Euler" in err


def test_decide_cubic_pencil_ends_in_algorithm1(capsys):
    # Algorithm 1 runs ahead of the cone search and finds the pencil at
    # d = 3 before the search takes in a class
    code, out, err = run(capsys, "decide", "--trace", fx("cubic_pencil.fol"),
                         fx("cubic_pencil.cfg"))
    assert code == 0 and out.startswith("rational first integral found:")
    lines = err.splitlines()
    assert lines[-1] == "3 algorithm1 | integral"
    assert not any(line.endswith("V+") for line in lines)


def test_trace_goes_to_stderr(capsys):
    code, out, err = run(capsys, "decide", "--trace", "--machine",
                         fx("family_a59.fol"), fx("family_a59.cfg"))
    assert code == 1
    assert "V+" in err
    assert "V+" not in out


def test_trace_labels_satisfy_the_genus_bound(capsys, monkeypatch):
    # the cone search tries only classes with p_a >= 0 that pass the
    # negative-curve filter, so every label it traces does; Algorithm 1 is
    # held back, or it ends fig3's run after a few labels
    hold_back_algorithm1(monkeypatch)
    code, _, err = run(capsys, "decide", "--trace", fx("fig3.fol"),
                       fx("fig3.cfg"))
    assert code == 0
    labels = trace_labels(err.splitlines())
    assert len(labels) >= 40
    for d, e, _ in labels:
        assert genus_bound(d, e) and negative_curve_filter(d, e), (d, e)


def test_decide_builds_one_number_field(capsys, monkeypatch):
    # the .cfg's field: line builds the field; the .fol's declaration and
    # the .cfg's, read again by load_configuration, are compared with it by
    # their minimal polynomials and build none
    built = []
    init = NumberField.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NumberField, "__init__", counting)
    code, out, _ = run(capsys, "decide", "--machine", fx("example1.fol"),
                       fx("example1.cfg"))
    assert code == 0 and "verdict=integral" in out
    assert len(built) == 1


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["text",
                                                               "machine"])
def test_disagreeing_field_is_an_input_error(tmp_path, capsys, machine):
    with open(fx("example1.fol")) as fh:
        text = fh.read()
    bad = tmp_path / "other.fol"
    bad.write_text(text.replace("field: t^2+1", "field: t^2-2"))
    code, out, err = run(capsys, "decide", *machine, str(bad),
                         fx("example1.cfg"))
    assert (code, out) == (3, "")
    assert "field declaration disagrees" in err
    with pytest.raises(cli.InputError, match="disagrees"):
        cli.load_config_file(fx("example1.cfg"), QQ)


def test_machine_output_is_stable(capsys):
    first = run(capsys, "decide", "--machine", fx("penultimate.fol"),
                fx("penultimate.cfg"))
    second = run(capsys, "decide", "--machine", fx("penultimate.fol"),
                 fx("penultimate.cfg"))
    assert first == second
    assert first[0] == 0


def test_depth_cap_is_inconclusive_in_both_modes(tmp_path, capsys):
    deep = tmp_path / "deep.fol"
    deep.write_text("A = 2*Y*Z^5\n"
                    "B = -7*Y^5*Z-3*X*Z^5+Y*Z^5\n"
                    "C = 7*Y^6+X*Y*Z^4-Y^2*Z^4\n")
    code, out, _ = run(capsys, "resolve", "--depth", "2", str(deep))
    assert code == 2
    assert out.startswith("inconclusive: ")
    code, out, _ = run(capsys, "resolve", "--depth", "2", "--machine",
                       str(deep))
    assert code == 2
    assert out.splitlines() == ["verdict=inconclusive",
                                "reason=depth cap exceeded"]


@pytest.mark.parametrize("error", [RuntimeError, ResolutionError,
                                   ZeroDivisionError])
@pytest.mark.parametrize("mode", [[], ["--machine"]], ids=["text", "machine"])
@pytest.mark.parametrize("command", ["decide", "resolve"])
def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch,
                                                  error, mode, command):
    def fail(*args, **kwargs):
        raise error("planted failure")
    # decide with a .cfg never resolves, so each command reaches one patch
    monkeypatch.setattr(cli.engine, "pipeline", fail)
    monkeypatch.setattr(cli, "build_configuration", fail)
    files = [fx("fig2.fol")] + ([fx("fig2.cfg")] if command == "decide"
                                else [])
    code, out, err = run(capsys, command, *mode, *files)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: planted failure\n"


def test_optimized_interpreter_gives_the_same_output(capsys):
    """``python -O`` strips asserts; no check may depend on them."""
    argv = ["decide", fx("family_a0.fol"), fx("family_a0.cfg"), "--machine"]
    code, out, _ = run(capsys, *argv)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = ("import sys\nfrom folint.cli import main\n"
              "sys.exit(main(%r))\n" % argv)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (code, out)


@pytest.mark.parametrize("name,expected", [
    ("cubic_pencil", False), ("example1", False), ("family_a0", True),
    ("family_a59", True), ("family_a861", True), ("fig2", True),
    ("fig3", True), ("penultimate", False),
])
def test_psufficient_machine_output(capsys, name, expected):
    code, out, _ = run(capsys, "psufficient", "--machine", fx(name + ".cfg"))
    assert out == "psufficient=%s\n" % str(expected).lower()
    assert code == (0 if expected else 1)
