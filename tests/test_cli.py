import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from datalin.cli import (
    AtomTable,
    FormatError,
    emit_instance,
    emit_witness,
    main,
    parse_instance,
    parse_witness,
)
from datalin import calculus, intlin
from datalin.core import ShapeError, VerificationError
from datalin.witness import (
    WitnessTerm,
    Witness,
    extract_witness_general,
    verify_witness,
)
from datalin.zsolve import GeneratorLayers, z_solvable

from conftest import no_leaving_row, spy


EX1 = {
    "arity": 1,
    "dimension": 1,
    "generators": [
        [
            {"set": ["d"], "value": ["1"]},
            {"set": ["e"], "value": ["1"]},
        ]
    ],
    "target": [{"set": ["b"], "value": ["2"]}],
}

EX2 = {
    "arity": 2,
    "dimension": 1,
    "generators": [
        [
            {"set": ["x", "y"], "value": ["1"]},
            {"set": ["y", "z"], "value": ["1"]},
            {"set": ["x", "z"], "value": ["1"]},
        ]
    ],
    "target": [{"set": ["g", "d"], "value": ["6"]}],
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# ---------------------------------------------------------------------------
# parsing and emission


def test_parse_emit_round_trip():
    table = AtomTable()
    inst = parse_instance(EX2, table)
    assert inst.arity == 2 and len(inst.generators) == 1
    emitted = emit_instance(inst, table)
    table2 = AtomTable()
    again = parse_instance(emitted, table2)
    assert again == inst
    assert emit_instance(again, table2) == emitted


def test_numeric_atom_names_are_canonicalized():
    raw = {
        "arity": 1,
        "dimension": 1,
        "generators": [[{"set": [3], "value": ["1"]}]],
        "target": [{"set": ["3"], "value": ["1"]}],
    }
    inst = parse_instance(raw, AtomTable())
    # "3" and 3 denote the same atom
    assert inst.generators[0] == inst.target


def test_parse_rejects_malformed_vectors():
    bad = [
        {"set": ["a"], "value": ["1", "2"]},  # wrong dimension
        {"set": ["a", "a"], "value": ["1"]},  # repeated atom
        {"set": ["a"], "value": ["1.5"]},  # non-integer
    ]
    for ent in bad:
        raw = {
            "arity": len(ent["set"]),
            "dimension": 1,
            "generators": [],
            "target": [ent],
        }
        with pytest.raises(FormatError):
            parse_instance(raw, AtomTable())


# A malformed second entry of one vector, and the exact message `main` prints
# for it with exit code 2.  The first entry interns the integer atoms 0 and 1.
FIRST = {"set": [0, 1], "value": ["1", "0"]}
ENTRY_ERRORS = {
    "not a dict": (
        "target", ["a", "b"], 'target[1]: expected {"set": …, "value": …}'
    ),
    "extra key": (
        "generators",
        {"set": ["a", "b"], "value": ["1", "0"], "note": "x"},
        'generators[0][1]: expected {"set": …, "value": …}',
    ),
    "set length": (
        "target", {"set": ["a"], "value": ["1", "0"]}, "target[1].set: expected 2 atoms"
    ),
    "value length": (
        "generators",
        {"set": ["a", "b"], "value": ["1"]},
        "generators[0][1].value: expected 2 integers",
    ),
    "repeated atom": (
        "target",
        {"set": ["a", "a"], "value": ["1", "0"]},
        "target[1].set: atoms must be distinct",
    ),
    "duplicate set": (
        "target",
        {"set": [1, "0"], "value": ["2", "0"]},
        "target[1].set: duplicate set within one vector",
    ),
    "decimal point": (
        "target",
        {"set": ["a", "b"], "value": ["0", "1.5"]},
        "target[1].value[1]: bad decimal string '1.5'",
    ),
    "float value": (
        "generators",
        {"set": ["a", "b"], "value": [1.5, "0"]},
        "generators[0][1].value[0]: integers beyond 53 bits must be decimal strings",
    ),
    "bool value": (
        "target",
        {"set": ["a", "b"], "value": ["0", True]},
        "target[1].value[1]: expected an integer",
    ),
    "bool atom": (
        "target",
        {"set": [True, "a"], "value": ["1", "0"]},
        "atoms must be strings or nonnegative integers",
    ),
    "float atom": (
        "generators",
        {"set": ["a", 1.0], "value": ["1", "0"]},
        "atoms must be strings or nonnegative integers",
    ),
}


@pytest.mark.parametrize("case", sorted(ENTRY_ERRORS))
def test_entry_errors_keep_their_messages(tmp_path, capsys, case):
    field, bad, message = ENTRY_ERRORS[case]
    raw = {"arity": 2, "dimension": 2, "generators": [[FIRST]], "target": [FIRST]}
    raw[field] = [[FIRST, bad]] if field == "generators" else [FIRST, bad]
    path = write(tmp_path, "bad.json", raw)
    assert main(["check-local", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_witness_round_trip():
    table = AtomTable()
    inst = parse_instance(EX1, table)
    w = Witness((WitnessTerm(2, 0, ((0, 0), (1, 2))),))
    emitted = emit_witness(w, table)
    assert parse_witness(emitted, table) == w


def test_values_are_emitted_as_decimal_strings():
    table = AtomTable()
    inst = parse_instance(EX1, table)
    out = emit_instance(inst, table)
    assert out["target"][0]["value"] == ["2"]


# ---------------------------------------------------------------------------
# commands and exit codes


def test_zsolve_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "ex1.json", EX1)
    assert main(["zsolve", good]) == 0
    assert "Z-SOLVABLE" in capsys.readouterr().out
    odd = dict(EX1, target=[{"set": ["b"], "value": ["3"]}])
    bad = write(tmp_path, "odd.json", odd)
    assert main(["zsolve", bad]) == 1
    assert "NOT-Z-SOLVABLE" in capsys.readouterr().out


def test_nsolve_exit_code(tmp_path, capsys):
    path = write(tmp_path, "ex1.json", EX1)
    assert main(["nsolve", path]) == 1
    assert "NOT-N-SOLVABLE" in capsys.readouterr().out


def test_nsolve_json_names_the_inconclusive_reason(tmp_path, capsys):
    path = write(tmp_path, "ex1.json", EX1)
    assert main(["nsolve", path, "--json"]) == 1
    assert "reason" not in json.loads(capsys.readouterr().out.splitlines()[1])
    assert main(["nsolve", path, "--json", "--cap", "0"]) == 3
    payload = json.loads(capsys.readouterr().out.splitlines()[1])
    assert (payload["status"], payload["reason"]) == ("INCONCLUSIVE", "coeff_cap")


def test_check_local_explain(tmp_path, capsys):
    odd = dict(
        EX2, target=[{"set": ["g", "d"], "value": ["3"]}]
    )
    path = write(tmp_path, "odd2.json", odd)
    assert main(["check-local", path, "--explain"]) == 1
    out = capsys.readouterr().out
    assert "LOCAL-CHECK-FAIL" in out and "subset" in out


def _witness_then_verify(tmp_path, capsys, inst_path):
    """Run `witness` on the instance, then `verify` on its output; returns
    the witness line, verify's exit code and output, and the witness path."""
    assert main(["witness", inst_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("WITNESS-FOUND")
    witness_json = out.splitlines()[1]
    wpath = tmp_path / "w.json"
    wpath.write_text(witness_json)
    code = main(["verify", inst_path, str(wpath)])
    return witness_json, code, capsys.readouterr().out, str(wpath)


def test_witness_and_verify_round_trip(tmp_path, capsys):
    inst_path = write(tmp_path, "ex2.json", EX2)
    _, code, out, wpath = _witness_then_verify(tmp_path, capsys, inst_path)
    assert (code, out.strip()) == (0, "VERIFIED")
    # same witness fails N-mode (negative coefficients)
    assert main(["verify", inst_path, wpath, "--mode", "N"]) == 1


def test_witness_command_uses_the_general_extractor(tmp_path, capsys):
    table = AtomTable()
    expected = emit_witness(extract_witness_general(parse_instance(EX2, table)), table)
    path = write(tmp_path, "ex2.json", EX2)
    assert main(["witness", path]) == 0
    assert capsys.readouterr().out == "WITNESS-FOUND\n" + json.dumps(
        expected, sort_keys=True, separators=(",", ":")
    ) + "\n"


def test_zsolve_json_witness_verifies(tmp_path, capsys):
    inst_path = write(tmp_path, "ex2.json", EX2)
    assert main(["zsolve", inst_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[1])
    assert payload["witness"] is not None
    wpath = write(tmp_path, "w.json", payload["witness"])
    assert main(["verify", inst_path, wpath]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_zsolve_json_checks_the_local_criterion_once(tmp_path, capsys, monkeypatch):
    # the decision comes from the extractor's own membership check
    def unused(inst):
        raise AssertionError("zsolve --json must not call z_solvable")

    monkeypatch.setattr("datalin.cli.z_solvable", unused)
    walks = spy(monkeypatch, GeneratorLayers, "failing_subsets")
    odd = dict(EX2, target=[{"set": ["g", "d"], "value": ["3"]}])
    for name, doc, code in [("ex2", EX2, 0), ("odd2", odd, 1)]:
        path = write(tmp_path, f"{name}.json", doc)
        assert main(["zsolve", path, "--json"]) == code
        payload = json.loads(capsys.readouterr().out.splitlines()[1])
        assert payload["solvable"] is (code == 0)
        assert ("witness" in payload) is (code == 0)
        assert len(walks) == 1
        walks.clear()
    # a cap trips only after the check passed: solvable, without a witness
    monkeypatch.setattr(calculus, "_MAX_STEPS", 1)
    assert main(["zsolve", write(tmp_path, "ex2.json", EX2), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[1])
    assert (payload["solvable"], payload["witness"]) == (True, None)
    assert len(walks) == 1


@pytest.mark.parametrize("argv", [["witness"], ["zsolve", "--json"]])
def test_internal_error_exit_code_4(tmp_path, capsys, monkeypatch, argv):
    def broken(inst):
        raise VerificationError("decomposition left a nonzero residual")

    monkeypatch.setattr("datalin.cli.extract_witness_general", broken)
    path = write(tmp_path, "ex2.json", EX2)
    assert main([argv[0], path, *argv[1:]]) == 4
    err = capsys.readouterr().err
    assert "internal error: decomposition left a nonzero residual" in err
    assert "Traceback" not in err


def test_verification_error_exit_code_4(tmp_path, capsys, monkeypatch):
    def broken(inst):
        raise VerificationError("HNF solver produced a non-solution")

    monkeypatch.setattr("datalin.cli.local_check", broken)
    path = write(tmp_path, "ex2.json", EX2)
    assert main(["check-local", path]) == 4
    err = capsys.readouterr().err
    assert "internal error: HNF solver produced a non-solution" in err
    assert "Traceback" not in err


def test_unbounded_simplex_exit_code_4(tmp_path, capsys, monkeypatch):
    # the reversibility test runs the simplex, whose impossible branch is
    # forced here: an internal error, not a traceback
    monkeypatch.setattr(intlin, "_leaving_row", no_leaving_row)
    negated = [{"set": ["d"], "value": ["-1"]}]
    path = write(
        tmp_path, "rev.json", dict(EX1, generators=EX1["generators"] + [negated])
    )
    assert main(["nsolve", path]) == 4
    err = capsys.readouterr().err
    assert "internal error: phase-1 objective unbounded" in err
    assert "Traceback" not in err


def test_step_cap_reports_inconclusive(tmp_path, capsys, monkeypatch):
    # EX2 needs a decomposition, which cannot finish in one step or with
    # one witness term; `main` reports either cap by its reason
    path = write(tmp_path, "ex2.json", EX2)
    for cap, reason in (("_MAX_STEPS", "step_cap"), ("_MAX_TERMS", "term_cap")):
        with monkeypatch.context() as patch:
            patch.setattr(calculus, cap, 1)
            assert main(["witness", path]) == 3
            assert capsys.readouterr().out.splitlines() == ["INCONCLUSIVE"]
            assert main(["witness", path, "--json"]) == 3
            line, payload = capsys.readouterr().out.splitlines()
            assert line == "INCONCLUSIVE"
            assert json.loads(payload) == {
                "command": "witness", "status": "cap", "reason": reason
            }
            assert main(["zsolve", path, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out.splitlines()[1])
            assert payload["solvable"] is True
            assert payload["witness"] is None


def test_witness_absent(tmp_path, capsys):
    odd = dict(EX2, target=[{"set": ["g", "d"], "value": ["3"]}])
    path = write(tmp_path, "odd2.json", odd)
    assert main(["witness", path]) == 1
    assert "NO-WITNESS" in capsys.readouterr().out


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "ex1.json", EX1)
    assert main(["oracle", path, "--coeff-bound", "1", "--fresh", "2"]) == 0
    assert "ORACLE-FOUND" in capsys.readouterr().out
    assert (
        main(["oracle", path, "--coeff-bound", "1", "--fresh", "2", "--mode", "N"])
        == 1
    )
    assert "ORACLE-ABSENT" in capsys.readouterr().out


def test_oracle_json_names_the_cap_that_tripped(tmp_path, capsys):
    # 200,000 fresh atoms give more placements than `max_columns` allows
    path = write(tmp_path, "ex1.json", EX1)
    args = ["oracle", path, "--coeff-bound", "1", "--fresh", "200000", "--json"]
    assert main(args) == 3
    line, payload = capsys.readouterr().out.splitlines()
    assert line == "INCONCLUSIVE"
    assert json.loads(payload) == {
        "command": "oracle", "status": "cap", "reason": "column_cap"
    }


def test_format_error_exit_code_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["zsolve", str(p)]) == 2
    missing = write(tmp_path, "missing.json", {"arity": 1})
    assert main(["zsolve", missing]) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"arity": "\xe9"}'.encode("latin-1"))
    assert main(["zsolve", str(latin1)]) == 2
    # an integer beyond int's 4300-digit limit as a JSON number
    huge = tmp_path / "huge.json"
    huge.write_text('{"arity": ' + "7" * 5000 + "}")
    assert main(["zsolve", str(huge)]) == 2
    assert "internal error" not in capsys.readouterr().err
    # as an atom name it is a name: no JSON integer atom can equal it
    long_atom = dict(EX1, target=[{"set": ["7" * 5000], "value": ["2"]}])
    long_atom = write(tmp_path, "atom.json", long_atom)
    assert main(["witness", long_atom]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    terms = json.loads(out.out.splitlines()[1])["terms"]
    assert {"7" * 5000} <= {b for t in terms for b in t["renaming"].values()}


def test_non_decimal_digit_atoms_are_names(tmp_path):
    # "²" counts as a digit but int() refuses it: it stays a string atom
    sup = dict(EX1, target=[{"set": ["\u00b2"], "value": ["2"]}])
    path = write(tmp_path, "sup.json", sup)
    assert main(["zsolve", path]) == 0


def test_fresh_atoms_avoid_input_names(tmp_path, capsys):
    raw = dict(
        EX1,
        generators=[[{"set": ["p"], "value": [1]}, {"set": ["q"], "value": [1]}]],
        target=[{"set": ["_f5"], "value": [2]}],
    )
    path = write(tmp_path, "clash.json", raw)
    witness_json, code, out, _ = _witness_then_verify(tmp_path, capsys, path)
    assert (code, out.strip()) == (0, "VERIFIED")
    # fresh atom 5 would be printed as "_f5", the target's atom
    assert '"__f5"' in witness_json


NON_CANONICAL_DIGITS = {
    "leading-zero-key": {
        "arity": 2,
        "dimension": 1,
        "generators": [[{"set": ["007", "7"], "value": [1]}]],
        "target": [{"set": ["007", "7"], "value": [2]}],
    },
    "leading-zero-target": dict(
        EX1,
        generators=[[{"set": ["a"], "value": [1]}]],
        target=[{"set": ["7"], "value": [1]}, {"set": ["007"], "value": [1]}],
    ),
    "arabic-indic-three": dict(
        EX1,
        generators=[[{"set": [3], "value": [1]}, {"set": ["\u0663"], "value": [1]}]],
        target=[{"set": ["a"], "value": [2]}],
    ),
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL_DIGITS))
def test_non_canonical_digit_strings_are_names(tmp_path, capsys, name):
    path = write(tmp_path, "inst.json", NON_CANONICAL_DIGITS[name])
    witness_json, code, out, _ = _witness_then_verify(tmp_path, capsys, path)
    assert (code, out.strip()) == (0, "VERIFIED")
    if name.startswith("leading-zero"):
        assert '"007"' in witness_json


def test_gen_is_byte_stable(capsys):
    assert main(["gen", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(json.loads(first), AtomTable())
    assert inst.arity == 2


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_gen_plants_a_z_solvable_target(capsys, arity, dim):
    for seed in range(20):
        argv = ["gen", "--seed", str(seed), "--arity", str(arity), "--dim", str(dim)]
        assert main(argv) == 0
        inst = parse_instance(json.loads(capsys.readouterr().out), AtomTable())
        assert z_solvable(inst)
        assert verify_witness(inst, extract_witness_general(inst), "Z")


def test_nsolve_stops_at_the_functional_level(tmp_path, capsys):
    # x+y, x+y+z and 2x+y against 1 at a new atom: the Pottier bound of
    # 2,592 is under the default --cap, and z = (1) allows no copy at all
    unit = [{"set": [a], "value": ["1"]} for a in "xyz"]
    inst = {
        "arity": 1,
        "dimension": 1,
        "generators": [unit[:2], unit, [{"set": ["x"], "value": ["2"]}, unit[1]]],
        "target": [{"set": ["w"], "value": ["1"]}],
    }
    assert main(["nsolve", "--json", write(tmp_path, "three.json", inst)]) == 1
    line, report = capsys.readouterr().out.splitlines()
    assert line == "NOT-N-SOLVABLE"
    assert json.loads(report)["status"] == "UNSOLVABLE"
    assert json.loads(report)["coeff_bound"] == "2592"


def run_cli(*argv):
    """`python -m datalin.cli` in a subprocess, where a traceback would reach
    stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "datalin.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )


@pytest.mark.parametrize(
    "flags",
    [["--gens", "0"], ["--gens", "-1"], ["--dim", "0"], ["--weight-range", "0"],
     ["--arity", "0"]],
)
def test_gen_rejects_nonpositive_sizes(flags):
    out = run_cli("gen", *flags)
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_deeply_nested_file_is_an_input_error(tmp_path):
    # json.load gives up on it with a RecursionError
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    out = run_cli("zsolve", str(p))
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "argv",
    [["nsolve", "--cap", "-1"], ["oracle", "--coeff-bound", "-1"],
     ["oracle", "--fresh", "-1"]],
)
def test_negative_option_values_are_input_errors(tmp_path, capsys, argv):
    path = write(tmp_path, "ex1.json", EX1)
    assert main([argv[0], path, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_library_shape_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a ShapeError raised inside the library is a bug, not bad input
    def broken(inst):
        raise ShapeError("shape mismatch: (2,1) vs (1,1)")

    monkeypatch.setattr("datalin.cli.extract_witness_general", broken)
    path = write(tmp_path, "ex2.json", EX2)
    assert main(["witness", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: shape mismatch")
    # the one line names where the failure was raised
    assert "(at test_cli.py:" in err and " in broken)" in err
    assert "Traceback" not in err


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write(tmp_path, "ex1.json", EX1)
    assert main(["zsolve", path]) == 0
    assert main(["check-local", "--json", path]) == 0
    assert built == []


# Exact (exit code, stdout) of each command on the examples and on their odd
# targets, which no command's output may change.  Keys are "<instance>
# <command and flags>"; W stands for the witness file, which holds the
# witness that `witness` prints for the instance's solvable example.
GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_golden.json").read_text())
GOLDEN_INSTANCES = {
    "ex1": EX1,
    "ex1_odd": dict(EX1, target=[{"set": ["b"], "value": ["3"]}]),
    "ex2": EX2,
    "ex2_odd": dict(EX2, target=[{"set": ["g", "d"], "value": ["3"]}]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_the_golden_record(tmp_path, capsys, case):
    name, command, *flags = case.split()
    path = write(tmp_path, f"{name}.json", GOLDEN_INSTANCES[name])
    witness = GOLDEN[f"{name.split('_')[0]} witness"][1].splitlines()[1]
    wpath = tmp_path / "w.json"
    wpath.write_text(witness)
    flags = [str(wpath) if f == "W" else f for f in flags]
    code = main([command, path, *flags])
    assert [code, capsys.readouterr().out] == GOLDEN[case]


def test_json_flag_emits_machine_report(tmp_path, capsys):
    path = write(tmp_path, "ex1.json", EX1)
    assert main(["zsolve", path, "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads(lines[1])
    assert payload["solvable"] is True
