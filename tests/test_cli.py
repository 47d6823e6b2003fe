import hashlib
import json
from pathlib import Path

import pytest

from excisionlab.algebra import Ideal, make_split_basis
from excisionlab.chains import boundary_b, canonicalize_cyclic, pure_tensor
from excisionlab.cli import (
    EXIT_ERROR,
    EXIT_MISMATCH,
    EXIT_NO_LOCAL_UNIT,
    EXIT_OK,
    build_parser,
    main,
)
from excisionlab.excision import inverse_excision, rotate_to_ideal_initial
from excisionlab.fileio import certificate_to_doc, demo_by_name, save_algebra, save_chain
from excisionlab.linalg import SparseVector
from excisionlab.units import build_unit_schedule


@pytest.fixture()
def t2_files(tmp_path):
    demo = demo_by_name("t2-corner")
    algebra_path = tmp_path / "t2.json"
    save_algebra(algebra_path, demo.algebra, demo.ideal, demo.split)
    chain_path = tmp_path / "chain.json"
    save_chain(chain_path, pure_tensor(demo.split, (0, 2)))
    return demo, str(algebra_path), str(chain_path), tmp_path


def test_homology_command(t2_files, capsys):
    _, algebra, _, _ = t2_files
    code = main(
        ["homology", "--algebra", algebra, "--variant", "hc", "--space", "I",
         "--degree", "0"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "dimension: 1" in out
    assert "E11" in out


def test_homology_structured_output(t2_files, capsys):
    _, algebra, _, _ = t2_files
    code = main(
        ["homology", "--algebra", algebra, "--variant", "hh", "--space", "A",
         "--degree", "1", "--format", "structured"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"].startswith("homology")
    assert "dimension" in doc["details"]


def test_excise_inverse_and_verify(t2_files, capsys):
    _, algebra, chain, tmp_path = t2_files
    cert = str(tmp_path / "cert.json")
    code = main(
        ["excise-inverse", "--algebra", algebra, "--chain", chain,
         "--emit-certificate", cert]
    )
    assert code == EXIT_OK
    assert "ok" in capsys.readouterr().out
    assert main(["verify", "--certificate", cert]) == EXIT_OK
    assert capsys.readouterr().out == "ok\n"
    assert main(["verify", "--certificate", cert, "--format", "structured"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "command": "verify", "status": "ok", "reason": None, "residual": None,
    }

    doc = json.loads(Path(cert).read_text())
    key = doc["certificate"]["witness"]["terms"]
    # tamper with one coefficient: verification must fail with exit code 2
    if key:
        key[0]["coeff"] = "17"
    else:
        doc["certificate"]["witness"]["terms"] = [
            {"coeff": "17", "slots": [doc["input"]["terms"][0]["slots"][0]] * 3}
        ]
    tampered = str(tmp_path / "tampered.json")
    Path(tampered).write_text(json.dumps(doc))
    assert main(["verify", "--certificate", tampered]) == EXIT_MISMATCH
    text = capsys.readouterr().out
    assert text.startswith("MISMATCH: ")
    code = main(["verify", "--certificate", tampered, "--format", "structured"])
    assert code == EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "verify"
    assert report["status"] == "mismatch"
    assert text.startswith(f"MISMATCH: {report['reason']}\n")
    assert report["residual"]["terms"]
    assert "\nresidual: " in text


def test_one_parser_serves_successive_calls(t2_files, capsys):
    """The parser is built once per process; a structured call leaves no
    format behind for the next one."""
    _, algebra, chain, tmp_path = t2_files
    cert = str(tmp_path / "cert.json")
    main(["excise-inverse", "--algebra", algebra, "--chain", chain,
          "--emit-certificate", cert])
    capsys.readouterr()
    assert build_parser() is build_parser()
    assert main(["verify", "--certificate", cert, "--format", "structured"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert main(["verify", "--certificate", cert]) == EXIT_OK
    assert capsys.readouterr().out == "ok\n"


def test_a_usage_error_exits_with_the_error_code(capsys):
    # argparse's own code, 2, would read as a failed verification
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == EXIT_ERROR != EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("usage: excisionlab verify")
    assert "error: the following arguments are required: --certificate" in err
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: excisionlab verify")


def test_excise_inverse_takes_the_degree_of_its_chain(t2_files, capsys):
    _, algebra, chain, _ = t2_files
    with pytest.raises(SystemExit) as info:
        main(["excise-inverse", "--help"])
    assert info.value.code == EXIT_OK
    assert "--degree" not in capsys.readouterr().out
    assert main(["excise-inverse", "--algebra", algebra, "--chain", chain]) == EXIT_OK
    assert "command: excise-inverse degree 1\n" in capsys.readouterr().out


def test_excise_inverse_inverts_the_chain_as_read(corpus, tmp_path, capsys):
    """Every strict top-filtration cycle of degree 2 on the corpus gets the
    document of `inverse_excision` under the schedule of its own tuples:
    the closed formula and its descent witness, also for the 38 whose
    canonical form, rotated into the top filtration, is not strict."""
    from support import filtered_cycle_basis

    chain, cert = tmp_path / "chain.json", tmp_path / "cert.json"
    count = not_strict = 0
    for demo in corpus:
        split = demo.split
        algebra = tmp_path / f"{demo.name}.json"
        save_algebra(algebra, demo.algebra, demo.ideal, split)
        for cycle in filtered_cycle_basis(split, 2, 2):
            save_chain(chain, cycle)
            assert main(["excise-inverse", "--algebra", str(algebra), "--chain", str(chain),
                         "--emit-certificate", str(cert)]) == EXIT_OK
            capsys.readouterr()
            schedule = build_unit_schedule(sorted(cycle.terms), split, 2)
            expected = certificate_to_doc(inverse_excision(cycle, schedule), split)
            assert json.loads(cert.read_text()) == json.loads(json.dumps(expected))
            canonical = rotate_to_ideal_initial(canonicalize_cyclic(cycle))
            not_strict += not boundary_b(canonical).is_zero()
            count += 1
    assert (count, not_strict) == (147, 38)


def test_verify_refuses_an_inverse_claimed_in_another_space(t2_files, capsys):
    # E22⊗E22⊗E22⊗E22 has no ideal slot and its b vanishes modulo rotation:
    # added to the witness it keeps the boundary identity, but only in A
    demo, algebra, _, tmp_path = t2_files
    chain = str(tmp_path / "degree2.json")
    save_chain(chain, pure_tensor(demo.split, (0, 0, 0)))  # E11⊗E11⊗E11
    cert = str(tmp_path / "cert.json")
    assert main(["excise-inverse", "--algebra", algebra, "--chain", chain,
                 "--emit-certificate", cert]) == EXIT_OK
    doc = json.loads(Path(cert).read_text())
    e22 = ["0", "0", "1"]
    doc["certificate"]["witness"]["terms"].append(
        {"coeff": "1", "slots": [e22] * 4})
    for space, code in (("relative", EXIT_MISMATCH), ("A", EXIT_MISMATCH)):
        doc["certificate"]["space"] = space
        forged = tmp_path / f"forged-{space}.json"
        forged.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--certificate", str(forged)]) == code
        assert capsys.readouterr().out.startswith("MISMATCH: ")


def test_descend_refuses_a_unit_outside_the_ideal(t2_files, capsys):
    # E11+E22 fixes E11, but the step would leave the top filtration step
    _, algebra, chain, tmp_path = t2_files
    unit = tmp_path / "identity.json"
    unit.write_text(json.dumps({"element": ["1", "0", "1"]}))
    code = main(["descend", "--algebra", algebra, "--chain", chain,
                 "--unit", str(unit)])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the unit lies outside the ideal\n"


def test_descend_auto_unit(t2_files, capsys):
    _, algebra, chain, _ = t2_files
    code = main(["descend", "--algebra", algebra, "--chain", chain])
    assert code == EXIT_OK
    assert "descent homotopy identity: ok" in capsys.readouterr().out


def test_descend_unit_from_file(t2_files, capsys):
    _, algebra, chain, tmp_path = t2_files
    unit = str(tmp_path / "unit.json")
    Path(unit).write_text(json.dumps({"element": ["1", "0", "0"]}))
    assert main(["descend", "--algebra", algebra, "--chain", chain, "--unit", unit]) == EXIT_OK


def test_local_unit_command(t2_files, capsys):
    _, algebra, _, tmp_path = t2_files
    targets = str(tmp_path / "targets.json")
    Path(targets).write_text(
        json.dumps({"targets": [["1", "0", "0"], ["0", "1", "0"]]})
    )
    code = main(["local-unit", "--algebra", algebra, "--targets", targets])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "unit: [1, 0, 0]\n"
    code = main(["local-unit", "--algebra", algebra, "--targets", targets,
                 "--format", "structured"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "command": "local-unit", "status": "ok", "unit": ["1", "0", "0"],
    }


@pytest.fixture()
def line_files(tmp_path):
    """t2-corner over the nilpotent line ideal span{E12}, which has no local
    left unit, with the chain E12⊗E22 and the target list [E12]."""
    demo = demo_by_name("t2-corner")
    line = Ideal(demo.algebra, [SparseVector.from_list([0, 1, 0])])
    split = make_split_basis(line)
    algebra_path = str(tmp_path / "nilpotent.json")
    save_algebra(algebra_path, demo.algebra, line, split)
    chain_path = str(tmp_path / "chain.json")
    save_chain(chain_path, pure_tensor(split, (0, 2)))  # E12⊗E22
    targets = str(tmp_path / "targets.json")
    Path(targets).write_text(json.dumps({"targets": [["0", "1", "0"]]}))
    return algebra_path, chain_path, targets


def test_local_unit_reports_failure(line_files, capsys):
    algebra_path, _, targets = line_files
    code = main(["local-unit", "--algebra", algebra_path, "--targets", targets])
    assert code == EXIT_NO_LOCAL_UNIT
    out = capsys.readouterr().out
    assert "no local left unit" in out
    assert "witness target: [0, 1, 0]" in out
    code = main(["local-unit", "--algebra", algebra_path, "--targets", targets,
                 "--format", "structured"])
    assert code == EXIT_NO_LOCAL_UNIT
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "local-unit"
    assert report["status"] == "no-local-unit"
    assert report["witness_target"] == ["0", "1", "0"]
    assert f"detail: {report['detail']}\n" in out


def test_every_missing_unit_prints_the_same_structured_document(line_files, capsys):
    algebra_path, chain, targets = line_files
    runs = {
        "local-unit": ["--targets", targets],
        "descend": ["--chain", chain, "--unit", "auto"],
        "excise-inverse": ["--chain", chain],
    }
    for command, extra in runs.items():
        argv = [command, "--algebra", algebra_path, *extra]
        assert main([*argv, "--format", "structured"]) == EXIT_NO_LOCAL_UNIT
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "command": command,
            "status": "no-local-unit",
            "witness_target": ["0", "1", "0"],
            "detail": "inconsistent at echelon row 0",
        }
        # text output is unchanged: a report on stdout for local-unit, an
        # error on stderr for the other two
        assert main(argv) == EXIT_NO_LOCAL_UNIT
        captured = capsys.readouterr()
        text = captured.out if command == "local-unit" else captured.err
        assert "witness target: [0, 1, 0]" in text


def test_demo_command(capsys):
    assert main(["demo", "--name", "matrix2", "--degree", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dim HC_0(I): 1" in out
    assert "all certificates verified" in out


@pytest.mark.parametrize("command, error", [
    ("homology --algebra {algebra} --space I", "degree must be non-negative"),
    ("demo --name t2-corner", "degree must be non-negative"),
])
def test_a_negative_degree_is_an_error(t2_files, capsys, command, error):
    _, algebra, chain, _ = t2_files
    argv = [arg.format(algebra=algebra, chain=chain) for arg in command.split()]
    assert main(argv + ["--degree", "-1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err


def test_a_non_integer_degree_cap_is_named(capsys, monkeypatch):
    monkeypatch.setenv("EXCISIONLAB_MAX_DEGREE", "abc")
    assert main(["demo", "--name", "t2-corner", "--degree", "1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "EXCISIONLAB_MAX_DEGREE" in captured.err and "'abc'" in captured.err


def test_missing_file_is_an_error(capsys):
    assert main(["homology", "--algebra", "/nonexistent.json", "--degree", "0"]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "--certificate"], ["homology", "--degree", "0", "--algebra"],
])
def test_a_deeply_nested_document_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main([*command, str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: document: ")


@pytest.mark.parametrize("unit, location", [
    ([], "document"),
    ({}, "element"),
    ({"element": "1"}, "element"),
    ({"element": ["1", "0"]}, "element"),
    ({"element": ["1", 0, "0"]}, "element[1]"),
])
def test_malformed_unit_file_names_its_path(t2_files, capsys, unit, location):
    _, algebra, chain, tmp_path = t2_files
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(unit))
    code = main(["descend", "--algebra", algebra, "--chain", chain, "--unit", str(path)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {location}: ")


def test_descend_names_a_non_ideal_initial_slot_before_any_unit_search(t2_files, capsys):
    demo, algebra, _, tmp_path = t2_files
    chain = str(tmp_path / "outside.json")
    save_chain(chain, pure_tensor(demo.split, (2, 0)))  # E22⊗E11
    for unit in ([], ["--unit", "auto"]):
        code = main(["descend", "--algebra", algebra, "--chain", chain, *unit])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: tuple (2, 0) has a non-ideal initial slot: the chain is "
            "not in the top filtration step\n"
        )


# sha256 over the structured reports (`elapsed_seconds` dropped) and the
# emitted certificate of `test_commands_on_a_rebased_split`, in run order
REBASED_CLI_SHA256 = "399fab4930a224f53f8ceeaa9823a33929e4f8b873cf22100406c3f9fb407079"


def test_commands_on_a_rebased_split(tmp_path, capsys):
    """On a split whose ordered basis is not the standard basis, every
    vector the CLI reads or prints is in parent coordinates: the targets
    and unit of `local-unit`, the unit of `descend` (solved, or read from a
    file) and the documents of `descend` and `excise-inverse`."""
    from support import filtered_cycle_basis, rebased_split

    split = rebased_split(demo_by_name("direct-sum"), 1)
    algebra = str(tmp_path / "rebased.json")
    save_algebra(algebra, split.parent, split.ideal, split)
    cycles = filtered_cycle_basis(split, 2, 2)
    chain = str(tmp_path / "chain.json")
    save_chain(chain, cycles[1])
    targets, outside = str(tmp_path / "targets.json"), str(tmp_path / "outside.json")
    Path(targets).write_text(json.dumps(
        {"targets": [["0", "1", "0", "0", "0"], ["-1", "1", "-1", "1", "0"],
                     ["0", "1", "2", "0", "0"]]}))
    Path(outside).write_text(json.dumps(
        {"targets": [["1", "0", "0", "0", "0"], ["0", "0", "0", "0", "1"]]}))
    unit = str(tmp_path / "unit.json")
    Path(unit).write_text(json.dumps({"element": ["0", "1", "-1", "1", "0"]}))
    cert = str(tmp_path / "cert.json")
    runs = [
        ["local-unit", "--targets", targets],
        ["descend", "--chain", chain],
        ["descend", "--chain", chain, "--unit", unit],
        ["excise-inverse", "--chain", chain, "--emit-certificate", cert],
    ]
    texts, digest = [], hashlib.sha256()
    for extra in runs:
        argv = [extra[0], "--algebra", algebra, *extra[1:]]
        assert main(argv) == EXIT_OK
        texts.append([line for line in capsys.readouterr().out.splitlines()
                      if not line.startswith(("elapsed", "certificate_file"))])
        assert main([*argv, "--format", "structured"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_seconds", None)
        report.get("details", {}).pop("certificate_file", None)
        digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    digest.update(Path(cert).read_bytes())
    assert texts == [
        ["unit: [0, 1, -1, 1, 0]"],
        ["command: descend", "unit: [0, 1, 0, 0, 0]", "output: 0",
         "certificate descent homotopy identity: ok", "all certificates verified"],
        ["command: descend", "unit: [0, 1, -1, 1, 0]",
         "output: (-2)·f2⊗f1⊗f1 + (1)·f2⊗f1⊗f2 + (2)·f3⊗f1⊗f1 + (-1)·f3⊗f1⊗f2",
         "certificate descent homotopy identity: ok", "all certificates verified"],
        # the chain as read is a strict cycle: the closed formula maps it to 0
        ["command: excise-inverse degree 2",
         "input: (-1)·f1⊗f1⊗f1 + (-1)·f1⊗f1⊗f2 + (1)·f1⊗f1⊗f3 + (1)·f1⊗f2⊗f1",
         "output: 0",
         "output_strict_boundary: 0",
         "certificate inverse image with rho(psi) ≡ phi witness: ok",
         "all certificates verified"],
    ]
    assert main(["local-unit", "--algebra", algebra, "--targets", outside]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: target 1 does not lie in the ideal\n"
    assert digest.hexdigest() == REBASED_CLI_SHA256
