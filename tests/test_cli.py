import json

import pytest

from excisionlab.algebra import Ideal, make_split_basis
from excisionlab.chains import pure_tensor
from excisionlab.cli import (
    EXIT_ERROR,
    EXIT_MISMATCH,
    EXIT_NO_LOCAL_UNIT,
    EXIT_OK,
    build_parser,
    main,
)
from excisionlab.fileio import demo_by_name, save_algebra, save_chain
from excisionlab.linalg import SparseVector


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
         "--degree", "1", "--emit-certificate", cert]
    )
    assert code == EXIT_OK
    assert "ok" in capsys.readouterr().out
    assert main(["verify", "--certificate", cert]) == EXIT_OK
    assert capsys.readouterr().out == "ok\n"
    assert main(["verify", "--certificate", cert, "--format", "structured"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "command": "verify", "status": "ok", "reason": None, "residual": None,
    }

    doc = json.loads(open(cert).read())
    key = doc["certificate"]["witness"]["terms"]
    # tamper with one coefficient: verification must fail with exit code 2
    if key:
        key[0]["coeff"] = "17"
    else:
        doc["certificate"]["witness"]["terms"] = [
            {"coeff": "17", "slots": [doc["input"]["terms"][0]["slots"][0]] * 3}
        ]
    tampered = str(tmp_path / "tampered.json")
    open(tampered, "w").write(json.dumps(doc))
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
          "--degree", "1", "--emit-certificate", cert])
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


def test_degree_mismatch_is_an_error(t2_files, capsys):
    _, algebra, chain, _ = t2_files
    code = main(
        ["excise-inverse", "--algebra", algebra, "--chain", chain, "--degree", "2"]
    )
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_descend_auto_unit(t2_files, capsys):
    _, algebra, chain, _ = t2_files
    code = main(["descend", "--algebra", algebra, "--chain", chain])
    assert code == EXIT_OK
    assert "descent homotopy identity: ok" in capsys.readouterr().out


def test_descend_unit_from_file(t2_files, capsys):
    _, algebra, chain, tmp_path = t2_files
    unit = str(tmp_path / "unit.json")
    open(unit, "w").write(json.dumps({"element": ["1", "0", "0"]}))
    assert main(["descend", "--algebra", algebra, "--chain", chain, "--unit", unit]) == EXIT_OK


def test_local_unit_command(t2_files, capsys):
    _, algebra, _, tmp_path = t2_files
    targets = str(tmp_path / "targets.json")
    open(targets, "w").write(
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
    open(targets, "w").write(json.dumps({"targets": [["0", "1", "0"]]}))
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
        "excise-inverse": ["--chain", chain, "--degree", "1"],
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
    ("excise-inverse --algebra {algebra} --chain {chain}",
     "chain has degree 1, expected -1"),
    ("demo --name t2-corner", "degree must be non-negative"),
])
def test_a_negative_degree_is_an_error(t2_files, capsys, command, error):
    _, algebra, chain, _ = t2_files
    argv = [arg.format(algebra=algebra, chain=chain) for arg in command.split()]
    assert main(argv + ["--degree", "-1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err


def test_missing_file_is_an_error(capsys):
    assert main(["homology", "--algebra", "/nonexistent.json", "--degree", "0"]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


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
