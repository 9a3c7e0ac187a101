"""End-to-end tests of the command-line interface and JSON formats."""

import json

import numpy as np
import pytest

from stieltjesmp.cli import (
    complex_to_json,
    json_to_complex,
    json_to_matrix,
    main,
    matrix_to_json,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def moment_file(tmp_path, values, alpha=0.0, name="m.json"):
    return write_json(tmp_path / name, {
        "alpha": alpha, "q": 1,
        "moments": [[[[float(v), 0.0]]] for v in values]})


def measure_file(tmp_path, atoms, alpha=0.0, name="mu.json"):
    return write_json(tmp_path / name, {
        "alpha": alpha, "q": 1,
        "atoms": [{"t": t, "weight": [[[m, 0.0]]]} for t, m in atoms]})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_json_round_trip():
    z = 1.5 - 2.25j
    assert json_to_complex(complex_to_json(z)) == z
    assert json_to_complex(3) == 3.0 + 0j
    with pytest.raises(ValueError):
        json_to_complex([1.0])
    M = np.array([[1.0 + 2j, 0.0], [-1j, 3.0]])
    assert np.array_equal(json_to_matrix(matrix_to_json(M)), M)
    with pytest.raises(ValueError):
        json_to_matrix([])


def test_cmd_check_exit_codes(tmp_path, capsys):
    code, doc = run(capsys, ["check", moment_file(tmp_path, [1, 1])])
    assert code == 0
    assert doc["in_Kgeq"] and doc["in_Kgeq_e"]
    code, doc = run(capsys, ["check",
                             moment_file(tmp_path, [1, -1], name="neg.json")])
    assert code == 2
    assert not doc["in_Kgeq"]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    capsys.readouterr()
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    # A row of q * q entries is not a q x q moment, though it would
    # reshape to I_2.
    flat = write_json(tmp_path / "flat.json", {
        "alpha": 0.0, "q": 2, "moments": [[[1, 0, 0, 1]]]})
    assert main(["check", flat]) == 1
    assert "moment s_0 must be 2 x 2" in capsys.readouterr().err


def test_cmd_classify(tmp_path, capsys):
    code, doc = run(capsys, ["classify", moment_file(tmp_path, [1, 1]),
                             "--n", "0"])
    assert code == 0
    assert (doc["m"], doc["ell"], doc["r"]) == (0, 0, 1)
    assert doc["case"] == "NonDegenerate"
    code, doc = run(capsys, ["classify",
                             moment_file(tmp_path, [1, 0], name="d.json"),
                             "--n", "0"])
    assert (doc["m"], doc["ell"], doc["r"]) == (0, 1, 0)
    assert doc["case"] == "CompletelyDegenerate"
    assert doc["m"] + doc["ell"] + doc["r"] == 1  # r = q - m - ell


def test_cmd_resolvent(tmp_path, capsys):
    code, doc = run(capsys, ["resolvent", moment_file(tmp_path, [1, 0]),
                             "--n", "0"])
    assert code == 0
    assert doc["degree"] <= 1
    assert doc["theta"][0] == [[[1.0, 0.0], [0.0, 0.0]],
                               [[0.0, 0.0], [1.0, 0.0]]]
    assert doc["theta"][1] == [[[0.0, 0.0], [0.0, 0.0]],
                               [[-1.0, 0.0], [0.0, 0.0]]]
    assert all(v <= 1e-10 for v in doc["residuals"].values())


def test_cmd_solve_with_pair(tmp_path, capsys):
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[0.0, 0.0]]], "psi": [[[1.0, 0.0]]]})
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 1]), pair,
                             "--n", "0", "--points", "1j"])
    assert code == 0
    assert doc["case"] == "NonDegenerate"
    val = doc["values"][0]
    assert val["z"] == [0.0, 1.0]
    assert np.allclose(val["S"], [[[0.5, 0.5]]])
    assert val["sigma_min_even"] >= -1e-10
    assert val["sigma_min_odd"] >= -1e-10


def test_cmd_solve_rejects_a_malformed_pair_file(tmp_path, capsys):
    moments = moment_file(tmp_path, [1, 1])
    for doc in ([1, 2], {"kind": "stieltjes_function", "q": 1,
                         "atoms": [1]}):
        pair = write_json(tmp_path / "p.json", doc)
        code = main(["solve", moments, pair, "--n", "0", "--points", "1j"])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err.startswith("error: pair file")
        assert "Traceback" not in captured.err


def test_cmd_solve_completely_degenerate_warns(tmp_path, capsys):
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[1.0, 0.0]]], "psi": [[[0.0, 0.0]]]})
    code = main(["solve", moment_file(tmp_path, [1, 0]), pair,
                 "--n", "0", "--points", "2j"])
    captured = capsys.readouterr()
    assert code == 0
    assert "ignored" in captured.err
    doc = json.loads(captured.out)
    assert doc["case"] == "CompletelyDegenerate"
    assert np.allclose(doc["values"][0]["S"], [[[0.0, 0.5]]])  # -1/(2i)


def test_cmd_solve_needs_a_pair_unless_completely_degenerate(tmp_path,
                                                              capsys):
    code = main(["solve", moment_file(tmp_path, [1, 1]), "--n", "0"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert "a pair file is required unless the data is completely " \
        "degenerate" in captured.err
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 0]),
                             "--n", "0", "--points", "2j"])
    assert code == 0 and doc["case"] == "CompletelyDegenerate"


def test_cmd_solve_flags_singular_point(tmp_path, capsys):
    code = main(["solve", moment_file(tmp_path, [1, 0]),
                 "--n", "0", "--points", "1e-18"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert "singular" in doc["values"][0]


def test_cmd_solve_reports_each_point(tmp_path, capsys):
    # S(z) = -1/z: singular at 1e-18, finite but not off R at 3.
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 0]),
                             "--n", "0", "--points", "1j,1e-18,2j,3,1j"])
    assert code == 0
    good, singular, other, real, again = doc["values"]
    assert set(good) == {"z", "S", "sigma_min_even", "sigma_min_odd"}
    assert good == again
    assert np.allclose(other["S"], [[[0.0, 0.5]]])
    assert set(singular) == {"z", "singular"}
    assert "singular LFT denominator" in singular["singular"]
    assert set(real) == {"z", "S", "singular"}
    assert "off R" in real["singular"]


def test_cmd_solve_evaluates_once_over_the_points(tmp_path, capsys,
                                                  monkeypatch):
    from stieltjesmp import potapov, solver
    calls = {"S": 0, "report": 0}
    call, report = solver.SolutionFunction.__call__, potapov.potapov_report

    def counting_call(self, z):
        calls["S"] += 1
        return call(self, z)

    def counting_report(*args, **kwargs):
        calls["report"] += 1
        return report(*args, **kwargs)

    monkeypatch.setattr(solver.SolutionFunction, "__call__", counting_call)
    monkeypatch.setattr(potapov, "potapov_report", counting_report)
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 0]),
                             "--n", "0", "--points", "1j,2j,-1+0.5j,3-1j"])
    assert code == 0 and len(doc["values"]) == 4
    assert all("sigma_min_even" in v for v in doc["values"])
    assert calls == {"S": 1, "report": 1}


def test_cmd_solve_stieltjes_function_pair(tmp_path, capsys):
    pair = write_json(tmp_path / "pf.json", {
        "kind": "stieltjes_function", "alpha": 0.0, "q": 1,
        "atoms": [{"t": 1.0, "weight": [[[1.0, 0.0]]]}],
        "gamma": [[[0.0, 0.0]]]})
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 1]), pair,
                             "--n", "0", "--points", "1j"])
    assert code == 0
    z = 1j
    expected = (2.0 - z) / (z * z - 3.0 * z + 1.0)
    got = complex(doc["values"][0]["S"][0][0][0],
                  doc["values"][0]["S"][0][0][1])
    assert abs(got - expected) < 1e-10


def test_cmd_verify(tmp_path, capsys):
    seq = moment_file(tmp_path, [1, 1])
    good = measure_file(tmp_path, [(1.0, 1.0)])
    code, doc = run(capsys, ["verify", seq, good, "--n", "0"])
    assert code == 0 and doc["valid"]
    shifted = measure_file(tmp_path, [(0.0, 1.0)], name="mu0.json")
    code, doc = run(capsys, ["verify", seq, shifted, "--n", "0"])
    assert code == 0 and doc["valid"]
    assert abs(doc["checks"]["top_defect_lambda_min"] - 1.0) < 1e-10
    bad_seq = moment_file(tmp_path, [1, 0], name="m10.json")
    code, doc = run(capsys, ["verify", bad_seq, good, "--n", "0"])
    assert code == 2 and not doc["valid"]


def test_cmd_verify_refuses_a_level_the_moments_lack(tmp_path, capsys):
    # A measure is checked against s_0..s_2n+1: three moments reach
    # level 0 only, and level 1 is a usage error, not a crash.
    seq = moment_file(tmp_path, [1, 1, 1])
    mu = measure_file(tmp_path, [(1.0, 1.0)])
    assert main(["verify", seq, mu, "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Hs_1 needs 2n+1 = 3 <= m = 2")


def test_cmd_transform_and_moments(tmp_path, capsys):
    mu = measure_file(tmp_path, [(1.0, 1.0)])
    code, doc = run(capsys, ["transform", mu, "--points", "1j"])
    assert code == 0
    assert np.allclose(doc["values"][0]["S"], [[[0.5, 0.5]]])
    empty = write_json(tmp_path / "e.json",
                       {"alpha": 0.0, "q": 1, "atoms": []})
    code, doc = run(capsys, ["transform", empty, "--points", "1j"])
    assert np.allclose(doc["values"][0]["S"], [[[0.0, 0.0]]])
    code, doc = run(capsys, ["transform", mu, "--points", "1j,2+1j,-1j"])
    assert code == 0
    assert np.allclose([v["S"] for v in doc["values"]],
                       [[[[0.5, 0.5]]], [[[-0.5, 0.5]]], [[[0.5, -0.5]]]])
    assert main(["transform", mu, "--points", "1j,1,2"]) == 1
    assert "point (1+0j) coincides with atom 1.0" in capsys.readouterr().err
    two = measure_file(tmp_path, [(0.0, 0.5), (2.0, 0.5)], name="two.json")
    code, doc = run(capsys, ["moments", two, "--order", "2"])
    assert code == 0
    assert np.allclose(doc["moments"], [[[[1.0, 0.0]]], [[[1.0, 0.0]]],
                                        [[[2.0, 0.0]]]])


def test_emitted_json_reparses(tmp_path, capsys):
    code, doc = run(capsys, ["--pretty", "check",
                             moment_file(tmp_path, [1, 1])])
    assert code == 0 and isinstance(doc, dict)


def test_usage_errors(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["check"]) == 1
    capsys.readouterr()
