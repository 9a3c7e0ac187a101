"""End-to-end tests of the command-line interface and JSON formats."""

import json

import numpy as np
import pytest

from stieltjesmp import MomentSequence
from stieltjesmp.cli import (
    complex_to_json,
    json_to_complex,
    json_to_matrix,
    main,
    matrix_to_json,
)

from conftest import hankel_factor_counts


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
    assert set(doc["residuals"]) == {"j_form"}
    assert doc["residuals"]["j_form"] <= 1e-10


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


def test_cmd_solve_refuses_a_pair_of_another_size(tmp_path, capsys):
    moments = write_json(tmp_path / "m2.json", {
        "alpha": 0.0, "q": 2,
        "moments": [matrix_to_json(np.eye(2))] * 2})
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[0.0, 0.0]]], "psi": [[[1.0, 0.0]]]})
    code = main(["solve", moments, pair, "--n", "0", "--points", "1j"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == "error: pair is 1 x 1, the moment data 2 x 2\n"


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
    assert set(real) == {"z", "S"}
    assert np.allclose(real["S"], [[[-1.0 / 3.0, 0.0]]])


def test_cmd_solve_at_a_real_point_gives_s_and_no_singular_key(tmp_path,
                                                                capsys):
    # z = -1 lies left of alpha = 0, where S is finite: the entry holds S
    # and, as the Potapov report is defined off R only, no sigma_min_*
    # keys and no "singular" key, which readers take for a rejected point.
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[0.0, 0.0]]], "psi": [[[1.0, 0.0]]]})
    for argv, case in (
            (["solve", moment_file(tmp_path, [1, 0]), "--n", "0"],
             "CompletelyDegenerate"),
            (["solve", moment_file(tmp_path, [2, 3, 5, 9], name="m2.json"),
              pair, "--n", "1"],
             "NonDegenerate")):
        code, doc = run(capsys, argv + ["--points=-1.0,1j"])
        assert code == 0 and doc["case"] == case
        real, off = doc["values"]
        assert set(real) == {"z", "S"} and np.isfinite(real["S"]).all()
        assert set(off) == {"z", "S", "sigma_min_even", "sigma_min_odd"}
        if case == "CompletelyDegenerate":    # S(z) = -1/z
            assert np.allclose(real["S"], [[[1.0, 0.0]]])


def test_cmd_solve_evaluates_once_over_the_points(tmp_path, capsys,
                                                  monkeypatch):
    # S is called once per point, through its public call, and one
    # Potapov report covers the points off R that got an S; also when
    # S(z) = -1/z is singular at one of them (1e-18), which gets the
    # error the call raises, and when a point lies on an atom of f, which
    # gets the error of the transform.
    from stieltjesmp import cli, solver
    points, reports = [], []
    call, report = solver.SolutionFunction.__call__, cli.potapov_report

    def counting_call(self, z):
        points.append(z)
        return call(self, z)

    def counting_report(*args, **kwargs):
        reports.append(len(args[-1]))
        return report(*args, **kwargs)

    monkeypatch.setattr(solver.SolutionFunction, "__call__", counting_call)
    monkeypatch.setattr(cli, "potapov_report", counting_report)
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 0]),
                             "--n", "0", "--points", "1j,2j,-1+0.5j,3-1j"])
    assert code == 0 and len(doc["values"]) == 4
    assert all("sigma_min_even" in v for v in doc["values"])
    assert points == [1j, 2j, -1 + 0.5j, 3 - 1j] and reports == [4]
    points.clear(), reports.clear()
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 0]),
                             "--n", "0", "--points", "1e-18,1j,2j,3j,4j"])
    assert code == 0 and len(points) == 5 and reports == [4]
    assert doc["values"][0] == {
        "z": [1e-18, 0.0],
        "singular": "singular LFT denominator at z = (1e-18+0j)"}
    assert all("sigma_min_even" in v for v in doc["values"][1:])
    points.clear(), reports.clear()
    pair = write_json(tmp_path / "pf.json", {
        "kind": "stieltjes_function", "alpha": 0.0, "q": 1,
        "atoms": [{"t": 1.0, "weight": [[[1.0, 0.0]]]}]})
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 1]), pair,
                             "--n", "0", "--points", "1j,1,2j"])
    assert code == 0 and points == [1j, 1, 2j] and reports == [2]
    assert doc["values"][1] == {
        "z": [1.0, 0.0],
        "singular": "evaluation point (1+0j) coincides with atom 1.0"}
    assert all("sigma_min_even" in doc["values"][k] for k in (0, 2))


def test_cmd_solve_reports_once_over_the_points_off_r(tmp_path, capsys,
                                                      monkeypatch):
    # The real point keeps its S and stays out of the one Potapov report
    # on the three others; it does not send the report point by point.
    from stieltjesmp import cli
    calls = []
    report = cli.potapov_report

    def counting_report(seq, n, fz, grid):
        calls.append(len(grid))
        return report(seq, n, fz, grid)

    monkeypatch.setattr(cli, "potapov_report", counting_report)
    code, doc = run(capsys, ["solve", moment_file(tmp_path, [1, 0]),
                             "--n", "0", "--points=-1.0,1j,2j,3j"])
    assert code == 0 and calls == [3]
    real, *off = doc["values"]
    assert set(real) == {"z", "S"}
    assert all(set(v) == {"z", "S", "sigma_min_even", "sigma_min_odd"}
               for v in off)


def test_cmd_solve_factors_each_matrix_once(tmp_path, capsys, factor_calls):
    # Atoms of mass 1 at t = 1, 2: classification, resolvent, pair gate
    # and Potapov report share one Hankel data of the loaded sequence.
    values = [2, 3, 5, 9]
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[0.0, 0.0]]], "psi": [[[1.0, 0.0]]]})
    code, doc = run(capsys, ["solve", moment_file(tmp_path, values), pair,
                             "--n", "1", "--points", "1j,2-1j"])
    assert code == 0 and doc["case"] == "NonDegenerate"
    assert all("sigma_min_odd" in v for v in doc["values"])
    assert factor_calls == hankel_factor_counts(
        MomentSequence(0.0, 1, [[[v]] for v in values]), 1)


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


def _function_pair_file(tmp_path, t, **alpha):
    return write_json(tmp_path / "pf.json", {
        "kind": "stieltjes_function", "q": 1, **alpha,
        "atoms": [{"t": t, "weight": [[[1.0, 0.0]]]}]})


def test_a_function_pair_takes_the_alpha_of_the_moments(tmp_path, capsys):
    # A pair file that names no alpha has its f on [alpha, oo) for the
    # moment file's alpha: on alpha = -1 an atom at -0.5 is admissible.
    moments = moment_file(tmp_path, [1, 1], alpha=-1.0)
    code, doc = run(capsys, ["solve", moments,
                             _function_pair_file(tmp_path, -0.5), "--n", "0"])
    assert code == 0 and doc["case"] == "NonDegenerate"
    assert all(v["sigma_min_even"] >= -1e-10 and v["sigma_min_odd"] >= -1e-10
               for v in doc["values"])


def test_a_function_pair_below_the_alpha_of_the_moments_is_refused(
        tmp_path, capsys):
    # On alpha = 1 an atom at 0.5 is refused, whether the pair file names
    # no alpha (its measure is then refused) or alpha = 0 (the pair is
    # then not in the restricted class); an atom at 1.5 is solved.
    moments = moment_file(tmp_path, [1, 2], alpha=1.0)
    for alpha, message in (({}, "atom position 0.5 below alpha = 1.0"),
                           ({"alpha": 0.0}, "not in the restricted class")):
        pair = _function_pair_file(tmp_path, 0.5, **alpha)
        assert main(["solve", moments, pair, "--n", "0"]) == 1
        captured = capsys.readouterr()
        assert not captured.out and message in captured.err
    code, doc = run(capsys, ["solve", moments,
                             _function_pair_file(tmp_path, 1.5), "--n", "0"])
    assert code == 0
    assert all(v["sigma_min_even"] >= -1e-10 for v in doc["values"])


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


def test_cmd_verify_refuses_a_measure_of_another_size(tmp_path, capsys):
    moments = write_json(tmp_path / "m2.json", {
        "alpha": 0.0, "q": 2,
        "moments": [matrix_to_json(np.eye(2))] * 2})
    mu = measure_file(tmp_path, [(1.0, 1.0)])
    assert main(["verify", moments, mu, "--n", "0"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == \
        "error: measure is 1 x 1, the moment data 2 x 2\n"


def test_cmd_verify_refuses_a_level_the_moments_lack(tmp_path, capsys):
    # A measure is checked against s_0..s_2n+1: three moments reach
    # level 0 only, and level 1 is a usage error, not a crash.
    seq = moment_file(tmp_path, [1, 1, 1])
    mu = measure_file(tmp_path, [(1.0, 1.0)])
    assert main(["verify", seq, mu, "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Hs_1 needs 2n+1 = 3 <= m = 2")


def _document(kind):
    if kind == "moments":
        return {"alpha": 0.0, "q": 1,
                "moments": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
    doc = {"alpha": 0.0, "q": 1,
           "atoms": [{"t": 1.0, "weight": [[[1.0, 0.0]]]}]}
    if kind == "pair":
        doc.update(kind="stieltjes_function", gamma=[[[0.0, 0.0]]])
    return doc


@pytest.mark.parametrize("kind, path, value, message", [
    ("moments", ["q"], 1.9, "q: 1.9 is not an integer"),
    ("moments", ["q"], True, "q: true is not an integer"),
    ("moments", ["alpha"], True, "alpha: true is not a number"),
    ("moments", ["alpha"], "0.5", 'alpha: "0.5" is not a number'),
    ("moments", ["q"], "1", 'q: "1" is not an integer'),
    ("moments", ["moments", 0, 0, 0], True, "moments[0]: true is not a"),
    ("moments", ["moments", 1, 0, 0, 1], False, "moments[1]: false is not"),
    ("measure", ["q"], 2.5, "q: 2.5 is not an integer"),
    ("measure", ["q"], True, "q: true is not an integer"),
    ("measure", ["alpha"], False, "alpha: false is not a number"),
    ("measure", ["atoms", 0, "t"], True, "t: true is not a number"),
    ("measure", ["atoms", 0, "weight", 0, 0], True, "weight: true is not"),
    ("pair", ["q"], 1.5, "q: 1.5 is not an integer"),
    ("pair", ["q"], True, "q: true is not an integer"),
    ("pair", ["alpha"], True, "alpha: true is not a number"),
    ("pair", ["atoms", 0, "t"], False, "t: false is not a number"),
    ("pair", ["gamma", 0, 0, 0], True, "gamma: true is not a number"),
    pytest.param("moments", ["alpha"], 10 ** 400, "alpha: an integer of "
                 "401 digits is not a finite number", id="alpha-10^400"),
    pytest.param("moments", ["q"], 10 ** 400, "q: an integer of 401 "
                 "digits is not a finite number", id="q-10^400"),
    pytest.param("measure", ["atoms", 0, "t"], -10 ** 400, "t: an integer "
                 "of 401 digits is not a finite number", id="t--10^400"),
])
def test_json_readers_refuse_booleans_and_fractional_sizes(
        tmp_path, capsys, kind, path, value, message):
    # Python counts true as the integer 1, int() truncates 1.9 to 1,
    # float() reads the string "0.5" and json reads 10^400 as an int that
    # float() overflows on; a file that says any of these is refused, not
    # read as a number.
    doc = _document(kind)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = write_json(tmp_path / "bad.json", doc)
    moments = write_json(tmp_path / "m.json", _document("moments"))
    argv = {"moments": ["check", bad],
            "measure": ["transform", bad, "--points", "1j"],
            "pair": ["solve", moments, bad, "--n", "0", "--points", "1j"]}
    assert main(argv[kind]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ") and message in captured.err
    # The same file without the edit is read.
    write_json(tmp_path / "bad.json", _document(kind))
    assert main(argv[kind]) == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   -float("inf")])
def test_a_non_finite_alpha_is_refused_by_name(tmp_path, capsys, value):
    # Python's json reads NaN and Infinity; the reader refuses them as
    # the alpha they stand for, before any matrix is formed.
    doc = _document("moments")
    doc["alpha"] = value
    bad = write_json(tmp_path / "bad.json", doc)
    assert main(["check", bad]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (f"error: alpha: {json.dumps(value)} is not a "
                            f"finite number\n")


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


def test_a_nonfinite_point_is_refused_naming_its_flag(tmp_path, capsys):
    # A point at infinity or NaN is no point of the problem: the CLI
    # refuses it before any evaluation instead of printing NaN.
    mu = measure_file(tmp_path, [(0.5, 1.0), (2.0, 0.5)])
    m = moment_file(tmp_path, [1.5, 1.5, 2.25, 4.125])
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[1.0, 0.0]]], "psi": [[[0.0, 0.0]]]})
    for argv in ([*cmd, "--points", pts]
                 for cmd in (["solve", m, pair, "--n", "1"], ["transform", mu])
                 for pts in ("inf", "nan+1j", "1j,infj")):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: --points: point ")
        assert "is not finite" in captured.err


def test_verify_takes_no_grid(tmp_path, capsys):
    # A measure is decided by its support and moments, so verify reads
    # no grid points: --grid is an unrecognized argument.
    mu = measure_file(tmp_path, [(0.5, 1.0), (2.0, 0.5)])
    m = moment_file(tmp_path, [1.5, 1.5, 2.25, 4.125])
    assert main(["verify", m, mu, "--n", "1", "--grid", "1j,2j"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert "unrecognized arguments: --grid 1j,2j" in captured.err


def test_a_malformed_point_is_refused_naming_its_flag_and_token(tmp_path,
                                                               capsys):
    mu = measure_file(tmp_path, [(0.5, 1.0), (2.0, 0.5)])
    m = moment_file(tmp_path, [1.5, 1.5, 2.25, 4.125])
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[1.0, 0.0]]], "psi": [[[0.0, 0.0]]]})
    for argv, flag, token in (
            (["transform", mu, "--points="], "--points", ""),
            (["transform", mu, "--points", "1j,,2j"], "--points", ""),
            (["transform", mu, "--points", "abc"], "--points", "abc"),
            (["solve", m, pair, "--n", "1", "--points", "1j,q"], "--points",
             "q")):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            f"error: {flag}: '{token}' is not a complex number\n")


def test_cmd_solve_refuses_empty_points(tmp_path, capsys):
    # --points '' is given, and refused as transform refuses it, rather
    # than read as absent.
    m = moment_file(tmp_path, [1, 1])
    pair = write_json(tmp_path / "p.json", {
        "kind": "constant", "phi": [[[0.0, 0.0]]], "psi": [[[1.0, 0.0]]]})
    mu = measure_file(tmp_path, [(1.0, 1.0)])
    for argv in (["solve", m, pair, "--n", "0", "--points", ""],
                 ["transform", mu, "--points", ""]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert not captured.out and captured.err.startswith("error: ")
