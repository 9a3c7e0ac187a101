"""The tolerance of a problem is part of its data.

Every decision reads the ``ToleranceConfig`` of the object it decides
about (a sequence, its Hankel data, a measure or a pair), so no public
function, method or constructor of the problem-level modules takes a
``tol`` argument, apart from the few that build such objects from raw
matrices.  The package exports only what its production path runs; the
identity oracles the tests hold it to live in ``tests/identities.py``.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np

import identities
import stieltjesmp
from stieltjesmp import MomentSequence, momentseq, potapov, resolvent, \
    solver, stieltjespairs

MODULES = (momentseq, resolvent, potapov, solver, stieltjespairs)

# Objects built from raw matrices take their tolerance here: the
# ``StieltjesPair`` constructor takes the affine form B + E f [I, 0] and the
# tolerance of the pair (``constant`` passes its own, ``from_function``
# and ``lifted`` that of the measure or inner pair), and a
# ``ClassificationReport`` records the tolerance its sequence was
# classified under.
KEEP_TOL = {"MomentSequence", "AtomicMeasure", "StieltjesPair",
            "StieltjesPair.constant", "ClassificationReport"}


def _public_callables():
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or \
                    getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield name, obj
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_only_raw_data_constructors_take_a_tolerance():
    names = dict(_public_callables())
    assert {"classify", "potapov_report", "HankelData.factor",
            "StieltjesPair.lifted", "StieltjesFunction"} <= set(names)
    with_tol = {name for name, fn in names.items()
                if "tol" in inspect.signature(fn).parameters}
    assert with_tol == KEEP_TOL


def _reads_kind(node):
    """``x.kind`` or ``getattr(x, "kind", ...)``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "kind"
    return isinstance(node, ast.Call) and \
        getattr(node.func, "id", None) == "getattr" and \
        any(getattr(arg, "value", None) == "kind" for arg in node.args)


def test_every_pair_is_one_affine_form():
    # [phi; psi](z) = B + E f(z) [I_k, 0] for every pair, so the
    # constructor takes B, f, E and the tolerance, and no package code
    # dispatches on a kind of pair.
    assert list(inspect.signature(stieltjespairs.StieltjesPair).parameters) \
        == ["B", "f", "E", "tol"]
    compared = []
    for path in Path(solver.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    _reads_kind(part)
                    for side in [node.left] + node.comparators
                    for part in ast.walk(side)):
                compared.append(path.name)
    assert not compared
    inner = stieltjespairs.StieltjesPair.constant([[0.0]], [[1.0]])
    f = stieltjespairs.StieltjesFunction(None, stieltjespairs.AtomicMeasure(
        0.0, 1, [(1.0, [[1.0]])]))
    for pair in (inner, stieltjespairs.StieltjesPair.from_function(f),
                 stieltjespairs.StieltjesPair.lifted(np.eye(2), inner, 1, 0)):
        assert not hasattr(pair, "kind")


def test_hankel_data_takes_only_the_sequence():
    # One HankelData covers every level of its sequence; a reader of
    # level n asks it with ``check_level`` instead of passing a level.
    # The sequence hands it out through its accessor, which takes nothing.
    assert list(inspect.signature(momentseq.HankelData).parameters) == \
        ["seq"]
    assert list(inspect.signature(
        momentseq.MomentSequence.hankel).parameters) == ["self"]


def test_the_potapov_report_takes_values():
    # The report reads the candidate's (G, q, q) values at the grid, so no
    # class of the package flags how it wants to be evaluated.
    assert list(inspect.signature(potapov.potapov_report).parameters) == \
        ["seq", "n", "fz", "grid"]
    modules = [importlib.import_module(f"stieltjesmp.{info.name}")
               for info in pkgutil.iter_modules(stieltjesmp.__path__)]
    classes = [obj for mod in modules for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    assert {"SolutionFunction", "StieltjesFunction"} <= \
        {cls.__name__ for cls in classes}
    assert not [cls.__name__ for cls in classes
                if "takes_arrays" in vars(cls)]


def test_a_solution_is_read_through_its_call():
    # S(z) is the one entry into a solution: no module of the package,
    # its tools or its benchmark but ``solver`` itself imports or reads
    # an underscore name of ``solver``, and the CLI calls no underscore
    # method, of a solution or of anything else.
    root = Path(solver.__file__).parents[2]
    files = [path for folder in ("src/stieltjesmp", "tools", "perfbench")
             for path in (root / folder).glob("*.py")
             if path.name != "solver.py"]
    assert len(files) > 10
    private = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[-1] == "solver":
                private += [(path.name, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
            if isinstance(node, ast.Attribute) and \
                    node.attr.startswith("_") and \
                    getattr(node.value, "id", None) == "solver":
                private.append((path.name, node.attr))
    assert not private
    cli = Path(solver.__file__).with_name("cli.py")
    assert not [node.func.attr for node in ast.walk(ast.parse(cli.read_text()))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("_")]


def test_no_determinant_decides_anything():
    # Whether a matrix is singular is decided by the rank rule of
    # ``matcore`` relative to a named scale, never by a determinant,
    # whose size says nothing about it (det I_32 = 1, det (eps I_32) ~ 0).
    files = list(Path(solver.__file__).parent.glob("*.py"))
    assert len(files) > 5
    assert not [path.name for path in files
                if re.search(r"linalg\.det\b", path.read_text())]


def test_one_rule_decides_every_psd_verdict():
    # Every PSD verdict compares lambda_min with ``matcore._psd_margin``,
    # tol_psd (1 + ref) for the scale ref it names, so no other function
    # reads tol_psd; the CLI's ``_tol`` only passes --tol-psd on.
    readers = set()
    for path in Path(solver.__file__).parent.glob("*.py"):
        readers |= {(path.name, fn.name)
                    for fn in ast.walk(ast.parse(path.read_text()))
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "tol_psd"}
    assert readers == {("matcore.py", "_psd_margin"), ("cli.py", "_tol")}
    modules = [stieltjesmp] + [
        importlib.import_module(f"stieltjesmp.{info.name}")
        for info in pkgutil.iter_modules(stieltjesmp.__path__)]
    for mod in modules:
        assert not {"is_psd", "mrank"} & set(vars(mod)), mod.__name__


def test_only_the_sequence_builds_its_hankel_data():
    # A sequence has one HankelData, built by ``MomentSequence.hankel``;
    # every other reader asks the sequence for it, so no function takes
    # a HankelData in place of its sequence.
    builders, either = [], []
    for path in Path(solver.__file__).parent.glob("*.py"):
        text = path.read_text()
        if re.search(r"may\s+be\s+its\b", text):
            either.append(path.name)
        tree = ast.parse(text)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", None) == "HankelData":
                    builders.append((path.name, fn.name))
    assert builders == [("momentseq.py", "hankel")]
    assert not either


# What ``classify``, ``build_resolvent``, the solutions, ``verify_solution``,
# ``potapov_report`` and the CLI execute, and nothing else.
PUBLIC = {
    "AtomicMeasure", "ClassReport", "ClassificationReport", "DEFAULT_TOL",
    "HankelData", "MatrixPolynomial", "MomentSequence", "ResolventMatrix",
    "SolutionFunction", "StieltjesFunction", "StieltjesPair",
    "ToleranceConfig", "build_resolvent", "canonical_extension",
    "class_membership", "classify", "jsonio",
    "lft_solution", "lift_pair", "matcore", "moments_of", "momentseq",
    "pair_in_restricted_class", "potapov",
    "potapov_report", "recover_s0", "resolvent",
    "shift_right", "solver", "standard_grid",
    "stieltjespairs", "transform", "unique_solution", "verify_solution"}

def test_the_package_exports_only_its_production_path():
    assert len(stieltjesmp.__all__) == len(PUBLIC) == 34
    assert set(stieltjesmp.__all__) == PUBLIC


def test_the_identity_oracles_live_in_the_tests():
    # No module or class of the package has a function of identities.py
    # or eval_theta (gone: callers evaluate R.theta or R.theta_tilde).
    oracles = {name for name, obj in vars(identities).items()
               if inspect.isfunction(obj)
               and obj.__module__ == identities.__name__} | {"eval_theta"}
    assert {"potapov_matrix", "j_defect", "pair_is_valid", "is_dubovoj",
            "extended", "total_mass", "conjugate_reflection"} <= oracles
    modules = [stieltjesmp] + [
        importlib.import_module(f"stieltjesmp.{info.name}")
        for info in pkgutil.iter_modules(stieltjesmp.__path__)]
    assert len(modules) == 9
    classes = {obj for mod in modules for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__}
    assert len(classes) > 10
    for owner in modules + list(classes):
        assert not oracles & set(vars(owner)), owner.__name__
    arithmetic = set(vars(identities.Poly)) - {"__module__", "__doc__"}
    assert {"__add__", "__matmul__", "times_linear"} <= arithmetic
    assert not arithmetic & set(vars(stieltjesmp.MatrixPolynomial))


def test_one_implementation_of_the_shift_resolvent():
    # Every product with T, R_T(z) or R_{T*}(z) reads the one stack T^j x
    # of momentseq.shift_stack.  The dense T, v and resolvents and the
    # block recursion of the coupling column are oracles of the tests.
    gone = {"shift_matrix", "shift_resolvent", "first_column_embedding",
            "resolvent_poly", "_column_data"}
    assert gone <= set(vars(identities))
    modules = [stieltjesmp] + [
        importlib.import_module(f"stieltjesmp.{info.name}")
        for info in pkgutil.iter_modules(stieltjesmp.__path__)]
    for mod in modules:
        assert not gone & set(vars(mod)), mod.__name__
    assert callable(momentseq.shift_stack)


def test_the_shifted_sequence_is_a_sequence():
    # Hs_k is the H_k of the shifted sequence's own HankelData, and P_2n+1
    # is P_2n of that data, so the level check, which names Hs_n in its
    # refusal, is the one function of the package with a parity flag.
    flagged = []
    for path in Path(solver.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)) and {
                    arg.arg for arg in ast.walk(fn.args)
                    if isinstance(arg, ast.arg)} & {"shifted", "odd",
                                                    "parity"}:
                flagged.append((path.name, getattr(fn, "name", "lambda")))
    assert flagged == [("momentseq.py", "check_level")]
    assert not hasattr(potapov, "_corner")
    mu = stieltjespairs.AtomicMeasure(0.0, 1, [(1.0, [[1.0]]), (2.0, [[1.0]])])
    seq = stieltjespairs.moments_of(mu, 3)
    data = seq.hankel()
    assert not {"Hs", "shifted", "_mats"} & set(dir(data))
    assert data.shift is data.shift and data.shift.seq.m == seq.m - 1
    grid = resolvent.standard_grid(0.0)
    assert potapov.potapov_report(
        seq, 1, stieltjespairs.transform(mu, np.array(grid)), grid).passed
    for d in (data, data.shift):
        assert [key for key in d._memo if key[0] == "coupling"] == \
            [("coupling", 1)]


def test_a_moment_sequence_is_one_array():
    # Every block stack and block Hankel matrix of a sequence is an index
    # of its (m + 1, q, q) stack ``moments``: no package module defines a
    # row-stack assembler, reads a moment through an accessor ``.s(j)``
    # (whose s_{-1} = 0 would now read s_m) or passes block_hankel an
    # offset in place of a slice of the stack.
    found = []
    for path in Path(solver.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "stack_z":
                found.append((path.name, "stack_z"))
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "s" and isinstance(node.func, ast.Attribute):
                found.append((path.name, ".s("))
            if name == "block_hankel" and (len(node.args) > 2 or any(
                    kw.arg == "offset" for kw in node.keywords)):
                found.append((path.name, "block_hankel offset"))
    assert not found
    assert list(inspect.signature(momentseq.block_hankel).parameters) == \
        ["s", "n"]
    assert not hasattr(MomentSequence, "s")
    seq = MomentSequence(0.0, 2, [np.eye(2)] * 3)
    assert isinstance(seq.moments, np.ndarray)
    assert seq.moments.shape == (3, 2, 2)


def test_a_sequence_has_one_cache():
    # Reused work lives in one memo on the Hankel data, from which every
    # report and resolvent is assembled: no package module keeps results
    # in a weak table, and the data hands out no live results.
    found = [path.name for path in Path(solver.__file__).parent.glob("*.py")
             if "WeakValueDictionary" in path.read_text()]
    assert not found
    assert not hasattr(momentseq.HankelData, "live")
    data = MomentSequence(0.0, 1, [np.eye(1)] * 3).hankel()
    assert not hasattr(data, "_live")


def test_the_range_basis_is_read_from_the_factors():
    # The Dubovoj basis comes from the null spaces of the Hankel factors:
    # the data keeps no Schur ladder and matcore no ladder-based basis.
    # The one product with a pseudo-inverse left is the witness's.
    for name in ("ladder", "_ladder", "ladder_ranks"):
        assert not hasattr(momentseq.HankelData, name)
    assert not hasattr(stieltjesmp.matcore, "dubovoj_subspace")
    readers = {(path.name, fn.name)
               for path in Path(solver.__file__).parent.glob("*.py")
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "pinv"
               and isinstance(node.ctx, ast.Load)}
    assert readers == {("momentseq.py", "_witness")}


def test_the_potapov_report_is_one_pass():
    # The report's one-caller helpers are folded into it, and the P_k
    # oracles borrow none of its arithmetic: of the underscore names of
    # potapov, identities.py reads only the memoized coupling, which it
    # checks against the dense atom sum, and the off-R guard.
    folded = {"_check_offreal", "_weighted", "_as_p2n", "_block_norm",
              "_projected_column"}
    assert not folded & set(vars(potapov))
    private = set()
    for node in ast.walk(ast.parse(Path(identities.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[-1] == "potapov":
            private |= {alias.name for alias in node.names
                        if alias.name.startswith("_")}
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and getattr(node.value, "id", None) == "potapov":
            private.add(node.attr)
    assert private == {"_coupling", "_IM_GUARD"}
