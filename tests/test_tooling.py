"""Guards for what the benchmark's tracer, its cache reset and the
packaging rely on, and for the package's one field type, the few
places that test its degree, the one representation of K[G]
matrices, the one raw matrix-vector product, the one transform path,
the one Krylov routine, the one first-dependency routine and the one
denominator search per decode.

perfbench/tracer.py wraps library functions by (module, attribute) and
reads the kernel sampler's operator from its first argument;
perfbench/run.py empties the module-level *_CACHE dicts; the runtime
is stdlib-only (pyproject requires Python >= 3.10, which has
sys.stdlib_module_names).
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

from equicode import blackbox, ff, gauss

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_trees():
    for path in sorted((ROOT / "src" / "equicode").glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_traced_names_resolve():
    """Every (module, function) pair of the tracer's TRACED table, read
    from its source with ast (the tracer is neither imported nor run),
    names a function of that equicode module, so renaming a traced
    function fails here rather than in a benchmark run."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"]]
    traced = ast.literal_eval(table)
    missing = [name for name, (modname, attr) in traced.items()
               if not modname.startswith("equicode.")
               or not inspect.isfunction(getattr(
                   importlib.import_module(modname), attr, None))]
    assert traced and missing == []


def test_kernel_sample_takes_the_operator_first():
    """INFO reads args[0].calls from the traced call."""
    tracer = load_tracer()
    k = ff.field_make(13)
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    op = blackbox.operator_from_matrix(k, a)
    w = blackbox.wiedemann_kernel_sample(op, seed=1)
    assert gauss.matvec(k, a, w) == [0, 0, 0]
    info = tracer.INFO["blackbox.kernel_sample"]
    assert info((op,), w) == (op.calls, True) and op.calls > 0


def test_package_imports_only_the_standard_library():
    imported = set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, \
        imported - sys.stdlib_module_names


def test_package_has_no_assert_statements():
    """python -O strips asserts, so none may stand in for a check."""
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_cli_prints():
    """stdout carries the CLI's artifacts; library code must not write to
    it (or anywhere else) through print."""
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in package_trees() if name != "cli.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert found == []


def test_field_ctx_is_the_only_field_type():
    """Every field the package computes in is a FieldCtx: no other class
    carries its own field arithmetic (both mul and inv)."""
    found = ["%s:%s" % (name, node.name)
             for name, tree in package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and {"mul", "inv"} <= {f.name for f in node.body
                                    if isinstance(f, ast.FunctionDef)}]
    assert found == ["ff.py:FieldCtx"]


# Functions outside ff that may branch on the field degree: the packed
# coefficient layouts, the packed eliminations (the one reduce step
# gauss._eliminate, which the column loop of rref, rank and
# first_dependency and the row selector solve_rows share, and
# first_dependency's back-substitution) and their column layout
# (gauss._pack and gauss._unpack: one slot per value over F_p, a block of
# 2d - 1 slots over F_{p^d}), the search's hand-off of product slots into
# that layout (kgmat._apply_packed: only over F_p are the slots of a
# product the values' slots), the search's scaled input block
# (kgmat._scaled_expansion: only over F_p is a product of raw values one
# slot, reduced by a packed pass) and the parsers of raw values.
DEGREE_TESTS_ALLOWED = {
    "cli._load_elements",
    "files.matrix_from_obj",
    "galg._pack_coeffs",
    "galg._unpack_coeffs",
    "gauss._eliminate",
    "gauss._pack",
    "gauss._unpack",
    "gauss.first_dependency",
    "kgmat._apply_packed",
    "kgmat._scaled_expansion",
}


def degree_tests(tree, where=None):
    """The enclosing function of every comparison of `d` or `<x>.d`
    with 1, once per comparison."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Compare):
            sides = [child.left] + child.comparators
            if (any(isinstance(s, ast.Constant) and s.value == 1
                    for s in sides)
                    and any(isinstance(s, ast.Attribute) and s.attr == "d"
                            or isinstance(s, ast.Name) and s.id == "d"
                            for s in sides)):
                yield where
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from degree_tests(child, inner)


def test_field_degree_is_tested_only_where_allowed():
    """The prime-field shortcut for raw vectors lives in FieldCtx (dot,
    vmul, sub_scaled); no other function forks on d == 1 unless listed."""
    found = {"%s.%s" % (name[:-3], fn)
             for name, tree in package_trees() if name != "ff.py"
             for fn in degree_tests(tree)}
    assert found == DEGREE_TESTS_ALLOWED


# Functions of kgmat, files, code and decode that may build
# GroupAlgebraElements from raw values: the on-demand accessor, kg_apply
# (it takes elements), the element-level duality and unit helpers, the
# vector loader, the hand-written fixture, interpolate's return (the
# decoder reads the message through its raw core, code._message) and the
# decoder's public returns.  A KGMatrix itself holds raw values, its
# Fourier image is transformed on raw values, and the decoder computes on
# raw coefficients.
ELEMENT_BUILDERS = {"GroupAlgebraElement", "_elements", "ga_from_ints",
                    "ga_one", "ga_rand", "ga_sigma", "ga_zero"}
ELEMENT_BUILDS_ALLOWED = {
    "code.genus2_example_code.ga",
    "code.interpolate",
    "decode.basic_decode",
    "decode.find_denominator",
    "decode.pade_numerator",
    "files.element_from_obj",
    "kgmat.DualityContext.left_act",
    "kgmat.DualityContext.right_act",
    "kgmat.KGMatrix.entry",
    "kgmat.duality_form",
    "kgmat.ga_unit_inverse",
    "kgmat.kg_apply",
}


def callers(tree, where, names):
    """The qualified name of the enclosing function of every call to one
    of names."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in names:
                yield where
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = "%s.%s" % (where, child.name)
        yield from callers(child, inner, names)


def test_kg_matrices_stay_raw():
    """KGMatrix keeps one row-major tuple of raw coefficients; loading,
    products, transposes and the decoder's checks work on it.  Only the
    listed functions of kgmat, files, code and decode build elements, so
    a second representation of K[G] matrices or vectors cannot come back
    unnoticed."""
    found = {fn for name, tree in package_trees()
             if name in ("kgmat.py", "files.py", "code.py", "decode.py")
             for fn in callers(tree, name[:-3], ELEMENT_BUILDERS)}
    assert found == ELEMENT_BUILDS_ALLOWED


def test_one_transform_path():
    """Every group transform goes through `galg._transform` (all strands of
    an axis in one Bluestein run) and every single cyclic one through
    `ft_cyclic`; nothing else builds a plan or runs the chirp, so a
    second transform path cannot come back unnoticed."""
    found = {fn for name, tree in package_trees()
             for fn in callers(tree, name[:-3],
                               {"_cyclic_plan", "_run_bluestein"})}
    assert found == {"galg._transform", "galg.ft_cyclic"}


def names_used(tree):
    """Every name, attribute and imported name in tree."""
    return {node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None
            for node in ast.walk(tree)}


POLYNOMIAL_HELPERS = {"_ztrim", "_zsub", "_zmul", "_zdivmod", "_zpowmod"}


def test_one_krylov_routine():
    """Both Wiedemann attempts build their Krylov vectors and minimal
    polynomial in `blackbox._minimal_polynomial`, which is blackbox's one
    caller of gauss.first_dependency; blackbox calls no gauss.rref, and
    nothing in the package calls berlekamp_massey,
    which stays public because the benchmark's tracer wraps it by name.
    blackbox computes in the operator's own field: it names none of ff's
    polynomial helpers, no poly_is_irreducible and no FieldCtx, so a
    second field construction cannot come back unnoticed."""
    trees = dict(package_trees())
    found = set(callers(trees["blackbox.py"], "blackbox",
                        {"_minimal_polynomial"}))
    assert found == {"blackbox._solve_attempt", "blackbox._kernel_attempt"}
    found = set(callers(trees["blackbox.py"], "blackbox",
                        {"first_dependency"}))
    assert found == {"blackbox._minimal_polynomial"}
    assert set(callers(trees["blackbox.py"], "blackbox", {"rref"})) == set()
    found = {fn for name, tree in trees.items()
             for fn in callers(tree, name[:-3], {"berlekamp_massey"})}
    assert found == set()
    used = names_used(trees["blackbox.py"])
    assert used & (POLYNOMIAL_HELPERS
                   | {"poly_is_irreducible", "FieldCtx"}) == set()


def test_one_first_dependency_routine():
    """gauss.first_dependency is called only by the Krylov routine and by
    the decoder's raw column search, and decode names nothing that blackbox
    defines: denominators come from the columns of the Pade condition,
    not from a black-box kernel sample."""
    trees = dict(package_trees())
    found = {fn for name, tree in trees.items()
             for fn in callers(tree, name[:-3], {"first_dependency"})}
    assert found == {"blackbox._minimal_polynomial",
                     "decode._find_denominator"}
    body = trees["blackbox.py"].body
    defined = {node.name for node in body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert "wiedemann_kernel_sample" in defined
    assert names_used(trees["decode.py"]) & (defined | {"blackbox"}) == set()


def test_one_reduce_step():
    """gauss._eliminate is the one left-looking reduce step: the column
    loop _reduce_columns, which rref, rank and the column search
    first_dependency run, and the row selector solve_rows call it, and no
    other function does, so a second copy of the pivot loop cannot come
    back unnoticed."""
    trees = list(package_trees())
    found = {step: {fn for name, tree in trees
                    for fn in callers(tree, name[:-3], {step})}
             for step in ("_eliminate", "_reduce_columns")}
    assert found == {
        "_eliminate": {"gauss._reduce_columns", "gauss.solve_rows"},
        "_reduce_columns": {"gauss.rref", "gauss.rank",
                            "gauss.first_dependency"},
    }


def calls_to(tree, names):
    """Every call in tree to one of names."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in names]


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def basic_decode_tree(trees):
    (decode,) = [node for node in trees["decode.py"].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "basic_decode"]
    return decode


def test_basic_decode_stays_raw():
    """basic_decode carries raw coefficients from r to its result: it
    names no element-level helper (ga_sub, parity_check, interpolate,
    GroupAlgebraElement) and builds elements only inside the
    DecodeResult(...) it returns, so a second word representation cannot
    come back onto the decode path unnoticed."""
    decode = basic_decode_tree(dict(package_trees()))
    assert names_used(decode) & {"ga_sub", "parity_check", "interpolate",
                                 "GroupAlgebraElement"} == set()
    returned = [node.value for node in ast.walk(decode)
                if isinstance(node, ast.Return)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "DecodeResult"]
    inside = {id(call) for result in returned
              for call in calls_to(result, ELEMENT_BUILDERS)}
    builds = calls_to(decode, ELEMENT_BUILDERS)
    assert builds and {id(call) for call in builds} == inside


def test_one_denominator_search_per_decode():
    """basic_decode makes one call of the raw search _find_denominator,
    outside any loop or comprehension; besides it only the public
    find_denominator wraps that search, and only the search streams the
    condition's columns (through _denominator_columns), so a second retry
    loop cannot come back unnoticed.  In decode only the set-up
    make_split_decoder_data names random or draws (ctx.rand), so no
    random draw can come back onto the decode path."""
    trees = dict(package_trees())
    found = {fn for name, tree in trees.items()
             for fn in callers(tree, name[:-3], {"_find_denominator"})}
    assert found == {"decode.basic_decode", "decode.find_denominator"}
    decode = basic_decode_tree(trees)
    assert len(calls_to(decode, {"_find_denominator"})) == 1
    assert [call for loop in ast.walk(decode) if isinstance(loop, LOOPS)
            for call in calls_to(loop, {"_find_denominator"})] == []
    found = {fn for name, tree in trees.items()
             for fn in callers(tree, name[:-3], {"_denominator_columns"})}
    assert found == {"decode._find_denominator"}
    drawing = {getattr(node, "name", None) for node in trees["decode.py"].body
               if not isinstance(node, ast.Import)
               and names_used(node) & {"random", "rand"}}
    assert drawing == {"make_split_decoder_data"}


def test_one_error_solve_per_decode():
    """basic_decode recovers the error values with one _error_values call,
    outside any loop or comprehension.  Only basic_decode finds the unit
    places, with one _unit_places call outside any loop, and shares them
    between the search word and _error_values, so C is scanned once per
    decode.  Only _error_values streams error-system rows and eliminates
    them: one gauss.solve_rows on the rows without the unit places, and
    gauss.solve on the full system (_error_system, the stream as a list)
    only when those are rank-deficient; decode calls no gauss.rref on the
    decode path.  Besides it only the set-up make_split_decoder_data
    eliminates in decode, so a second solve per decode cannot come back
    unnoticed."""
    trees = dict(package_trees())
    found = {fn for name, tree in trees.items()
             for fn in callers(tree, name[:-3], {"_error_values"})}
    assert found == {"decode.basic_decode"}
    decode = basic_decode_tree(trees)
    assert len(calls_to(decode, {"_error_values"})) == 1
    assert len(calls_to(decode, {"_unit_places"})) == 1
    assert [call for loop in ast.walk(decode) if isinstance(loop, LOOPS)
            for call in calls_to(loop, {"_error_values", "_unit_places"})] \
        == []
    for helper, caller in (("_unit_places", {"decode.basic_decode"}),
                           ("_error_system", {"decode._error_values"}),
                           ("_error_rows", {"decode._error_values",
                                            "decode._error_system"}),
                           ("solve_rows", {"decode._error_values"})):
        found = {fn for name, tree in trees.items()
                 for fn in callers(tree, name[:-3], {helper})}
        assert found == caller
    assert set(callers(trees["decode.py"], "decode",
                       {"rref", "solve", "solve_rows"})) \
        == {"decode._error_values", "decode.make_split_decoder_data"}
    assert set(callers(trees["decode.py"], "decode", {"rref"})) \
        == {"decode.make_split_decoder_data"}


PACKING_HELPERS = {"_slot_width", "_pack_coeffs", "_unpack_coeffs"}


def test_only_galg_and_kgmat_know_the_packing():
    """Slot widths and packed layouts stay inside galg (elements) and
    kgmat (`_apply`, the one raw matrix-vector product); every other
    module hands raw coefficients to those."""
    found = {"%s:%s" % (name, used) for name, tree in package_trees()
             if name not in ("galg.py", "kgmat.py")
             for used in names_used(tree) & PACKING_HELPERS}
    assert found == set()


def test_module_level_dicts_are_caches():
    """perfbench/run.py's reset_caches empties the module-level dicts named
    *_CACHE so that set-up starts cold; an empty dict bound at module level
    under any other name would keep its entries across set-ups."""
    found = []
    for name, tree in package_trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if (isinstance(value, ast.Dict) and not value.keys
                    or isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"):
                found += ["%s:%s" % (name, ast.unparse(t)) for t in targets
                          if not (isinstance(t, ast.Name)
                                  and t.id.endswith("_CACHE"))]
    assert found == []
