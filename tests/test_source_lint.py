"""Source checks that no test of behaviour would catch."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "pattern_entropy").glob("*.py"))
RUNTIME_DEPENDENCIES = {"numpy"}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_referencing_nested_functions(tree):
    """Names of functions nested in a function whose body names themselves.

    Such a function holds its own closure cell, a reference cycle that only
    the cyclic collector frees, so each call of the enclosing function leaves
    garbage behind."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, _FUNCS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, _FUNCS):
                continue
            if any(isinstance(node, ast.Name) and node.id == inner.name
                   for stmt in inner.body for node in ast.walk(stmt)):
                found.append(f"{outer.name}.{inner.name} (line {inner.lineno})")
    return found


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_nested_function_refers_to_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _self_referencing_nested_functions(tree) == []


def test_guard_catches_a_recursive_closure():
    tree = ast.parse("def outer(n):\n"
                     "    def rec(i):\n"
                     "        return [] if i == n else [i] + rec(i + 1)\n"
                     "    return rec(0)\n")
    assert _self_referencing_nested_functions(tree) == ["outer.rec (line 2)"]


def _imported_packages(tree):
    """Top-level package of every absolute import in ``tree``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_imports_only_stdlib_numpy_and_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = sys.stdlib_module_names | RUNTIME_DEPENDENCIES | {"pattern_entropy"}
    assert sorted(set(_imported_packages(tree)) - allowed) == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in deps) == sorted(RUNTIME_DEPENDENCIES)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, pattern_entropy.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


# Modules on the fast paths; the slow routes in _reference check them, so
# none of them may lean on _reference.
FAST_MODULES = ("oracle", "patterns", "bounds", "coder", "grids", "distributions", "cli")
# Slow cross-check routes that live in _reference, off the public API.
MOVED_TO_REFERENCE = ("brute_force_permutation_count", "exact_distinct_count_pmf",
                      "expected_codelength_stepwise")


def _package_modules_imported(tree):
    """Modules of the package that ``tree`` imports, by their name in the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "pattern_entropy" and module:
                    yield module.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.partition(".")[0] != "pattern_entropy":
                continue
            module = node.module or ""
            if node.level == 0:
                module = module.partition(".")[2]
            if module:
                yield module.partition(".")[0]
            else:  # from . import x / from pattern_entropy import x
                yield from (alias.name for alias in node.names)


def _imports_of(module):
    path = ROOT / "src" / "pattern_entropy" / f"{module}.py"
    return set(_package_modules_imported(ast.parse(path.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("module", FAST_MODULES)
def test_fast_modules_never_import_the_reference_routes(module):
    assert "_reference" not in _imports_of(module)


def test_reference_routes_never_import_the_oracle():
    assert "oracle" not in _imports_of("_reference")


def test_import_guard_sees_every_form():
    tree = ast.parse("from ._reference import f\n"
                     "from . import oracle\n"
                     "import pattern_entropy.grids\n"
                     "from pattern_entropy.coder import g\n"
                     "from pattern_entropy import cli\n"
                     "import numpy\n")
    assert list(_package_modules_imported(tree)) == ["_reference", "oracle", "grids", "coder", "cli"]


def test_slow_routes_are_off_the_public_api():
    import pattern_entropy
    from pattern_entropy import _reference, oracle, patterns

    off = (*MOVED_TO_REFERENCE, "joint_pattern_bin_probability", "count_patterns")
    assert [name for name in off if name in pattern_entropy.__all__] == []
    for name in MOVED_TO_REFERENCE:
        assert callable(getattr(_reference, name))
        assert not hasattr(oracle, name)
    assert callable(patterns._count_patterns)
    assert not any(hasattr(m, "joint_pattern_bin_probability") for m in (_reference, oracle))



def _cap_messages_with_separator(tree):
    """Line of each string literal passed to ``ResourceCapError(...)`` that holds a
    ``;``, the separator of the ``;``-joined ``error`` cell of a ``bounds`` row."""
    found = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) != "ResourceCapError":
            continue
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            found += [lit.lineno for lit in ast.walk(arg)
                      if isinstance(lit, ast.Constant) and isinstance(lit.value, str) and ";" in lit.value]
    return found


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_cap_messages_hold_no_cell_separator(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _cap_messages_with_separator(tree) == []


def test_cap_message_guard_sees_every_form():
    tree = ast.parse('raise ResourceCapError(f"{n} letters; too many")\n'
                     'raise ResourceCapError("fine", msg="a;b")\n'
                     'raise _common.ResourceCapError("x" "; y")\n'
                     'raise ValueError("a; b")\n'
                     'raise ResourceCapError(f"{n} letters, too many")\n')
    assert _cap_messages_with_separator(tree) == [1, 2, 3]


def _attribute_sites(attr, sources):
    """(module, top-level definition) of every ``.<attr>`` in ``sources``, a map
    of module name to source text; the definition is None at module level."""
    for module, text in sources.items():
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == attr:
                    yield module, getattr(top, "name", None)


def _package_sites(attr):
    return set(_attribute_sites(attr, {p.stem: p.read_text(encoding="utf-8") for p in SRC}))


def test_letters_are_drawn_in_one_place():
    assert _package_sites("choice") == {("distributions", "sample_sequence")}


def test_grid_points_are_read_in_few_places():
    # bin_index places each group by the points; the per-bin statistics,
    # kappa' among them, read the group bins and not the points again
    assert _package_sites("point") == {("grids", "_Points"), ("grids", "bin_index"),
                                       ("verify", "check_grid_laws")}


def test_per_letter_probabilities_are_read_in_few_places():
    sites = _package_sites("probs")
    assert ("distributions", "sample_sequence") in sites
    assert {(module, top) for module, top in sites
            if module not in ("distributions", "_reference")} == set()


def test_profile_routes_are_chosen_in_one_place():
    # ProfileProbability picks the fold of W or the DP by cost before any work;
    # a route called from elsewhere would skip that choice and its charge
    for route in ("_fold", "_dp", "_fold_part", "_closing", "_dp_bound"):
        assert {module for module, _ in _package_sites(route)} <= {"patterns"}, route
    assert ("patterns", "ProfileProbability") in _package_sites("_fold")


def _members(text):
    """(name, node) of every top-level statement of ``text``, with each member of
    a top-level class apart and named ``Class.method``; None names a module-level
    statement."""
    for top in ast.parse(text).body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for member in members:
            where = getattr(member, "name", None)
            if member is not top:
                where = f"{top.name}.{where}" if where else top.name
            yield where, member


def _range_sites(text):
    """(line, enclosing definition, as ``Class.method`` inside a class) of every
    cut ``min(..., 0.0)``, also as ``np.minimum``, and every ``return -<...>.inf``
    in ``text``."""
    found = []
    for where, member in _members(text):
        for node in ast.walk(member):
            func = getattr(node, "func", None)
            cut = (getattr(func, "id", getattr(func, "attr", None)) in ("min", "minimum")
                   and any(isinstance(a, ast.Constant) and isinstance(a.value, float) and a.value == 0.0
                           for a in node.args))
            minus_inf = (isinstance(node, ast.Return) and isinstance(node.value, ast.UnaryOp)
                         and isinstance(node.value.op, ast.USub)
                         and getattr(node.value.operand, "attr", None) == "inf")
            if cut or minus_inf:
                found.append((node.lineno, where))
    return found


def test_ln_p_range_is_decided_in_one_place():
    # -inf past k, the profile [1] and the cut to 0.0 belong to the call alone,
    # so that no route, present or added, can give ln P a range of its own
    text = (ROOT / "src" / "pattern_entropy" / "patterns.py").read_text(encoding="utf-8")
    sites = _range_sites(text)
    assert sites and {where for _, where in sites} == {"ProfileProbability.__call__"}


def test_range_guard_sees_every_form():
    text = ("class C:\n"
            "    def f(self, x):\n"
            "        return min(x, 0.0)\n"
            "    def g(self, x):\n"
            "        if x:\n"
            "            return -math.inf\n"
            "        return np.minimum(x, 0.0) + min(0.0, x)\n"
            "def h(x):\n"
            "    return min(x, 1.0), max(x, 0.0), -math.inf, min(x, 0)\n")
    assert _range_sites(text) == [(3, "C.f"), (6, "C.g"), (7, "C.g"), (7, "C.g")]


def _elementwise_sites(text):
    """(line, enclosing definition as in ``_range_sites``, function passed) of every
    ``elementwise`` call in ``text``; the function is its last name, e.g. ``log2``
    for ``math.log2``, and None for a lambda."""
    for where, member in _members(text):
        for node in ast.walk(member):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "elementwise":
                f = node.args[0] if node.args else None
                yield node.lineno, where, getattr(f, "attr", getattr(f, "id", None))


def test_libm_log2_is_taken_once_per_source():
    # ParamVector.log2_values caches the one libm log2 pass over a source's values;
    # H(X) and lb4's S2 read it, and the bounds make no per-group libm pass of their own
    sites = {p.stem: list(_elementwise_sites(p.read_text(encoding="utf-8"))) for p in SRC}
    assert [(module, where) for module, found in sites.items()
            for _, where, f in found if f == "log2"] == [("distributions", "ParamVector.log2_values")]
    assert sites["bounds"] == []


def test_elementwise_guard_sees_every_form():
    text = ("class P:\n"
            "    def log2_values(self):\n"
            "        return elementwise(math.log2, self.values)\n"
            "def f(v):\n"
            "    return _common.elementwise(lambda x: x ** 2, v) + elementwise(log2, v)\n"
            "g = elementwise(math.exp, w)\n"
            "h = elementwise\n")
    assert list(_elementwise_sites(text)) == [(3, "P.log2_values", "log2"), (5, "f", None),
                                              (5, "f", "log2"), (6, None, "exp")]


def test_attribute_sites_name_the_enclosing_definition():
    text = ("x.probs\n"
            "def f(t):\n    return t.rng.choice(3)\n"
            "class C:\n    def g(self):\n        return self.probs\n")
    assert list(_attribute_sites("probs", {"m": text})) == [("m", None), ("m", "C")]
    assert list(_attribute_sites("choice", {"m": text})) == [("m", "f")]


def test_oracle_takes_coder_steps_only_through_the_coder():
    # the per-bin step costs come from coder.next_symbol_prob; reading the model's
    # per-bin floats directly would fork the step rule
    oracle = {"oracle": (ROOT / "src" / "pattern_entropy" / "oracle.py").read_text(encoding="utf-8")}
    for attr in ("phi", "rho"):
        assert list(_attribute_sites(attr, oracle)) == []


def _call_sites(name, text):
    """(line, top-level definition) of every call of ``name``, bare or as an
    attribute, and of every ``from ... import name``, in ``text``."""
    for top in ast.parse(text).body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            called = getattr(func, "id", getattr(func, "attr", None)) == name
            imported = isinstance(node, ast.ImportFrom) and name in (a.name for a in node.names)
            if called or imported:
                yield node.lineno, getattr(top, "name", None)


def test_chains_and_partition_walks_start_in_the_bin_law():
    # one per-bin law runs every chain and profile walk of the exact oracle,
    # and the profile DP takes its binomials from a table of ln i!
    text = (ROOT / "src" / "pattern_entropy" / "oracle.py").read_text(encoding="utf-8")
    for name in ("occupancy_pmf", "_classes"):
        assert {top for _, top in _call_sites(name, text)} == {"_bin_law"}, name
    patterns = (ROOT / "src" / "pattern_entropy" / "patterns.py").read_text(encoding="utf-8")
    assert list(_call_sites("comb", patterns)) == []


def test_call_site_guard_sees_every_form():
    text = ("from math import comb\n"
            "def f(n):\n    return math.comb(n, 2) + comb(n, 3)\n"
            "x = comb\n")
    assert list(_call_sites("comb", text)) == [(1, None), (3, "f"), (3, "f")]


def _array_fsum_sites(text):
    """(line, top-level definition) of every ``math.fsum`` (or bare ``fsum``)
    whose argument is ``<expr>.tolist()`` or a numpy expression: arithmetic,
    indexing or a ``np.*`` call.  Such sums belong to ``_common.exact_sum``,
    which gives the same bits without a Python list."""
    found = []
    for top in ast.parse(text).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and len(node.args) == 1):
                continue
            func = node.func
            if not (getattr(func, "attr", None) == "fsum" or getattr(func, "id", None) == "fsum"):
                continue
            arg = node.args[0]
            is_tolist = isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "tolist"
            is_numpy_call = (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
                             and getattr(arg.func.value, "id", None) in ("np", "numpy"))
            if is_tolist or is_numpy_call or isinstance(arg, (ast.BinOp, ast.UnaryOp, ast.Subscript)):
                found.append((node.lineno, getattr(top, "name", None)))
    return found


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_array_sums_go_through_exact_sum(path):
    sites = _array_fsum_sites(path.read_text(encoding="utf-8"))
    if path.stem == "_common":
        sites = [site for site in sites if site[1] != "exact_sum"]
    assert sites == []


def test_array_sum_guard_sees_both_forms():
    text = ("import math\n"
            "a = math.fsum(x.tolist())\n"
            "def f(c, v, m):\n"
            "    return math.fsum((c[m] * v[m]).tolist()) + math.fsum(c[m] * v[m])\n"
            "b = fsum(-x)\n"
            "c = math.fsum(x[2:])\n"
            "d = math.fsum(np.abs(x))\n"
            "ok = math.fsum(t for t in terms) + math.fsum(parts) + math.fsum([1.0, 2.0])\n"
            "ok2 = math.fsum([math.exp(t) for t in terms]) + exact_sum(x)\n")
    assert _array_fsum_sites(text) == [(2, None), (4, "f"), (4, "f"), (5, None), (6, None), (7, None)]


def _silenced_warning_sites(text):
    """Line of every ``simplefilter`` or ``filterwarnings`` call whose action
    is ``"ignore"``: a blanket filter in the package would also hide real
    warnings, such as a zero-probability coder step."""
    found = []
    for node in ast.walk(ast.parse(text)):
        func = getattr(node, "func", None)
        if getattr(func, "attr", getattr(func, "id", None)) not in ("simplefilter", "filterwarnings"):
            continue
        actions = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "action"]
        if any(isinstance(a, ast.Constant) and a.value == "ignore" for a in actions):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_warning_is_silenced(path):
    assert _silenced_warning_sites(path.read_text(encoding="utf-8")) == []


def test_silenced_warning_guard_sees_every_form():
    text = ("import warnings\n"
            "warnings.simplefilter('ignore')\n"
            "simplefilter('ignore', RuntimeWarning)\n"
            "warnings.filterwarnings(action='ignore', category=UserWarning)\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('ignore')\n"
            "warnings.simplefilter('error')\n"
            "warnings.filterwarnings('default')\n")
    assert _silenced_warning_sites(text) == [2, 3, 4, 6]


def _bincount_sites(text):
    """(line, enclosing definition as in ``_range_sites``) of every ``bincount``
    call in ``text`` that passes ``weights``: a per-bin sum."""
    for where, member in _members(text):
        for node in ast.walk(member):
            func = getattr(node, "func", None)
            if (getattr(func, "id", getattr(func, "attr", None)) == "bincount"
                    and (len(node.args) > 1 or any(kw.arg == "weights" for kw in node.keywords))):
                yield node.lineno, where


def test_per_bin_sums_are_taken_in_one_place():
    # BinStats.sums is the one per-bin sum, so each reader takes the sum it
    # needs and every sum has the same bits; a bincount without weights counts
    sites = {(p.stem, where) for p in SRC for _, where in _bincount_sites(p.read_text(encoding="utf-8"))}
    assert sites == {("grids", "BinStats.sums")}


def test_bincount_guard_sees_every_form():
    text = ("class B:\n"
            "    def sums(self, w):\n"
            "        return np.bincount(self.row, weights=w)\n"
            "def f(r, w):\n"
            "    return np.bincount(r, w) + bincount(r, minlength=3)\n"
            "x = numpy.bincount(r, weights=w)\n")
    assert list(_bincount_sites(text)) == [(3, "B.sums"), (5, "f"), (6, None)]


def test_groups_are_split_by_bin_in_few_places():
    # bin_stats splits a source's groups by bin for the bounds, the coder and
    # the oracle; bin_sequence bins the letters of a sequence, _reference's
    # slow routes their own letters, and verify's grid check tests bin_index itself
    sites = {(p.stem, top) for p in SRC
             for _, top in _call_sites("bin_index", p.read_text(encoding="utf-8")) if top}
    assert sites == {("grids", "bin_stats"), ("patterns", "bin_sequence"),
                     ("_reference", "expected_codelength_stepwise"),
                     ("verify", "check_grid_laws")}


def _attribute_set_sites(attr, text):
    """(line, enclosing definition as in ``_range_sites``) of every assignment
    to ``.<attr>`` and every ``setattr`` or ``__setattr__`` call that names
    ``attr`` in ``text``."""
    for where, member in _members(text):
        for node in ast.walk(member):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Attribute) and t.attr == attr
                       for target in targets for t in ast.walk(target)):
                    yield node.lineno, where
            func = getattr(node, "func", None)
            if (getattr(func, "id", getattr(func, "attr", None)) in ("setattr", "__setattr__")
                    and any(isinstance(a, ast.Constant) and a.value == attr for a in node.args)):
                yield node.lineno, where


def test_streams_are_folded_and_given_maps_in_few_places():
    # decode skips its fold on a stream whose carried maps equal its own, which
    # holds only because encode alone sets them, to the maps it has just folded
    # into that stream's bits; any other stream is folded by decode itself
    texts = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    assert {(module, where) for module, text in texts.items()
            for _, where in _attribute_set_sites("_maps", text)} == {("coder", "encode")}
    # patterns' ProfileProbability._fold is a method of its own
    assert {(module, top) for module, text in texts.items() if module != "patterns"
            for _, top in _call_sites("_fold", text)} == {("coder", "encode"), ("coder", "decode")}


def test_attribute_set_guard_sees_every_form():
    text = ("class B:\n"
            "    def f(self, m):\n"
            "        object.__setattr__(self, '_maps', m)\n"
            "def encode(b, m):\n"
            "    b._maps = m\n"
            "    setattr(b, '_maps', m)\n"
            "    b._maps += m\n"
            "    x, b.y._maps = 1, m\n"
            "_maps = m\n"
            "ok = b._maps\n")
    assert sorted(_attribute_set_sites("_maps", text)) == [(3, "B.f"), (5, "encode"), (6, "encode"),
                                                           (7, "encode"), (8, "encode")]
