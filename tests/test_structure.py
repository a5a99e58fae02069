"""Package-wide structure: no module keeps mutable global state or a
cache, no import goes unused, no parameter exists that no caller
varies, paths are node-stacked arrays that no Python loop walks, every matrix
product goes through `liegroup.mm`, the grid flavour is set on the
grid alone, the difference step on the scenario alone, every check
is one fixture draw that a single loop repeats and that draws only
through the samplers of `sampling`, no public function
that only tests reach survives without its reason, no value is built
with a theta-derivative payload only to drop it, and the second
routes that tests compare against live in `tests/oracles.py` alone."""

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import pytest

from loopgerbe import (caloron, centext, checks, cli, forms, gerbe, liegroup,
                       loops, report, sampling)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "loopgerbe"
TESTS = ROOT / "tests"
ORACLES = TESTS / "oracles.py"


def test_no_module_rebinds_a_global():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_gridfun_is_frozen():
    # the kept eigendecomposition of a tangent must match its samples
    X = loops.GridFun.zero(loops.ThetaGrid(16), 2)
    for name in ("vals", "dvals"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(X, name, None)


def test_trivial_bundle_is_a_frozen_value():
    # the bundle is its data: another bundle is dataclasses.replace, and
    # equality and hashing stay by identity (the data holds arrays and
    # functions)
    tb = gerbe.TrivialBundle.default(loops.ThetaGrid(16))
    for f in dataclasses.fields(tb):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tb, f.name, None)
    other = dataclasses.replace(tb)
    assert tb != other and tb == tb
    assert hash(tb) != hash(other) and hash(tb) == hash(tb)


def test_looppoint_is_frozen():
    # the kept log-derivative and endpoint frame must match the samples
    g = loops.LoopPoint.identity(loops.ThetaGrid(16, closed=True), 2)
    for name in ("grid", "vals", "zvals"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, None)


def _frozen_classes(tree) -> list:
    """The classes of a module that @dataclass(frozen=True) decorates."""
    def frozen(dec):
        return (isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "dataclass"
                and any(k.arg == "frozen" and getattr(k.value, "value", False)
                        for k in dec.keywords))
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(frozen(dec) for dec in node.decorator_list)]


def _kept_fields(source: str, name: str = "<src>") -> list:
    """Fields of the module's frozen dataclasses that hold kept data: a
    default_factory, or init=False."""
    return ["%s:%d %s" % (name, n.lineno, cls.name)
            for cls in _frozen_classes(ast.parse(source, name))
            for n in ast.walk(cls)
            if isinstance(n, ast.keyword) and (
                n.arg == "default_factory"
                or (n.arg == "init" and getattr(n.value, "value", True) is False))]


def test_derived_data_is_a_cached_property():
    # a frozen dataclass keeps what it derives from its fields in a
    # functools.cached_property, never in a field of its own
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [o for name, src in sources.items() for o in _kept_fields(src, name)] == []
    assert sum(len(_frozen_classes(ast.parse(src))) for src in sources.values()) >= 8
    # the rule sees a kept field of a frozen dataclass, and only there
    held = """
@dataclass(frozen=True)
class Held:
    p: object
    _samples: dict = field(default_factory=dict)
    _rows: tuple = field(default=None, init=False)

@dataclass
class Rows:
    rows: list = field(default_factory=list, init=False)
"""
    assert _kept_fields(held) == ["<src>:5 Held", "<src>:6 Held"]
    for cls, names in ((loops.TrigPoly, ("a0", "ac", "bs")),
                       (loops.GridFun, ("grid", "vals", "dvals")),
                       (loops.LoopPoint, ("grid", "vals", "zvals"))):
        assert tuple(f.name for f in dataclasses.fields(cls)) == names


def test_caloron_point_keeps_nothing():
    # a caloron point is (p, k, theta); the curvature samples of a tuple
    # of tangents are one explicit value, not a table keyed by identity
    assert tuple(f.name for f in dataclasses.fields(caloron.CaloronPoint)) == (
        "p", "k", "theta")
    for gone in ("_samples", "_nodes", "_at", "_missing", "_store", "fill",
                 "_base_curvature", "_nabla_phi"):
        assert not hasattr(caloron.CaloronPoint, gone), gone
    source = (SRC / "caloron.py").read_text()
    calls = [n.func.id for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert "id" not in calls


_CACHES = ("cache", "lru_cache")
_MUTATORS = ("append", "extend", "insert", "update", "setdefault")


def _root_name(node):
    """The name at the root of x[...].attr[...], or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _kept_globally(source: str, name: str = "<src>") -> list:
    """Module-level caches (functools.cache, lru_cache) and functions
    that write into a module-level container: item assignment or
    deletion, or a mutating method call, on a name the module binds and
    the function does not."""
    tree = ast.parse(source, name)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += ["%s:%d %s" % (name, node.lineno, a.name)
                    for a in node.names if a.name in _CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in _CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            out.append("%s:%d %s" % (name, node.lineno, node.attr))
    module = {n.id for stmt in tree.body
              if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              for n in ast.walk(stmt) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                 + [a for a in (args.vararg, args.kwarg) if a]}
        local |= {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = module - local
        for node in ast.walk(fn):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            written = [_root_name(t) for t in targets if isinstance(t, ast.Subscript)]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                written.append(_root_name(node.func.value))
            out += ["%s:%d %s" % (name, node.lineno, w) for w in written if w in shared]
    return out


def test_no_module_keeps_a_cache():
    # kept data lives on instances (GridFun's eig, a LoopPoint's
    # log-derivative), never in a module
    offenders = [o for path in sorted(SRC.glob("*.py"))
                 for o in _kept_globally(path.read_text(), path.name)]
    assert offenders == []
    # the rule sees a memo decorator and a module table of cos(m t)
    tables = """
import functools
_TABLES = {}
_LOG = []

@functools.lru_cache(maxsize=None)
def basis(n):
    return n

def cos_table(m, t):
    key = (m, t.size)
    if key not in _TABLES:
        _TABLES[key] = np.cos(m * t)
    _LOG.append(key)
    return _TABLES[key]

def local(m):
    _TABLES = {}
    _TABLES[m] = m
    return _TABLES
"""
    assert _kept_globally(tables) == ["<src>:6 lru_cache", "<src>:13 _TABLES",
                                      "<src>:14 _LOG"]
    assert _kept_globally("from functools import cache\n") == ["<src>:1 cache"]


def test_forms_has_no_type_registry():
    # point and tangent types flow and bracket through their own methods
    assert not hasattr(forms, "register_point_type")
    assert not hasattr(forms, "register_tangent_type")


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    offenders = [u for path in paths for u in _unused_imports(path)]
    assert offenders == []


def _functions(mod):
    """Every public function of the module and public method of its classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                fn = getattr(raw, "__func__", raw)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield name + "." + attr, fn


def _params(fn) -> tuple:
    return tuple(inspect.signature(fn).parameters)


def test_no_parameter_that_no_caller_varies():
    # one difference stencil: nothing switches Richardson extrapolation
    # off, and the run configuration is exactly its reported fields
    takes = [mod.__name__ + "." + name
             for mod in (caloron, centext, checks, cli, forms, gerbe, liegroup,
                         loops, report, sampling)
             for name, fn in _functions(mod) if "richardson" in _params(fn)]
    assert takes == []
    assert tuple(f.name for f in dataclasses.fields(checks.RunConfig)) == tuple(
        checks.CONFIG_FIELDS)
    assert _params(forms.ext_d_form) == ("form", "h")
    assert _params(liegroup.eig_alg) == ("X", "dX")
    assert _params(loops.conj_loop) == ("h", "X")
    # no path is drawn from based tangents
    assert "based_loops" not in _params(sampling.random_group_path)
    assert "based" not in _params(sampling.random_loop_tangent)
    # nothing reads a gradient of the Higgs coefficient
    assert "phi_coeff_grad" not in _params(gerbe.TrivialBundle.__init__)
    # one draw has fixed harmonics, coefficient range and factor count,
    # chart range, lam range and the spreads of the normal chart points
    assert (sampling.HARMONICS, sampling.SCALE, sampling.NFACTORS) == (2, 0.5, 2)
    assert (sampling.CHART, sampling.LAM) == (0.6, 1.0)
    assert (sampling.EXP_CHART, sampling.DD_CHART) == (0.3, 0.5)
    grid_group = ("rng", "grid", "group")
    assert {name: _params(getattr(sampling, name)) for name in (
        "random_trig_coeffs", "random_trig", "random_based_profile", "random_loop",
        "random_loop_tangent", "random_path_point", "random_path_tangent",
        "random_path_fibre_points", "random_path_fibre_tangents",
        "random_unit_profile", "random_group_path", "random_chart_point",
        "random_chart_vector", "random_normal_point", "random_group_element",
        "random_bundle_fibre_points", "random_bundle_fibre_tangents",
        "random_caloron_point", "random_caloron_tangents")} == {
        "random_trig_coeffs": ("rng", "k"),
        "random_trig": ("rng",),
        "random_based_profile": ("rng",),
        "random_loop": grid_group + ("nfactors", "based"),
        "random_loop_tangent": grid_group,
        "random_path_point": grid_group,
        "random_path_tangent": grid_group + ("endpoint",),
        "random_path_fibre_points": ("rng", "scn", "q"),
        "random_path_fibre_tangents": ("rng", "scn", "q", "k"),
        "random_unit_profile": ("rng",),
        "random_group_path": grid_group + ("npath",),
        "random_chart_point": ("rng", "dim"),
        "random_chart_vector": ("rng", "dim"),
        "random_normal_point": ("rng", "dim", "spread"),
        "random_group_element": ("rng", "group"),
        "random_bundle_fibre_points": ("rng", "scn", "q"),
        "random_bundle_fibre_tangents": ("rng", "scn", "q", "k"),
        "random_caloron_point": ("rng", "tb"),
        "random_caloron_tangents": ("rng", "tb", "k")}
    assert inspect.signature(sampling.random_path_tangent).parameters[
        "endpoint"].default is None
    # one sampler set per bundle, every set with the same members of the
    # same parameters: k tangents to the fibre product, one by default
    sets = (sampling.TRIVIAL, sampling.PATH)
    assert [{name: _params(getattr(s, name)) for name in s._fields} for s in sets] == [{
        "fibre_points": ("rng", "scn", "q"), "fibre_tangents": ("rng", "scn", "q", "k"),
        "acting_loop": ("rng", "scn")}] * 2
    assert [inspect.signature(s.fibre_tangents).parameters["k"].default
            for s in sets] == [1, 1]
    assert _params(loops.Fn.based) == ("f",)
    # a profile gives its values alone, or its values and derivative from
    # one evaluation; there is no derivative alone
    assert [f.name for f in dataclasses.fields(loops.Fn)] == ["val", "val_dval"]
    assert _params(loops.Fn.of) == ("val", "dval")
    assert _params(forms.pair_stacks) == ("p", "stacks", "index")
    assert _params(forms.shuffle_index) == ("degs",)
    # one table of curvature samples per tuple of tangents, built once
    # and handed to both sides of the split; a reader at an angle looks
    # its node up itself
    assert {name: _params(getattr(caloron, name)) for name in (
        "curvature_samples", "pontrjagin_form", "pontrjagin_split",
        "eval_samples")} == {
        "curvature_samples": ("scn", "pt", "Vs"), "pontrjagin_form": ("table",),
        "pontrjagin_split": ("table",), "eval_samples": ("fun", "theta")}


def _defs(path: Path) -> dict:
    """Every function and method of a module by qualified name."""
    out = {}
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    out[node.name + "." + sub.name] = sub
    return out


def test_no_python_loop_over_path_nodes():
    # a path is one stacked LoopPoint and one stacked GridFun: the
    # product rule, the difference velocity (an oracle) and the path
    # integrals are array operations over the node axis
    loops_ = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp)
    defs = {**_defs(SRC / "centext.py"), **_defs(SRC / "loops.py"), **_defs(ORACLES)}
    names = ("cocycle_c", "PathInLoopGroup.mul", "velocity")
    offenders = [name for name in names
                 if any(isinstance(n, loops_) for n in ast.walk(defs[name]))]
    assert offenders == []


def test_no_code_that_only_tests_reach():
    # the disk holonomy, the path-space connection and their samplers had
    # no caller outside their own tests, and no more do these helpers;
    # the rows check alpha's slot, so no self-test aborts a run, and one
    # explicit table of curvature samples replaces the per-call memo and
    # the per-pair curvature routes; the test oracles live in
    # tests/oracles.py
    gone = {centext: ("DiskLoop", "HOLONOMY_NR", "HOLONOMY_NS", "holonomy_H",
                      "mu_hat", "ConventionError", "_slot_residual"),
            # one sampler set per bundle: k fibre tangents, chart vectors
            # included, and the fibre samplers take the scenario
            sampling: ("random_pinned_profile", "random_disk_terms",
                       "random_bundle_tangent", "random_path_fibre_tangent"),
            caloron: ("killingback_map", "_memo", "caloron_curvature",
                      "curvature_form", "_at_angle", "_pair_index"),
            # the caloron checks draw their tangents as one stack, and the
            # table gathers its pair stacks by index; the wedge pairs slot
            # stacks gathered by a shuffle index (pair_stacks), and the
            # per-shuffle slot evaluation and the recursive enumeration of
            # the shuffles are test oracles
            forms: ("stack_tangents", "pair_forms", "shuffles"),
            # AlgEig.dexp is dexp_right; the kept frame is p.endpoint_frame
            liegroup: ("maurer_cartan", "is_group_element",
                       "is_algebra_element", "dexp_left", "dexp_right"),
            loops.LoopPoint: ("constant", "n"),
            loops: ("spectral_dtheta", "fd4_dtheta_closed", "_FD4_LEFT"),
            loops.PathInLoopGroup: ("velocity",),
            gerbe.PathFibration: ("check_point", "_endpoint_frame", "nabla_phi_closed"),
            # the fixture draws of the checks are samplers of `sampling`
            checks: ("_tb_point", "_tb_tangent", "_caloron_point",
                     "_caloron_tangents", "_caloron_tangent"),
            # TrigPoly() and TrigPoly(1.0) are the zero and the unit profile
            # (a profile gives its values, or its values and derivative
            # together: no derivative alone)
            loops.TrigPoly: ("as_fn", "__call__", "dval"),
            loops.Fn: ("zero", "__call__"),
            # nabla Phi takes dPhi from the Higgs field's equivariance;
            # the route by whole loop flows is a test oracle
            gerbe: ("_one", "curvature_via_ext_d", "nabla_phi_by_flows"),
            # the bundle is a frozen value: dataclasses.replace and point(m);
            # rho multiplies its own factors
            gerbe.TrivialBundle: ("with_data", "canonical_lift", "curvature_exact",
                                  "base_connection_dm", "rho_grad", "_bump_factors"),
            # every theta derivative is an exact payload
            loops.ThetaGrid: ("dtheta",), loops.GridFun: ("__neg__",),
            liegroup.Group: ("identity", "coeffs"),
            checks.SuiteResult: ("aborted",), cli: ("EXIT_CONVENTION",)}
    # a class inherits dunders such as __call__ from type or object, so
    # those count as present only where the owner defines them itself
    present = [owner.__name__ + "." + name
               for owner, names in gone.items() for name in names
               if name in vars(owner)
               or (not name.startswith("__") and hasattr(owner, name))]
    assert present == []


def _references(tree) -> Counter:
    """How often each name is read or looked up as an attribute in the tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def test_census_of_code_that_only_tests_reach():
    # every public function and method that nothing in the package or
    # the benchmark harness names outside its own body; each stays for
    # the reason given, and anything new here is deleted or promoted
    allowed = {
        # to be promoted to rows: a second circle reference (ROADMAP
        # item 9) and the two axiom checks (item 8)
        "caloron.curvature_via_ext_d",
        "gerbe.higgs_transform_residual", "gerbe.connection_pullback_check"}
    # a name that several definitions carry is reached by name through
    # any of them, so the rule above cannot tell them apart: each is
    # also listed here with what reaches it
    scenario = "the scenario surface, called as scn.<name>"
    shared = {
        **{"gerbe.%s.%s" % (cls, name): scenario
           for cls in ("TrivialBundle", "PathFibration")
           for name in ("act", "connection", "curvature", "higgs", "tau",
                        "zero_tangent")},
        **{"gerbe.%s.vertical" % cls: scenario + " by caloron.kernel_vector"
           for cls in ("TrivialBundle", "PathFibration")},
        # the flow and bracket of the transferred bundle, which only
        # caloron.curvature_via_ext_d reaches (through forms.ext_d)
        "caloron.CaloronPoint.flow": "the route of caloron.curvature_via_ext_d",
        "caloron.CaloronTangent.bracket": "the route of caloron.curvature_via_ext_d",
        "forms.flow": "the flow of every point type",
        "forms.ChartPt.flow": "point flow, through forms.flow",
        "gerbe.TrivialPoint.flow": "point flow, through forms.flow",
        "loops.LoopPoint.flow": "point flow, through forms.flow",
        "liegroup.bracket": "the algebra bracket",
        "liegroup.Group.dim": "the algebra dimension, read as group.dim",
        "gerbe.TrivialBundle.dim": "the chart dimension, read as tb.dim",
        "loops.LoopPoint.mul": "the loop product",
        "loops.PathInLoopGroup.mul": "the path product, in path_from_factors",
        **{"sampling.RecordingRNG." + name: "fixture recording in cli"
           for name in ("integers", "normal", "uniform")},
        # replaying a report's fixtures is the report consumer's side
        # (module docstring of sampling; ROADMAP item 9)
        **{"sampling.ReplayRNG." + name: "fixture replay of a report"
           for name in ("integers", "normal", "uniform")}}
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    everywhere = sum((_references(ast.parse(path.read_text(), str(path)))
                      for path in paths), Counter())
    defs = {path.stem + "." + qual: node for path in sorted(SRC.glob("*.py"))
            for qual, node in _defs(path).items()
            if not qual.rsplit(".", 1)[-1].startswith("_")}
    found = set()
    for qual, node in defs.items():
        elsewhere = everywhere - _references(node)
        if elsewhere[qual.rsplit(".", 1)[-1]] == 0:
            found.add(qual)
    assert found == allowed
    carriers = Counter(qual.rsplit(".", 1)[-1] for qual in defs)
    assert {q for q in defs if carriers[q.rsplit(".", 1)[-1]] > 1} == set(shared)


def _imports(source: str, name: str = "<src>") -> set:
    """The modules that the source imports, each by its first dotted name."""
    out = set()
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= ({node.module.split(".")[0]} if node.module
                    else {alias.name for alias in node.names})
    return out


def _run_imports(source: str, name: str = "<src>") -> set:
    """`_imports` of the source and of each string constant in it that
    parses as code (the setup strings of perfbench, say)."""
    out = _imports(source, name)
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out |= _imports(node.value)
            except (SyntaxError, ValueError):
                pass
    return out


def test_no_test_module_imports_another():
    # what several test modules share lives in tests/oracles.py
    modules = {path.stem for path in TESTS.glob("test_*.py")}
    offenders = {path.name: sorted(_imports(path.read_text(), path.name) & modules)
                 for path in sorted(TESTS.glob("test_*.py"))}
    assert {name: mods for name, mods in offenders.items() if mods} == {}
    assert _imports("from test_forms import shuffle_pairing\n"
                    "import test_stencil.x as ts\nfrom . import oracles\n") == {
        "test_forms", "test_stencil", "oracles"}


def test_nothing_outside_the_tests_imports_the_oracles():
    # the package and the benchmark harness run one route per formula;
    # the second routes are the tests' alone
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert [path.name for path in paths
            if "oracles" in _run_imports(path.read_text(), path.name)] == []
    assert _run_imports('SETUP = "import oracles\\nx = 1\\n"\n') == {"oracles"}


def test_every_oracle_is_called_by_a_test():
    # each public function of tests/oracles.py is called from a test
    # module, and no test module defines one of the same name
    public = {name for name in _defs(ORACLES) if not name.startswith("_")}
    called, defined = set(), set()
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(), str(path))
        called |= {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                   for n in ast.walk(tree) if isinstance(n, ast.Call)
                   and isinstance(n.func, (ast.Name, ast.Attribute))}
        defined |= set(_defs(path))
    assert public - called == set()
    assert public & defined == set()


def test_path_product_builds_no_velocity_derivative(monkeypatch):
    # no path integral reads the theta derivative of a path velocity, so
    # the product rule skips it: one product for gh, two for
    # Z(gh) = Z(g) + Ad(g) Z(h) and two for Ad(h^-1) f'
    grid = loops.ThetaGrid(16)
    rng = sampling.make_rng(5)
    f, g = (sampling.random_group_path(rng, grid, liegroup.SU2, 9) for _ in range(2))
    calls = []
    mm = liegroup.mm

    def counting(*args):
        calls.append(args)
        return mm(*args)

    monkeypatch.setattr(liegroup, "mm", counting)
    monkeypatch.setattr(loops, "mm", counting)
    fg = f.mul(g)
    assert len(calls) == 5
    assert f.vel.dvals is None and g.vel.dvals is None and fg.vel.dvals is None


def test_one_draw_loop():
    # `_draws` alone repeats a check's draw and reduces its residuals;
    # invariant-volume is a fixed quadrature and draws nothing
    loop = checks._draws(1)(lambda cfg, rng: 0.0).__code__
    drawn = {s.fn.__name__ for s in checks.CHECKS.values()
             if s.fn.__code__ is loop}
    names = {s.fn.__name__ for s in checks.CHECKS.values()}
    assert drawn == names - {"invariant_volume"}
    for name in drawn:
        assert _params(getattr(checks, name)) == ("cfg", "rng", "n")
    tree = ast.parse((SRC / "checks.py").read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and any(isinstance(d, ast.Call) and d.func.id == "_draws"
                      for d in node.decorator_list)}
    assert set(bodies) == drawn
    looping = [name for name, node in bodies.items()
               if any(isinstance(n, ast.For) for n in ast.walk(node))]
    assert looping == []


_DRAWS = ("uniform", "normal", "integers")


def _raw_draws(source: str, name: str = "<src>") -> list:
    """Every call of a generator method, as <name>:<line> <method>."""
    return ["%s:%d %s" % (name, n.lineno, n.func.attr)
            for n in ast.walk(ast.parse(source, name))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in _DRAWS]


def test_checks_make_no_raw_draw():
    # what one draw means is a sampler of `sampling`: the checks hold
    # only identities, and draw through the samplers alone
    assert _raw_draws((SRC / "checks.py").read_text(), "checks.py") == []
    assert _raw_draws("m = rng.uniform(-0.6, 0.6, size=2)\n"
                      "j = int(rng.integers(n))\n") == ["<src>:1 uniform",
                                                        "<src>:2 integers"]


def test_checks_draw_fibres_through_the_sampler_sets():
    # an identity of every bundle has one body, which draws through the
    # sampler set of the bundle it is given: checks names no per-bundle
    # fibre sampler, and neither checks nor sampling dispatches by isinstance
    fibre = {name for name in vars(sampling)
             if name.startswith("random_") and "_fibre_" in name}
    assert fibre == {"random_bundle_fibre_points", "random_bundle_fibre_tangents",
                     "random_path_fibre_points", "random_path_fibre_tangents"}
    named = _references(ast.parse((SRC / "checks.py").read_text()))
    assert sorted(name for name in fibre if named[name]) == []
    for path in (SRC / "checks.py", SRC / "sampling.py"):
        named = _references(ast.parse(path.read_text()))
        assert named["isinstance"] == 0, path.name


def _scaled_draws(source: str, name: str = "<src>") -> list:
    """Every product or quotient with a sampler call as an operand, as
    <name>:<line> <sampler>."""
    return ["%s:%d %s" % (name, n.lineno, side.func.id)
            for n in ast.walk(ast.parse(source, name))
            if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Div))
            for side in (n.left, n.right)
            if isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
            and side.func.id.startswith("random_")]


def test_checks_scale_no_sampler_result():
    # the spread of a drawn object is the sampler's: no check rescales
    # what a sampler returns
    assert _scaled_draws((SRC / "checks.py").read_text(), "checks.py") == []
    assert _scaled_draws("x = random_chart_vector(rng, 4) * 0.3\n"
                         "y = 2.0 / random_algebra(rng, g)\n"
                         "z = random_normal_point(rng, 3, DD_CHART)\n") == [
        "<src>:1 random_chart_vector", "<src>:2 random_algebra"]


def test_path_has_one_representation():
    fields = {f.name for f in dataclasses.fields(loops.PathInLoopGroup)}
    assert fields == {"sgrid", "g", "vel"}
    for gone in ("loops", "vels", "velocity_exact", "endpoint"):
        assert not hasattr(loops.PathInLoopGroup, gone)
    # Ad(h^-1) with its derivative is written once, in conj_loop
    assert not hasattr(loops, "_conj")


def _is_matrix_product(subscripts: str) -> bool:
    """An einsum with two or more operands that sums an index and keeps
    two output indices: a (possibly chained) matrix product.  Traces and
    pairings such as "...ij,...ji->..." keep none or one."""
    inputs, arrow, output = subscripts.replace("...", "").replace(" ", "").partition("->")
    operands = inputs.split(",")
    if not arrow:
        return len(operands) > 1
    summed = set("".join(operands)) - set(output)
    return len(operands) > 1 and len(output) >= 2 and bool(summed)


def _matrix_products(path: Path) -> list:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            out.append(where + " @")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "matmul":
                out.append(where + " matmul")
            elif node.func.attr == "einsum":
                sub = node.args[0] if node.args else None
                if not (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                        and not _is_matrix_product(sub.value)):
                    out.append(where + " einsum")
    return out


def test_every_matrix_product_goes_through_mm():
    # one product kernel: the @ operator, np.matmul and matrix-product
    # einsums appear nowhere in the package, liegroup.mm included
    assert _is_matrix_product("tij,jk,tkl->til")
    assert _is_matrix_product("...ij,...jk->...ik")
    assert not _is_matrix_product("...ij,...ji->...")
    assert not _is_matrix_product("aij,...ji->...a")
    offenders = [site for path in sorted(SRC.glob("*.py"))
                 for site in _matrix_products(path)]
    assert offenders == []


def test_directional_evaluates_fun_once():
    # the Richardson stencil is one stacked evaluation: one call of fun
    # with the step array, and no loop over the steps
    loops_ = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp, ast.Lambda, ast.FunctionDef)
    fn = _defs(SRC / "forms.py")["directional"]
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "fun"]
    assert len(calls) == 1
    assert not any(isinstance(n, loops_) for n in ast.walk(fn) if n is not fn)


def _dropped_payloads(source: str, name: str = "<src>") -> list:
    """Every GridFun(<grid>, <call>(...).vals), which builds a value
    with its theta-derivative payload only to drop it, as <name>:<line>."""
    out = []
    for n in ast.walk(ast.parse(source, name)):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "GridFun"):
            continue
        vals = n.args[1:2] + [k.value for k in n.keywords if k.arg == "vals"]
        if any(isinstance(v, ast.Attribute) and v.attr == "vals"
               and isinstance(v.value, ast.Call) for v in vals):
            out.append("%s:%d" % (name, n.lineno))
    return out


def test_no_payload_is_built_to_be_dropped():
    # a value with no theta derivative is summed from its values alone
    # (GridFun.from_profile_vals), not built with one and then stripped
    offenders = [site for path in sorted(SRC.glob("*.py"))
                 for site in _dropped_payloads(path.read_text(), path.name)]
    assert offenders == []
    assert _dropped_payloads("F = GridFun(grid, tb.base_connection(m, u).vals)\n"
                             "G = GridFun(grid, X.vals)\n"
                             "H = GridFun(X.grid, adjoint_inv(h.vals, X.vals), d)\n"
                             "K = GridFun(grid, vals=phi(m).vals)\n") == [
        "<src>:1", "<src>:4"]


def test_no_flow_casts_its_steps_to_float():
    # flows take arrays of steps: a float(...) anywhere in a flow method
    # (or forms.flow) would turn a stack back into one step
    flows = [(path.name, name, fn)
             for path in (SRC / m for m in ("forms.py", "loops.py", "gerbe.py", "caloron.py"))
             for name, fn in _defs(path).items()
             if name == "flow" or name.endswith(".flow")]
    assert len(flows) == 5
    offenders = ["%s:%s" % (where, name) for where, name, fn in flows
                 if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id == "float" for n in ast.walk(fn))]
    assert offenders == []


def _calls_by_function(path: Path) -> dict:
    """Qualified function name -> names of the functions it calls
    directly (a bare name or the attribute of a method call)."""
    out = {}
    for name, fn in _defs(path).items():
        out[name] = {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                     for n in ast.walk(fn) if isinstance(n, ast.Call)
                     and isinstance(n.func, (ast.Name, ast.Attribute))}
    return out


def test_one_alternating_pairing():
    # pair_stacks is the one alternating sum over permutations, and
    # shuffle_index the one function that enumerates shuffles for it
    # (the recursive enumeration is a test oracle): the caloron 4-form
    # and the descended 3-form are its pairings, and only the literal
    # six-term omega3 writes out a permutation sum of its own
    for gone in ("wedge_pair", "pair_forms", "shuffles"):
        assert not hasattr(forms, gone)
    calls = {path.stem + "." + name: called
             for path in sorted(SRC.glob("*.py"))
             for name, called in _calls_by_function(path).items()}
    permuting = sorted(name for name, called in calls.items()
                       if called & {"signed_permutations", "shuffle_index"})
    assert permuting == ["caloron.CurvatureSamples._shuffles", "gerbe.omega3",
                         "gerbe.string_form_at"]
    # the circle integral reaches the curvature only through its table
    assert not calls["caloron.integrate_circle"] & {"pair_samples", "curvature"}
    # the descended 3-form makes one curvature call and one nabla Phi
    # call, on its stacked tangents, and pairs through pair_stacks alone
    assert not calls["gerbe.string_form_at"] & {"pair_samples", "curvature_samples"}
    fn = _defs(SRC / "gerbe.py")["string_form_at"]
    made = Counter(n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                   for n in ast.walk(fn) if isinstance(n, ast.Call)
                   and isinstance(n.func, (ast.Name, ast.Attribute)))
    assert (made["curvature"], made["nabla_phi"], made["pair_stacks"]) == (1, 1, 1)


def test_one_signed_sum():
    # the wedge (pair_stacks), the exterior derivative and both
    # simplicial differentials add their signed terms through
    # forms._signed_sum, the only function of forms that starts an
    # accumulator at None
    tree = ast.parse((SRC / "forms.py").read_text())
    starts = sorted(fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                    for n in ast.walk(fn) if isinstance(n, ast.IfExp)
                    and isinstance(n.test, ast.Compare)
                    and isinstance(n.test.ops[0], ast.Is)
                    and isinstance(n.orelse, ast.BinOp))
    assert starts == ["_signed_sum"]
    calls = _calls_by_function(SRC / "forms.py")
    assert sorted(name for name, called in calls.items()
                  if "_signed_sum" in called) == [
        "delta_fibre", "delta_nerve", "ext_d", "pair_stacks"]


def test_only_the_grid_is_periodic_or_closed():
    # periodic or closed is decided once, by ThetaGrid(n, closed): no
    # other public function, method, dataclass field or class attribute
    # of the package takes or holds the flag
    takes = []
    for mod in (caloron, centext, checks, cli, forms, gerbe, liegroup,
                loops, report, sampling):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or obj is loops.ThetaGrid:
                continue
            if inspect.isfunction(obj) and "closed" in _params(obj):
                takes.append(name)
            if inspect.isclass(obj):
                if hasattr(obj, "closed"):
                    takes.append(name + ".closed")
                for attr, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn) and "closed" in _params(fn):
                        takes.append(name + "." + attr)
    assert takes == []
    assert _params(loops.ThetaGrid) == ("n", "closed", "node")
    for gone in ("quad_grid", "quad_pair", "_dtheta"):
        assert not hasattr(loops, gone)
    assert not hasattr(loops.ThetaGrid, "closed_nodes")
    for cls in (loops.GridFun, loops.LoopPoint):
        assert not hasattr(cls, "nodes")
    assert not hasattr(loops.GridFun, "scale_profile")
    # one Higgs field per bundle; another one is another bundle
    for gone in ("phi_alt", "higgs_alt"):
        assert not hasattr(gerbe.TrivialBundle, gone)
    assert tuple(f.name for f in dataclasses.fields(gerbe.TrivialBundle)) == (
        "grid", "group", "a_terms", "phi_term", "phi_coeff", "fd_step")


def test_the_scenario_carries_its_step():
    # the difference step is set once, on the scenario: only the two
    # scenario classes and their static constructors take it, and every
    # route of gerbe and caloron reads scn.fd_step
    takes = sorted(name for mod in (gerbe, caloron)
                   for name, fn in _functions(mod) if "fd_step" in _params(fn))
    assert takes == ["TrivialBundle.chart3", "TrivialBundle.default"]
    assert gerbe.FD_STEP is forms.FD_STEP
    for cls in (gerbe.TrivialBundle, gerbe.PathFibration):
        assert inspect.signature(cls).parameters["fd_step"].default is gerbe.FD_STEP
    for ctor in (gerbe.TrivialBundle.default, gerbe.TrivialBundle.chart3):
        assert inspect.signature(ctor).parameters["fd_step"].default is gerbe.FD_STEP
    assert checks.RunConfig().fd_step is gerbe.FD_STEP
    grid = loops.ThetaGrid(16)
    tb = gerbe.TrivialBundle.default(grid, fd_step=1e-3)
    assert tb.fd_step == 1e-3
    assert dataclasses.replace(tb, phi_coeff=lambda m: m[..., 1]).fd_step == 1e-3
    assert gerbe.TrivialBundle.chart3(grid).fd_step is gerbe.FD_STEP
    assert gerbe.PathFibration(grid, liegroup.SU2, 1e-3).fd_step == 1e-3
    # the step is written as a literal once in the package, in the module
    # that takes the differences, and both exterior derivatives default to it
    literals = [path.name for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and node.value == 1e-4]
    assert literals == ["forms.py"]
    for fn in (forms.ext_d, forms.ext_d_form):
        assert inspect.signature(fn).parameters["h"].default is forms.FD_STEP


def test_objects_on_different_grids_do_not_combine():
    per = loops.ThetaGrid(16)
    for other in (loops.ThetaGrid(16, closed=True), loops.ThetaGrid(32)):
        X, Y = loops.GridFun.zero(per, 2), loops.GridFun.zero(other, 2)
        g, h = loops.LoopPoint.identity(per, 2), loops.LoopPoint.identity(other, 2)
        for combine in (lambda: X + Y, lambda: X - Y,
                        lambda: loops.pair_samples(X, Y), lambda: g.mul(h),
                        lambda: g.flow(Y, 0.1), lambda: h.flow(X, 0.1)):
            with pytest.raises(ValueError):
                combine()
