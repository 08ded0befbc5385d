"""Static guards: every name a package or test module imports is used by that module,
every module-level private name is referenced somewhere in the package,
every public function is exported or referenced there,
the package's __all__ lists exactly what its __init__ imports, sorted,
the command line turns tokens into integers in one function only,
the solver computes vertex orbits in one function only,
only graphs defines the clique routine and the component split,
the product bounds build no product outside the functions that need one,
no except clause in the package swallows its exception with a bare pass,
every parameter with a default is passed by some call,
and every nested function that calls itself is deleted by the
function around it; plus the run-time check behind the last: no public
entry point leaves garbage for the cyclic collector."""

import ast
import gc
import inspect
from collections import Counter
from pathlib import Path

import pytest

import grundydom
from grundydom import graphs, solver, theory

MODULES = sorted(p for p in Path(grundydom.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
BENCH_MODULES = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_sees_unused_imports():
    source = "import os\nimport os.path as osp\nfrom itertools import combinations, chain\nchain\n"
    assert unused_imports(source) == ["os", "osp", "combinations"]
    assert unused_imports("from __future__ import annotations\nimport time\ntime.sleep\n") == []


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def names_in(tree: ast.AST) -> list[str]:
    """Every name the tree reads, binds, reaches as an attribute or imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
    return out


def defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level function, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def is_formula(node: ast.stmt) -> bool:
    # registered in theory.FORMULAS by its decorator and reached through the table
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_formula"
        for d in getattr(node, "decorator_list", ())
    )


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants, outside
    __init__.py, that no code in sources names apart from their own definition.

    Names are matched by spelling across all sources, so a use in one module
    keeps a same-named private of another alive. Dunder names and functions
    registered with @_formula are exempt.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts = Counter(name for tree in trees.values() for name in names_in(tree))
    out = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            for name in defined_names(node):
                if not name.startswith("_") or name.endswith("__") or is_formula(node):
                    continue
                if counts[name] == names_in(node).count(name):
                    out.append(f"{module}:{name}")
    return out


def test_guard_sees_unreferenced_privates():
    sources = {
        "__init__.py": "from .a import _used_by_init\n",
        "a.py": (
            "_DEAD = 1\n_LIVE = 2\n__all__ = []\n"
            "def _recursive(n):\n    return _recursive(n - 1) + _LIVE\n"
            "def _used_by_init():\n    pass\n"
            "@_formula('f', 'k', 'exact')\ndef _registered(k):\n    return k\n"
            "class _Dead:\n    pass\n_LIVE_BY_ATTRIBUTE = 3\n"
        ),
        "b.py": "from . import a\n_read = a._LIVE_BY_ATTRIBUTE\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py:_DEAD", "a.py:_recursive", "a.py:_Dead", "b.py:_read"
    ]


def test_every_private_name_is_referenced():
    package = Path(grundydom.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def unreferenced_publics(sources: dict[str, str]) -> list[str]:
    """Module-level public functions, outside __init__.py, that the __all__
    of __init__.py does not list and no code in sources names apart from
    their own definition; names are matched by spelling, as above."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported = {
        name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.Assign) and "__all__" in defined_names(node)
        for name in ast.literal_eval(node.value)
    }
    counts = Counter(name for tree in trees.values() for name in names_in(tree))
    out = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported:
                continue
            if counts[name] == names_in(node).count(name):
                out.append(f"{module}:{name}")
    return out


def test_guard_sees_unreferenced_publics():
    sources = {
        "__init__.py": "from .a import imported\n__all__ = ['imported', 'listed']\n",
        "a.py": (
            "def imported():\n    pass\ndef listed():\n    pass\ndef dead():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\ndef called():\n    pass\n"
            "def _private():\n    pass\nclass Public:\n    pass\nCONSTANT = 1\n"
        ),
        "b.py": "from . import a\n\ndef caller():\n    return a.called()\n",
    }
    assert unreferenced_publics(sources) == ["a.py:dead", "a.py:recursive", "b.py:caller"]


def test_every_public_function_is_exported_or_referenced():
    package = Path(grundydom.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unreferenced_publics(sources) == []


def export_faults(source: str) -> list[str]:
    """What the __all__ of a package __init__ source gets wrong: names it
    imports that __all__ leaves out, names __all__ lists that it does not
    import, and an __all__ that is not sorted or lists a name twice."""
    tree = ast.parse(source)
    imported = {
        a.asname or a.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    listed = [
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and "__all__" in defined_names(node)
        for name in ast.literal_eval(node.value)
    ]
    out = [f"unlisted {name}" for name in sorted(imported - set(listed))]
    out += [f"not imported {name}" for name in listed if name not in imported]
    if listed != sorted(set(listed)):
        out.append("unsorted or repeated")
    return out


def test_guard_sees_export_faults():
    source = (
        "from .a import kept, dropped\nfrom .b import thing as alias\n"
        "__version__ = '0'\n__all__ = ['kept', 'alias', 'ghost']\n"
    )
    faults = ["unlisted dropped", "not imported ghost", "unsorted or repeated"]
    assert export_faults(source) == faults
    repeated = "from .a import b, a\n__all__ = ['a', 'b', 'b']\n"
    assert export_faults(repeated) == ["unsorted or repeated"]
    assert export_faults("from .a import b, a\n__all__ = ['a', 'b']\n") == []


def test_package_exports_exactly_what_it_imports():
    source = Path(grundydom.__file__).read_text()
    assert export_faults(source) == []


def unbroken_self_calls(source: str) -> list[str]:
    """Nested functions that call themselves by name although the function
    around them never deletes that name.

    Such a function refers to itself through its closure, so each call of
    the outer function leaves a reference cycle for the cyclic garbage
    collector; `del` of the name before the outer function returns breaks it.
    """
    out = []

    def visit(node: ast.AST, outer: ast.AST | None) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, outer)
                continue
            calls_itself = any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == child.name
                for n in ast.walk(child)
            )
            deleted = outer is not None and any(
                isinstance(n, ast.Delete)
                and any(isinstance(t, ast.Name) and t.id == child.name for t in n.targets)
                for n in ast.walk(outer)
            )
            if outer is not None and calls_itself and not deleted:
                out.append(f"{outer.name}.{child.name}")
            visit(child, child)

    visit(ast.parse(source), None)
    del visit
    return out


def test_guard_sees_unbroken_self_calls():
    source = (
        "def top(n):\n    return top(n - 1)\n"
        "def leaky(n):\n    def rec(k):\n        return rec(k - 1)\n    return rec(n)\n"
        "def broken(n):\n    def rec(k):\n        return rec(k - 1)\n"
        "    out = rec(n)\n    del rec\n    return out\n"
        "def flat(n):\n    def step(k):\n        return k + 1\n    return step(n)\n"
        "class C:\n    def method(self):\n        def walk(k):\n            walk(k)\n"
    )
    assert unbroken_self_calls(source) == ["leaky.rec", "method.walk"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_nested_self_calls_are_deleted(path):
    assert unbroken_self_calls(path.read_text()) == []


def int_readers_outside(source: str, reader: str) -> list[int]:
    """Lines that call the builtin int, or hand it on as a keyword argument
    (argparse's type=int), outside the module-level function reader."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == reader
        for node in ast.walk(f)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            handed = [node.func] + [k.value for k in node.keywords]
            if any(isinstance(x, ast.Name) and x.id == "int" for x in handed):
                out.append(node.lineno)
    return sorted(out)


def test_guard_sees_int_outside_the_reader():
    source = (
        "def _int(token):\n    return int(token)\n"
        "def parse(text):\n    return [int(t) for t in text.split()]\n"
        "p.add_argument('n', type=int)\np.add_argument('m', type=_int)\n"
        "def typed(x: int) -> bool:\n    return isinstance(x, int)\n"
    )
    assert int_readers_outside(source, "_int") == [4, 5]


def test_command_line_reads_integers_only_in_its_reader():
    source = (Path(grundydom.__file__).parent / "cli.py").read_text()
    assert int_readers_outside(source, "_int") == []


def users_of(source: str, name: str) -> list[str]:
    """Module-level functions, and methods as Class.method, that mention
    name, bare or as an attribute (x.name); other code mentions it under its
    class's name or as <module>. A module-level import does not count."""
    parts = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ClassDef):
            parts += [
                (f"{node.name}.{f.name}" if isinstance(f, ast.FunctionDef) else node.name, f)
                for f in node.body
            ]
        else:
            parts.append((node.name if isinstance(node, ast.FunctionDef) else "<module>", node))
    return sorted({owner for owner, part in parts if name in names_in(part)})


def test_guard_sees_second_user():
    source = (
        "from .graphs import orbits\n"
        "def root(G):\n    return orbits(G)\n"
        "def walk(G):\n    def inner():\n        return graphs.orbits(G)\n    return inner()\n"
        "class S:\n    find = orbits\n    def method(self):\n        return orbits\n"
        "ALIAS = orbits\n"
        "def other(G):\n    return G.n\n"
    )
    assert users_of(source, "orbits") == ["<module>", "S", "S.method", "root", "walk"]


def test_solver_computes_orbits_in_one_root_routine():
    source = (Path(grundydom.__file__).parent / "solver.py").read_text()
    assert users_of(source, "vertex_orbits") == ["_root"]


def definers(name: str) -> list[str]:
    """Package modules that define name at module level."""
    return [
        path.name for path in MODULES
        if any(name in defined_names(node) for node in ast.parse(path.read_text()).body)
    ]


def test_graphs_holds_the_one_clique_routine_and_component_split():
    assert definers("maximal_cliques") == ["graphs.py"]
    assert definers("component_graphs") == ["graphs.py"]
    assert definers("_subgraphs") == []


def test_product_bounds_builds_no_product():
    # the bounds decide on the factors; only these build products
    source = (Path(grundydom.__file__).parent / "theory.py").read_text()
    assert users_of(source, "product") == [
        "_scan_pair", "construct_product_witness", "isoperimetric_check", "strong_simplicial_upper"]


def silent_handlers(source: str) -> list[int]:
    """Lines of except clauses whose whole body is pass."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler)
        and all(isinstance(stmt, ast.Pass) for stmt in node.body)
    ]


def test_guard_sees_silent_handlers():
    source = (
        "try:\n    f()\nexcept ValueError:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, OSError) as exc:\n    pass\n    pass\n"
        "try:\n    f()\nexcept KeyError:\n    raise\n"
        "try:\n    f()\nexcept:\n    log()\n    pass\n"
        "def g():\n    try:\n        f()\n    except Exception:\n        pass\n"
    )
    assert silent_handlers(source) == [3, 7, 22]


@pytest.mark.parametrize(
    "path", sorted(Path(grundydom.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_handler_swallows_its_exception(path):
    assert silent_handlers(path.read_text()) == []


def unset_parameters(package: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters with a default, of the functions and methods defined in the
    package sources, that no call in the caller sources passes.

    Calls match definitions by name: f(...) and x.f(...) count for every
    function named f, and a call of a class counts for its __init__. A call
    passes a parameter by keyword, or by position when it has enough
    positional arguments; *args passes every positional parameter and
    **kwargs every parameter. _Parser.parse_args keeps argparse's signature.
    """
    calls = [
        node
        for source in callers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]

    def passes(call: ast.Call, callee: str, param: str, position: int | None) -> bool:
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != callee:
            return False
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return position is not None
        return position is not None and len(call.args) > position

    out = []

    def visit(node: ast.AST, cls: ast.ClassDef | None, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, module)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                name = f"{cls.name}.{child.name}" if cls is not None else child.name
                callee = cls.name if method and child.name == "__init__" else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = [
                    (a.arg, i - method)
                    for i, a in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)
                ] + [
                    (a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                for param, position in defaulted:
                    if name != "_Parser.parse_args" and not any(
                        passes(call, callee, param, position) for call in calls
                    ):
                        out.append(f"{module}:{name}({param}=)")
            visit(child, None, module)

    for module, source in package.items():
        visit(ast.parse(source), None, module)
    del visit
    return out


def test_guard_sees_unset_parameters():
    package = {
        "a.py": (
            "def f(x, y=1, *, z=2, w=3):\n    pass\n"
            "def g(x=0):\n    def inner(k=1):\n        pass\n    inner()\n"
            "class C:\n    def __init__(self, n, m=0):\n        pass\n"
            "    def method(self, p=0, q=0):\n        pass\n"
            "    @staticmethod\n    def static(p=0):\n        pass\n"
            "def h(a=0, b=0):\n    pass\n"
        ),
    }
    callers = [
        package["a.py"],
        "f(0, 5, z=1)\nC(1, 2)\nobj.method(1)\nC.static(1)\nh(*args)\ng(**kw)\n",
    ]
    assert unset_parameters(package, callers) == [
        "a.py:f(w=)", "a.py:inner(k=)", "a.py:C.method(q=)"
    ]


def test_every_parameter_default_is_passed_by_some_call():
    package = {p.name: p.read_text() for p in Path(grundydom.__file__).parent.glob("*.py")}
    callers = [*package.values(), *(p.read_text() for p in TEST_MODULES + BENCH_MODULES)]
    assert unset_parameters(package, callers) == []


def public_calls() -> dict[str, object]:
    """One small call of every public function of the package and of the
    searches the package calls internally."""
    gd = grundydom
    c5, p3, p4 = gd.cycle(5), gd.path(3), gd.path(4)
    c5p3 = gd.product("strong", c5, p3).graph
    return {
        "boundary_sufficient_bound": lambda: gd.boundary_sufficient_bound(c5p3, 3, trials=20),
        "caterpillar": lambda: gd.caterpillar(3, [1, 0, 2]),
        "check_sequence": lambda: gd.check_sequence(c5, [0, 2]),
        "complete": lambda: gd.complete(4),
        "conjecture_scan": lambda: gd.conjecture_scan([(p3, p4), (c5, p4)]),
        "construct_complete_grid_witness": lambda: gd.construct_complete_grid_witness(3, 4),
        "construct_odd_torus_witness": lambda: gd.construct_odd_torus_witness(5),
        "construct_product_witness": lambda: [
            gd.construct_product_witness("cartesian", p3, p4, [0, 1]),
            gd.construct_product_witness("lexicographic", p3, p4, [0, 2], [0, 3]),
            gd.construct_product_witness("direct", p3, c5, [0, 2], [0, 1, 2]),
            gd.construct_product_witness("strong", p3, p4, [0, 2], [0, 3]),
        ],
        "cycle": lambda: gd.cycle(6),
        "edge_clique_cover_number": lambda: gd.edge_clique_cover_number(c5p3),
        "enumerate_connected_graphs": lambda: list(gd.enumerate_connected_graphs(5)),
        "formula_value": lambda: gd.formula_value("thm_cart_grid", [3, 4]),
        "grundy": lambda: gd.grundy(c5p3),
        "grundy_bruteforce": lambda: gd.grundy_bruteforce(gd.cycle(6)),
        "isoperimetric_check": lambda: gd.isoperimetric_check("grid", [3, 3], 1),
        "lex_grundy": lambda: gd.lex_grundy(gd.cycle(7), 2),
        "make_graph": lambda: gd.make_graph("star", (5,)),
        "path": lambda: gd.path(6),
        "product": lambda: gd.product("direct", c5, p4),
        "product_bounds": lambda: [
            gd.product_bounds(kind, p4, c5)
            for kind in ("cartesian", "strong", "direct", "lexicographic")
        ],
        "star": lambda: gd.star(5),
        "canonical_code": lambda: graphs.canonical_code(c5p3),
        "independence_number": lambda: graphs.independence_number(c5p3),
        "maximal_cliques": lambda: theory.maximal_cliques(c5p3),
        "max_weighted_sequence": lambda: [
            solver.max_weighted_sequence(gd.cycle(7), 2, 1),
            solver.max_weighted_sequence(gd.cycle(7), 2, 2),
        ],
        "vertex_orbits": lambda: graphs.vertex_orbits(c5p3),
    }


def test_public_calls_leave_no_cyclic_garbage():
    calls = public_calls()
    functions = {name for name in grundydom.__all__ if inspect.isfunction(getattr(grundydom, name))}
    assert functions <= set(calls)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, call in calls.items():
            gc.collect()
            call()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
