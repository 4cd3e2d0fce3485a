"""Family indices and site periods have one owner: ``ifs.py``.

``IfsFamily.site`` and ``IfsFamily.letter`` range-check site and letter
indices, and ``RankOneSite.period`` is the one place 2*pi/|beta| is
computed. Any other module that writes out ``0 <= j < fam.n_singular``
or ``abs(site.beta)`` again has grown a second copy of the idea.

No module calls ``np.dot``, ``np.matmul``, ``np.inner``, ``np.vdot``,
``np.einsum`` or ``np.tensordot`` either, nor uses the ``@`` operator:
on 2-vectors and (n, 2) arrays a BLAS product may fuse a multiply-add,
so its last bits would depend on the BLAS build; einsum and tensordot
can route a product through BLAS dot. Two-term products are written out instead. The one
``@`` allowed is in ``ifs.py``, where ``compose_linear`` multiplies two
``Mat2`` objects whose product ``Mat2.__matmul__`` writes out.

No module imports scipy when it is loaded: ``scipy.spatial`` alone adds
tens of MB and a large share of a CLI start-up. Its one import is the
KD-tree fallback of the Hausdorff distance, inside
``attractor._directed_distance``, reached only when the x-order bounds
leave points unsettled.

``_convex_hull`` is called only in ``ConvexBody.polygon``, to canonicalise
a polygon: the direction cone reads its span off the separating axis, so a
hull anywhere else has grown back.

Every sum the root solver reads is one callable, ``f(s, slopes=True)``,
which returns ``(F, F', err, slope_err)``, or ``(F, err)`` from the same
pass when ``slopes`` is false. A method named ``value``, a ``.value(``
call, or a ``_convex_root`` call with a ``value=`` keyword or more than
four arguments is a second evaluation path for the same sum growing back.

A lower bound reads only the left end of a root, so it calls
``_lower_root``, which stops once that end is certified. A
``_convex_root(...)`` or ``_root_from_zero(...)`` result subscripted
``[0]`` is a right end paid for and dropped.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affdim"
OWNER = "ifs.py"
COUNTS = {"n_singular", "n_maps"}


def _is_count(node):
    return isinstance(node, ast.Attribute) and node.attr in COUNTS


def violations(source):
    """(line, what) for each chained comparison against a family count and
    each abs(<x>.beta) in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and len(node.ops) > 1:
            if any(map(_is_count, [node.left, *node.comparators])):
                found.append((node.lineno, "chained range check"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "abs"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "beta"
        ):
            found.append((node.lineno, "abs(beta)"))
    return found


def test_guard_flags_the_copies_it_forbids():
    source = (
        "if not 0 <= j < fam.n_singular: pass\n"
        "ok = 0 <= k1 < fam.n_maps and k1 != k2\n"
        "period = 2.0 * math.pi / abs(fam.singular[j].beta)\n"
        "fine = j < fam.n_singular\n"
    )
    assert violations(source) == [
        (1, "chained range check"),
        (2, "chained range check"),
        (3, "abs(beta)"),
    ]


def test_indices_and_periods_are_owned_by_ifs():
    modules = [p for p in PACKAGE.glob("*.py") if p.name != OWNER]
    assert len(modules) >= 8
    found = {
        p.name: hits for p in modules if (hits := violations(p.read_text()))
    }
    assert not found, "use IfsFamily.site/letter or RankOneSite.period: %s" % found


BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot"}


def dot_calls(source, operator=True):
    """Lines of the numpy calls named in BLAS_CALLS in the source, and,
    unless operator is false, of each use of the @ operator, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in BLAS_CALLS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.append(node.lineno)
        elif (
            operator
            and isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_dot_guard_flags_the_calls_it_forbids():
    source = (
        "lam = site.rho * float(np.dot(w, x))\n"
        "offset = numpy.dot(w, y)\n"
        "fine = w[0] * x[0] + w[1] * x[1]\n"
        "z = np.matmul(points, d)\n"
        "s = np.inner(w, x) + numpy.vdot(w, y)\n"
        "coords = body.vertices @ perp\n"
        "prod @= a\n"
        "also_fine = np.outer(w, x)\n"
        "y = np.einsum('ij,nj->ni', a, points)\n"
        "g = numpy.tensordot(a, b, axes=1)\n"
        "ok = np.einsum_path('ij,jk', a, b)\n"
    )
    assert dot_calls(source) == [1, 2, 4, 5, 5, 6, 7, 9, 10]
    assert dot_calls(source, operator=False) == [1, 2, 4, 5, 5, 9, 10]


def test_no_module_calls_np_dot():
    modules = list(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {
        p.name: hits
        for p in modules
        if (hits := dot_calls(p.read_text(), operator=p.name != OWNER))
    }
    assert not found, "write the two-term products out: %s" % found


def scipy_imports(source):
    """(line, function) for each import of scipy or a scipy module, in
    order; function names the innermost enclosing def, None at module
    level (class bodies and if blocks included)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found)


def test_scipy_guard_flags_the_imports_it_forbids():
    source = (
        "import numpy as np, scipy\n"
        "from scipy.spatial import cKDTree\n"
        "if fast:\n"
        "    import scipy.linalg as la\n"
        "import scipyx\n"
        "from .scipy import helper\n"
        "def _directed_distance(z):\n"
        "    from scipy.spatial import cKDTree\n"
        "    return cKDTree(z)\n"
        "class Sampler:\n"
        "    from scipy import stats\n"
    )
    assert scipy_imports(source) == [
        (1, None),
        (2, None),
        (4, None),
        (8, "_directed_distance"),
        (11, None),
    ]


def test_scipy_spatial_only_in_the_hausdorff_fallback():
    modules = list(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {p.name: hits for p in modules if (hits := scipy_imports(p.read_text()))}
    assert {name: [f for _, f in hits] for name, hits in found.items()} == {
        "attractor.py": ["_directed_distance"]
    }, "import scipy only in the Hausdorff fallback: %s" % found
    (line, _), = found["attractor.py"]
    text = (PACKAGE / "attractor.py").read_text().splitlines()[line - 1]
    assert text.strip() == "from scipy.spatial import cKDTree"


def hull_calls(source):
    """(line, owner) for each call of _convex_hull in the source, in
    order; owner is the dotted name of the enclosing classes and defs,
    None at module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if owner is None else owner + "." + child.name
            elif isinstance(child, ast.Call) and "_convex_hull" in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.append((child.lineno, owner))
            visit(child, name)

    visit(ast.parse(source), None)
    return found


def test_hull_guard_flags_the_calls_it_forbids():
    source = (
        "class ConvexBody:\n"
        "    def polygon(cls, vertices):\n"
        "        return _convex_hull(vertices)\n"
        "def _direction_cone(points, u):\n"
        "    hull = _convex_hull(points)\n"
        "    def inner():\n"
        "        return separation._convex_hull(points)\n"
        "edges = _convex_hull_edges(points)\n"
        "top = _convex_hull(points)\n"
    )
    assert hull_calls(source) == [
        (3, "ConvexBody.polygon"),
        (5, "_direction_cone"),
        (7, "_direction_cone.inner"),
        (9, None),
    ]


def test_convex_hull_only_canonicalises_polygons():
    modules = list(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {p.name: hits for p in modules if (hits := hull_calls(p.read_text()))}
    assert {name: [owner for _, owner in hits] for name, hits in found.items()} == {
        "separation.py": ["ConvexBody.polygon"]
    }, "call _convex_hull only in ConvexBody.polygon: %s" % found


def value_paths(source):
    """(line, what) for each method named value, each .value( call and
    each _convex_root call with a value= keyword or more than four
    arguments in the source, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, "value method")
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "value"
            ]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if isinstance(node.func, ast.Attribute) and name == "value":
                found.append((node.lineno, ".value call"))
            elif name == "_convex_root" and (
                any(k.arg == "value" for k in node.keywords)
                or len(node.args) + len(node.keywords) > 4
            ):
                found.append((node.lineno, "_convex_root value path"))
    return sorted(found)


def test_value_guard_flags_the_paths_it_forbids():
    source = (
        "class _LogSum:\n"
        "    def __call__(self, s, slopes=True):\n"
        "        return self.value(s)\n"
        "    def value(self, s):\n"
        "        return s\n"
        "root = _convex_root(sums, 0.0, tol, hi, sums.value)\n"
        "root = dimension._convex_root(sums, 0.0, tol, value=lambda s: sums(s, False))\n"
        "fine = _convex_root(sums, 0.0, tol, hi)\n"
        "also_fine = sums(s, False)[0] + value(s) + spec.value\n"
        "def value(s):\n"
        "    return s\n"
    )
    assert value_paths(source) == [
        (3, ".value call"),
        (4, "value method"),
        (6, "_convex_root value path"),
        (7, "_convex_root value path"),
    ]


def test_sums_have_one_evaluation_protocol():
    modules = list(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {p.name: hits for p in modules if (hits := value_paths(p.read_text()))}
    assert not found, "evaluate with f(s, slopes) alone: %s" % found


def dropped_right_ends(source):
    """Lines of each _convex_root(...) or _root_from_zero(...) result
    subscripted [0] in the source, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Call)
        and (getattr(node.value.func, "id", None) or getattr(node.value.func, "attr", None))
        in ("_convex_root", "_root_from_zero")
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
    )


def test_left_end_guard_flags_the_reads_it_forbids():
    source = (
        "lower = max(lower, _root_from_zero(sums, tol)[0])\n"
        "a = dimension._convex_root(tail, start, tol)[0]\n"
        "upper = _convex_root(piece, 1.0, tol, 2.0)[1]\n"
        "lower = _lower_root(tail, start, tol)\n"
        "a = root[0]\n"
    )
    assert dropped_right_ends(source) == [1, 2]


def test_lower_bounds_read_the_left_end_alone():
    modules = list(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {p.name: hits for p in modules if (hits := dropped_right_ends(p.read_text()))}
    assert not found, "solve a lower bound with _lower_root: %s" % found
