"""Every name a module of the package imports is used in it, every public
name it defines is called in it, one function judges a basis's rank, one
calls an eigensolver, one sets the heap's policy, and one module asks a
kernel's family.

A stdlib stand-in for a linter's unused-import rule (pyflakes F401): a name
bound by an import counts as used when the module reads it as a name, the
root of an attribute chain included.  ``__init__.py`` re-exports by
importing, so it is exempt, as is any imported name on a line marked
``# noqa: F401``.

A public function, class or method of the package that no module of it
refers to is code for the tests alone, and belongs in ``tests/``: the
references the tests check the package against live in
``tests/references.py`` and ``tests/spline_references.py``, which share none
of the spectral core's code paths.  Only the library's own API and what the
benchmark reads are exempt, each entry with its reason.

The rank of a basis is decided by ``polybasis.full_rank_blocks`` alone: no other
function reads ``DEFAULT_RANK_TOL`` or takes an SVD.

The eigenpairs of every kernel matrix and restriction come from
``spm._eigensystems``: no other function calls ``eigh`` or ``eigvalsh``, so
a new spectral route enters through it.

The process's allocator is set by ``pool.keep_heap`` alone: no other
function reads ``mallopt``, so the heap has one policy, stated there.

A kernel's family is asked in ``kernels`` only: no module but
``kernels.py`` reads ``Family``.  The case table's one family rule, the
Gaussian's closed-form penalized block, is ``kernels.block_kernel``'s; any
other function treats a kernel through ``kernels``' own functions.

A private name stays in its module: every attribute read ``obj._name`` in the
package, ``obj`` other than ``self`` or ``cls``, names something the same
module defines, and no module imports a private name
(``from .mod import _name``).  The tests are exempt, since they patch
private methods.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "flatgp"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in imported if name not in read]


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(3, "pi")]


# Public names that no module of the package calls, and why they stay
UNCALLED_API = {
    ("flatlimit.py", "limiting_smoother"): "library API: the exact flat-limit smoother",
    ("flatlimit.py", "match_scale"): "library API: the constant that makes two models agree",
    ("gp.py", "loo_mse"): "library API: one criterion of one smoother, as a float",
    ("gp.py", "loo_nll"): "library API: one criterion of one smoother, as a float",
    ("kernels.py", "eval_kernel"): "library API: one kernel value k(x, y)",
    ("kernels.py", "Kernel.custom"): "library API: a kernel of a user's radial profile",
    ("smoothers.py", "SmootherMatrix.matrix"): "library API: the dense smoother, formed when read",
    ("accel.py", "using_numba"): "read by the benchmark worker, perfbench/worker.py",
}


def uncalled_public_names(sources: dict) -> set:
    """(module, name) of each public top-level function or class, and each
    public method (``Class.method``) of a top-level class, of the modules
    ``sources`` (file name -> source) whose name no module reads or writes,
    bare or as an attribute; a method counts by its own name.  A name that
    starts with an underscore, a dunder included, is not public."""
    defined, referred = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defined.add((module, node.name, node.name))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                    defined.add((module, f"{node.name}.{sub.name}", sub.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    return {(module, name) for module, name, key in defined if key not in referred}


def test_every_public_name_has_a_caller_in_the_package():
    # __init__.py re-exports by importing, which is no call
    sources = {path.name: path.read_text() for path in MODULES}
    assert uncalled_public_names(sources) == set(UNCALLED_API)


def test_an_uncalled_public_name_is_found():
    sources = {
        "a.py": (
            "class Model:\n"
            "    def fit(self):\n        return helper()\n"
            "    def reference(self):\n        return 0\n"
            "    def _private(self):\n        return 1\n"
            "    def __post_init__(self):\n        return 5\n"
            "def helper():\n    return 2\n"
            "def only_tests():\n    return 3\n"
            "def _hidden():\n    return 4\n"
        ),
        "b.py": "from .a import Model\n\ndef run():\n    return Model().fit()\n",
    }
    assert uncalled_public_names(sources) == {
        ("a.py", "Model.reference"), ("a.py", "only_tests"), ("b.py", "run")
    }


# The references the tests check the package against reach none of the code
# they check: kernels and bases, but no spectrum, trace solve or rank rule
REFERENCES = ["references.py", "spline_references.py"]
SPECTRAL_NAMES = {
    "SaddleFactorization", "GpSpectrum", "factorize_model", "factorize", "solve_trace",
    "graded_basis", "full_rank_blocks", "framed_monomials",
}


def names_read(source: str) -> set:
    """Every name ``source`` imports, or reads bare or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


@pytest.mark.parametrize("name", REFERENCES)
def test_references_share_no_spectral_code(name):
    source = (pathlib.Path(__file__).parent / name).read_text()
    assert names_read(source) & SPECTRAL_NAMES == set()


def test_a_spectral_name_in_a_reference_is_found():
    source = (
        "from flatgp.spm import solve_trace\n"
        "import flatgp.polybasis as pb\n"
        "def b(X):\n    return pb.graded_basis(X, 2)\n"
    )
    assert names_read(source) & SPECTRAL_NAMES == {"solve_trace", "graded_basis"}


# The rank rule lives in one function
RANK_RULE = {("polybasis.py", "full_rank_blocks")}
RANK_NAMES = ("DEFAULT_RANK_TOL", "svd")


def readers(source: str, names) -> set:
    """Names of the functions of ``source`` (``<module>`` outside any) that
    read one of ``names``, bare or as an attribute (``np.linalg.svd``)."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name not in names:
            continue
        owner = node
        while owner in parents and not isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = parents[owner]
        found.add(getattr(owner, "name", "<module>"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_rank_rule_judges_rank(path):
    found = {(path.name, name) for name in readers(path.read_text(), RANK_NAMES)}
    assert found <= RANK_RULE


def test_a_rank_rule_reader_is_found():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from .polybasis import DEFAULT_RANK_TOL\n"
        "CUT = 1e-10\n"
        "def judged(V, tol=DEFAULT_RANK_TOL):\n    return V\n"
        "def spectral(V):\n    return np.linalg.svd(V)\n"
        "def bare(V):\n    return svd(V)\n"
        "def clean(V):\n    return np.linalg.qr(V)\n"
    )
    assert readers(source, RANK_NAMES) == {"judged", "spectral", "bare"}


# One eigensolver entry: the spectral core's
EIGENSOLVER = {("spm.py", "_eigensystems")}
EIGENSOLVER_NAMES = ("eigh", "eigvalsh")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_core_calls_an_eigensolver(path):
    found = {(path.name, name) for name in readers(path.read_text(), EIGENSOLVER_NAMES)}
    assert found <= EIGENSOLVER


def test_an_eigensolver_call_is_found():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def _eigensystems(A):\n    return np.linalg.eigh(A)\n"
        "def values(A):\n    return eigvalsh(A)\n"
        "SOLVE = np.linalg.eigh\n"
        "def clean(A):\n    return np.linalg.svd(A)\n"
    )
    assert readers(source, EIGENSOLVER_NAMES) == {"_eigensystems", "values", "<module>"}


# One heap policy: the pool's
HEAP_POLICY = {("pool.py", "keep_heap")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_heap_policy_calls_mallopt(path):
    found = {(path.name, name) for name in readers(path.read_text(), ("mallopt",))}
    assert found <= HEAP_POLICY


def test_a_mallopt_call_is_found():
    source = (
        "import ctypes\n"
        "def keep_heap():\n    return ctypes.CDLL(None).mallopt(-8, 1)\n"
        "def trim():\n    libc = ctypes.CDLL(None)\n    libc.mallopt(-1, 0)\n"
        "MALLOPT = ctypes.CDLL(None).mallopt\n"
        "def clean():\n    return ctypes.CDLL(None).malloc_trim(0)\n"
    )
    assert readers(source, ("mallopt",)) == {"keep_heap", "trim", "<module>"}


# One family switch: the kernels module's (the case table's Gaussian block
# included, in ``kernels.block_kernel``)
FAMILY_READERS = set()


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "kernels.py"],
    ids=lambda p: p.name,
)
def test_only_kernels_and_the_case_table_ask_a_family(path):
    found = {(path.name, name) for name in readers(path.read_text(), ("Family",))}
    assert found <= FAMILY_READERS


def test_a_family_reader_is_found():
    source = (
        "from .kernels import Family, Kernel\n"
        "def classify_limit(family):\n    return family.base.family is Family.GAUSSIAN\n"
        "def scaled(k):\n    return k if k.family is Family.ZERO else k.with_params(gamma=2.0)\n"
        "def absorbed(k, bump):\n    return Kernel.sum_of(k, bump)\n"
        "ZERO = Family.ZERO\n"
    )
    assert readers(source, ("Family",)) == {"classify_limit", "scaled", "<module>"}


def foreign_private_reads(source: str) -> list:
    """(line, name) of each attribute read ``obj._name`` of ``source``, with
    ``obj`` other than ``self`` or ``cls``, whose name the source does not
    define as a function, class, method, variable or assigned attribute, and
    of each private name imported by ``from ... import _name``."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        and node.attr not in defined
    ]
    imports = [
        (alias.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if _private(alias.name)
    ]
    return sorted(reads + imports)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_names_stay_in_their_module(path):
    assert foreign_private_reads(path.read_text()) == []


def test_a_foreign_private_read_is_found():
    source = (
        "class Stack:\n"
        "    _rows: tuple = ()\n"
        "    def __init__(self, U):\n        self._factors = U\n"
        "    def _diagonal(self):\n        return self._hidden\n"
        "def same(a, b):\n    return a._factors, b._diagonal(), a._rows, type(a).__name__\n"
        "def foreign(spec):\n    return spec._filter_rows(0.1)\n"
        "def chained(fit):\n    return fit.factorization._queried\n"
        "from .flatlimit import loglog_slope, _limit_model\n"
        "from .pool import threads as _threads\n"
    )
    assert foreign_private_reads(source) == [
        (10, "_filter_rows"), (12, "_queried"), (13, "_limit_model")
    ]
