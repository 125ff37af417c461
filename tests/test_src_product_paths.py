"""`src/heckekit` holds product paths only.

Every public top-level function and class of a package module must be
referenced from another definition in the package (or from module-level
code), qualified by its module: `coxeter.multiply` does not count as a use
of a `hecke.multiply`.  Slow references that only tests call live in
`tests/oracles.py`; the few public names that stay without a caller in
the package are listed in ALLOWED with the reason each one stays.  Every
public method (or property) of a top-level class must be read as an
attribute of its name somewhere else in the package, but for the ones in
ALLOWED_METHODS; the scan cannot tell classes apart, so any `.name` read
counts.  Every private top-level function and class has a caller in the
package, with no exception: a helper only its tests call belongs in the
tests.  Every name that a package module imports is used in that module.
The packed layout of a fold (`SweepResult`'s `packed`, `width` and
`table`, and a coset as `bytes`, built, translated or cut into ints) is
read only in FOLD_LAYOUT_READERS, `subexpr` alone, so a change of layout
stays inside that module.  And
the input checks are written once, in `coxeter`: no other module holds
the message of one, but for the exceptions in OWN_CHECKS.  Coefficients
have one representation: elements and the caches of `hecke` store term
maps, and `hecke` alone wraps one as a LaurentPoly (`laurent._poly`), so
no other module imports `_poly` and no test reads a LaurentPoly out of
`hecke._kl_cache`, `hecke._inverse_cache` or `hecke._kl`.

`code_lines` is the one measure of the package's size that a change
reports: lines that are neither blank nor comments nor inside a
docstring.  `python tests/test_src_product_paths.py [DIR]` prints it per
module of DIR (by default the package) and in total.
"""
import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "heckekit"

ALLOWED = {
    ("coxeter", "bruhat_leq"):
        "perfbench/tests checks its Bruhat filter against it",
    ("coxeter", "min_coset_reps"): "the acceptance suite enumerates W^A",
    ("hecke", "bar_involution"):
        "criterion 4 checks the bar invariance of b_x with it",
    ("hecke", "h"): "criterion 5 builds the standard basis elements h_x "
                    "whose pairings it checks with it",
    ("spherical", "act_by_gen"):
        "criterion 5 and perfbench's oracle-s5 `pair-adjoint` apply b_s "
        "with it",
    ("spherical", "spherical_pairing"):
        "criterion 5, perfbench's oracle-s5 and the `pair` agreement test "
        "compare with it",
    ("spherical", "bott_samelson_spherical"):
        "criterion 3 and perfbench's oracle-s5 compare the fold with it",
}


#: public methods with no caller in the package, and why each one stays
ALLOWED_METHODS = {
    ("laurent", "LaurentPoly.bar"):
        "perfbench/tracing.py's CLASS_METHODS wraps it by name, and "
        "criterion 5 checks the pairing's sesquilinearity with it",
    ("laurent", "LaurentPoly.is_nonnegative_powers"):
        "perfbench/tracing.py's CLASS_METHODS wraps it by name",
    ("laurent", "LaurentPoly.exact_divide"):
        "perfbench/tracing.py's CLASS_METHODS wraps it by name",
    ("demazure", "MultiPoly.swap_variables"):
        "perfbench/tracing.py's CLASS_METHODS wraps it by name",
    ("hecke", "LinearCombination.scale"):
        "criteria 4 and 5 and perfbench's oracle-s5 scale elements with "
        "it",
}

#: the attributes and the names that read or build a fold's packed
#: layout, and the modules that use them
FOLD_LAYOUT = {"packed", "width", "table", "translate", "maketrans",
               "from_bytes", "to_bytes"}
COSET_TYPES = {"bytes", "bytearray"}
FOLD_LAYOUT_READERS = {"subexpr"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _references(module: str, tree: ast.Module, skip: ast.AST) -> set:
    """(module, name) pairs that `tree` refers to outside the node `skip`:
    bare names (through `from .mod import name` where imported so) and
    `mod.name` attributes."""
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module
                for alias in node.names}
    found = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(imported.get(node.id, (module, node.id)))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            found.add((node.value.id, node.attr))
        todo.extend(ast.iter_child_nodes(node))
    return found


def _definitions(modules, private: bool) -> dict:
    return {(name, node.name): node
            for name, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private}


def _uncalled(modules, private: bool) -> list:
    return sorted(
        key for key, node in _definitions(modules, private).items()
        if not any(key in _references(name, tree, node)
                   for name, tree in modules.items()))


def test_every_public_definition_has_a_caller_in_the_package():
    assert _uncalled(_modules(), private=False) == sorted(ALLOWED)


def _methods(modules) -> dict:
    """(module, "Class.method") -> node for each public method, property
    and classmethod of a top-level class."""
    return {(name, f"{cls.name}.{node.name}"): node
            for name, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def _attributes_read(tree: ast.AST, skip: ast.AST) -> set:
    """The attribute names that `tree` reads outside the node `skip`."""
    found = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _uncalled_methods(modules) -> list:
    return sorted(
        key for key, node in _methods(modules).items()
        if not any(node.name in _attributes_read(tree, node)
                   for tree in modules.values()))


def test_every_public_method_has_a_caller_in_the_package():
    assert _uncalled_methods(_modules()) == sorted(ALLOWED_METHODS)


def test_the_method_scan_skips_the_method_itself():
    tree = ast.parse("class C:\n"
                     "    def used(self):\n        return self.unused\n"
                     "    def unused(self):\n        return self.unused()\n"
                     "    def loop(self):\n        return self.loop()\n"
                     "    def _private(self):\n        pass\n"
                     "def f(c):\n    return c.used()\n")
    assert _uncalled_methods({"m": tree}) == [("m", "C.loop")]


def _fold_layout_reads(modules) -> set:
    """(module, line) of each read of a FOLD_LAYOUT attribute, or of a
    COSET_TYPES name, outside FOLD_LAYOUT_READERS."""
    return {(name, node.lineno) for name, tree in modules.items()
            if name not in FOLD_LAYOUT_READERS for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in FOLD_LAYOUT
            or isinstance(node, ast.Name) and node.id in COSET_TYPES}


def test_only_subexpr_reads_the_packed_fold():
    assert _fold_layout_reads(_modules()) == set()


def test_the_layout_scan_finds_a_read_outside_subexpr():
    tree = ast.parse("def f(d):\n    h = d.sweep.packed\n"
                     "    w = d.sweep.width\n"
                     "    return bytes(d.inside[0]).translate(w)\n")
    assert _fold_layout_reads({"cli": tree, "worddata": tree,
                               "subexpr": tree}) == {
        (name, line) for name in ("cli", "worddata") for line in (2, 3, 4)}


def test_every_private_definition_has_a_caller_in_the_package():
    assert _uncalled(_modules(), private=True) == []


def test_the_scan_finds_a_private_helper_that_only_calls_itself():
    tree = ast.parse("def _used():\n    return 1\n"
                     "def _unused(k):\n    return _unused(k - 1)\n"
                     "def f():\n    return _used()\n")
    assert _uncalled({"m": tree}, private=True) == [("m", "_unused")]


def test_the_scan_sees_module_qualified_and_imported_uses():
    tree = ast.parse("from .subexpr import sweep\n"
                     "def f():\n    return sweep() + coxeter.multiply()\n"
                     "def g():\n    return f()\n")
    f = tree.body[1]
    assert {("subexpr", "sweep"), ("coxeter", "multiply")} <= \
        _references("m", tree, tree.body[2])
    assert ("m", "f") in _references("m", tree, f)
    assert ("m", "g") not in _references("m", tree, tree.body[2])


def _unused_imports(tree: ast.Module) -> set:
    """Names that `tree` imports and never reads.  An annotation is an
    expression in the tree, so a name read only there is read (the
    package quotes no annotation that names an import)."""
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    unused = {path.name: sorted(_unused_imports(ast.parse(path.read_text())))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_import_scan_reads_annotations():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from typing import Iterable, Sequence, Mapping\n"
                     "from . import coxeter\n"
                     "def f(a: Iterable[int]) -> coxeter.Permutation:\n"
                     "    return os.path.join(a)\n")
    assert _unused_imports(tree) == {"Sequence", "Mapping"}


#: the messages of the input checks that `coxeter` owns: a letter or a
#: generator of A that is an int in 1..n-1 (`check_generators`), a key
#: that is a permutation and a minimal coset representative (`coset_key`)
CHECK_TEXTS = ("out of range for S_", "is not an int", "is not a permutation",
               "is not a minimal coset representative")

#: the functions outside `coxeter` that keep a check of their own, with
#: the reason each one does
OWN_CHECKS = {
    ("cli", "parse_word"):
        "a command whose letter is rejected loads only `cli`, not "
        "`coxeter` (test_cli's test_command_imports_only_what_it_runs)",
}


def _docstring(node: ast.AST):
    """The expression node of the docstring of `node` (a module, a class
    or a function), or None."""
    if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                          ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None):
        return node.body[0]
    return None


def _check_copies(modules) -> set:
    """(module, function) for each string literal outside `coxeter`,
    docstrings aside, that holds one of CHECK_TEXTS: a raise's message,
    or a piece of one built elsewhere in the function, is a copy of an
    input check.  A literal outside every function counts under None."""
    found = set()

    def visit(module: str, node: ast.AST, where) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        doc = _docstring(node)
        children = [child for child in ast.iter_child_nodes(node)
                    if child is not doc]
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(text in node.value for text in CHECK_TEXTS)):
            found.add((module, where))
        for child in children:
            visit(module, child, where)

    for name, tree in modules.items():
        if name != "coxeter":
            visit(name, tree, None)
    return found


def test_only_coxeter_writes_the_input_checks():
    assert _check_copies(_modules()) == set(OWN_CHECKS)


def test_the_check_scan_finds_a_copied_message_but_no_docstring():
    tree = ast.parse(
        '"""Nothing here is not a permutation."""\n'
        'LIMIT = "a word out of range for S_n"\n'
        'def f(x, n):\n'
        '    """f raises when x is not a permutation."""\n'
        '    if sorted(x) != list(range(1, n + 1)):\n'
        '        raise ValueError(f"{x} is not a permutation of 1..{n}")\n'
        'class C:\n'
        '    """C is not a minimal coset representative."""\n'
        '    def g(self, x, A):\n'
        '        why = f"is not a minimal coset representative for {A}"\n'
        '        raise ValueError(f"{x} {why}")\n'
        'def h(i):\n'
        '    return f"generator {i}"\n')
    assert _check_copies({"m": tree, "coxeter": tree}) == {
        ("m", None), ("m", "f"), ("m", "g")}


def _poly_users(modules) -> set:
    """The modules that import `laurent._poly`, or read it as
    `laurent._poly`."""
    return {name for name, tree in modules.items() for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("laurent")
                and any(alias.name == "_poly" for alias in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == "_poly"
                and isinstance(node.value, ast.Name)
                and node.value.id == "laurent")}


def test_only_hecke_wraps_a_term_map_as_a_laurent_poly():
    assert _poly_users(_modules()) == {"hecke"}


#: where `hecke` keeps term maps, and the LaurentPoly reads that a term
#: map (a dict) would not answer
CACHES = {"_kl_cache", "_inverse_cache", "_kl"}
POLY_READS = {"terms", "bar", "coefficient", "exact_divide",
              "is_nonnegative_powers", "to_json_dict"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _names_a_cache(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr in CACHES
               or isinstance(sub, ast.Name) and sub.id in CACHES
               for sub in ast.walk(node))


def _cache_poly_reads(tree: ast.Module) -> list:
    """The lines of the LaurentPoly reads (POLY_READS) off a value taken
    out of a cache of `hecke`: off an expression that names one
    (CACHES), or off a name that a loop or a comprehension over one
    binds, inside that loop or comprehension."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in POLY_READS
                and _names_a_cache(node.value)):
            found.add(node.lineno)
        loops = (node.generators if isinstance(node, COMPREHENSIONS)
                 else [node] if isinstance(node, ast.For) else [])
        bound = {sub.id for loop in loops if _names_a_cache(loop.iter)
                 for sub in ast.walk(loop.target) if isinstance(sub, ast.Name)}
        if bound:
            found |= {read.lineno for read in ast.walk(node)
                      if isinstance(read, ast.Attribute)
                      and read.attr in POLY_READS
                      and isinstance(read.value, ast.Name)
                      and read.value.id in bound}
    return sorted(found)


def test_no_test_reads_a_laurent_poly_out_of_a_cache():
    reads = {path.name: _cache_poly_reads(ast.parse(path.read_text()))
             for path in sorted(TESTS.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_coefficient_scans_find_what_they_look_for():
    tree = ast.parse(
        "from heckekit.laurent import _poly\n"
        "def f(x, A):\n"
        "    a = {y: c.terms for y, c in hecke._kl(x, A).items()}\n"
        "    b = hecke._inverse_cache[x][x].bar()\n"
        "    for key, el in hecke._kl_cache.items():\n"
        "        el.to_json_dict()\n"
        "def g(x, A):\n"
        "    t = {y: dict(t) for y, t in hecke._kl(x, A).items()}\n"
        "    u = {y: c.terms for y, c in inverse_h(x).coeffs.items()}\n"
        "    return el.terms, inverse_h(x).terms, c.bar()\n")
    assert _cache_poly_reads(tree) == [3, 4, 6]
    attr = ast.parse("from . import laurent\nf = laurent._poly\n")
    assert _poly_users({"m": tree, "k": attr, "n": ast.parse("x = 1")}) \
        == {"m", "k"}


def code_lines(text: str) -> int:
    """The lines of a module's source that are neither blank nor a
    comment nor part of a docstring (of the module, a class or a
    function)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        doc = _docstring(node)
        if doc is not None:
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for k, line in enumerate(text.splitlines(), 1)
               if k not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def test_code_lines_counts_code_only():
    text = ('"""A module.\n\nIts docstring spans lines."""\n'
            "\n"
            "# a comment\n"
            "import os\n"
            "\n"
            "def f(x):\n"
            '    """One line."""\n'
            "    # another comment\n"
            "    y = x  # a trailing comment is code\n"
            '    return """not a docstring\n"""\n'
            "class C:\n"
            '    """Two\n    lines."""\n'
            "    k = 1\n")
    # import, def, y =, both lines of the returned string, class, k =
    assert code_lines(text) == 7


if __name__ == "__main__":
    total = 0
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:6}")
    print(f"{'total':16} {total:6}")
