"""Every function, class and method of src/fence has a reader in the program,
and every parameter of its functions a reader in the function's body.

A definition counts as read when its name appears somewhere in src/fence or
perfbench/*.py outside the definition itself, as a bare name or as an
attribute. Names inside ``__all__`` lists, import lines and ``__init__.py``
do not count, since exporting a name is not using it. Dunder methods are
exempt. Strings do not count either: a dict key such as perfbench's "crps"
would otherwise read as a use of metrics.crps.

A parameter counts as read when its name appears as a bare name in the
body of its function or lambda, nested functions included. The methods of
the two protocols the sampler calls, and their overrides, are exempt: a
backend or a scale law may ignore an argument every other one needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fence"

# names only the acceptance criteria or the dense-reference tests read
ALLOWED = {
    "beta_at": "criterion 3 pins beta_25 of the default schedule",
    "marginal_logpdf": "test_oracle checks it against scipy's multivariate normal",
    "ContaminatedBackend": "criterion 11's contaminated bed",
}


# protocol class -> the methods whose overrides take arguments they may ignore
PROTOCOLS = {
    "DenoiserBackend": {"predict"},
    "ScaleLaw": {"scales", "update", "start"},
}


def _sources() -> list[Path]:
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, defs))


def _is_all_assignment(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _references(tree: ast.Module):
    """(line, name) of every bare name and attribute."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all_assignment(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        stack.extend(ast.iter_child_nodes(node))


def unread_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _sources()}
    refs = {}
    for path, tree in trees.items():
        if path.name == "__init__.py" and path.parent == PACKAGE:
            continue
        for line, name in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [(p, line) for p, line in refs.get(name, ())
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_definition_has_a_reader():
    unread = [entry for entry in unread_definitions()
              if entry.split()[-1] not in ALLOWED]
    assert not unread, "defined in src/fence but read nowhere: " + ", ".join(unread)


def test_allowlist_names_only_unread_definitions():
    # an entry that the program reads after all is stale
    unread = {entry.split()[-1] for entry in unread_definitions()}
    assert set(ALLOWED) <= unread, sorted(set(ALLOWED) - unread)


def unread_parameters() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def protocol_methods(name: str) -> set[str]:
        """The protocol methods class ``name`` defines or inherits."""
        bases = [b.id for b in getattr(classes.get(name), "bases", ())
                 if isinstance(b, ast.Name)]
        return PROTOCOLS.get(name, set()).union(*map(protocol_methods, bases))

    exempt = {id(item) for cls in classes.values() for item in cls.body
              if getattr(item, "name", None) in protocol_methods(cls.name)}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, funcs) or id(node) in exempt:
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                                      a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p})"
                       for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    unread = unread_parameters()
    assert not unread, "parameters their function never reads: " + ", ".join(unread)


def test_protocols_name_defined_methods():
    # an exemption for a method that no longer exists is stale
    defined = {(node.name, item.name)
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    assert {(cls, m) for cls, methods in PROTOCOLS.items() for m in methods} <= defined
