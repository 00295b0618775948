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

A parameter default counts as set when some call in src/fence or
perfbench/*.py passes that parameter; a default no caller overrides is a
constant that reads as a setting.
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


def _scoped(node: ast.AST, kind, cls=None):
    """(innermost enclosing class or None, node) of every ``kind`` node under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            yield cls, child
        yield from _scoped(child, kind, child if isinstance(child, ast.ClassDef) else cls)


def unset_defaults() -> list[str]:
    """Parameters with a default that no call in src/fence or perfbench/*.py
    passes, by position or keyword; a ``*`` or ``**`` splat passes any it can
    reach. Calls are matched by name: ``f(...)`` and ``x.f(...)`` count for
    every function or method named f, a call of class C for the __init__ C
    defines or inherits, and ``super().__init__(...)`` inside C for that of
    C's base."""
    package = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name: node for tree in package.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def init_owner(name: str) -> str | None:
        """The class whose __init__ a call of class ``name`` runs, if defined here."""
        cls = classes.get(name)
        if cls is None:
            return None
        if any(getattr(item, "name", None) == "__init__" for item in cls.body):
            return name
        bases = (init_owner(b.id) for b in cls.bases if isinstance(b, ast.Name))
        return next(filter(None, bases), None)

    def key(cls, call: ast.Call) -> str | None:
        f = call.func
        if isinstance(f, ast.Name):
            return f"{init_owner(f.id)}()" if init_owner(f.id) else f.id
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Call) and \
                getattr(f.value.func, "id", None) == "super" and f.attr == "__init__":
            bases = (init_owner(b.id) for b in cls.bases if isinstance(b, ast.Name))
            owner = next(filter(None, bases), None)
            return owner and f"{owner}()"
        return getattr(f, "attr", None)

    calls: dict[str | None, list[ast.Call]] = {}
    for path in _sources():
        tree = package.get(path) or ast.parse(path.read_text(encoding="utf-8"))
        for cls, call in _scoped(tree, ast.Call):
            calls.setdefault(key(cls, call), []).append(call)

    def passes(call: ast.Call, index: int | None, name: str) -> bool:
        return any(isinstance(arg, ast.Starred) or i == index
                   for i, arg in enumerate(call.args) if index is not None) or \
            any(kw.arg in (name, None) for kw in call.keywords)

    unset = []
    for path, tree in package.items():
        for cls, func in _scoped(tree, ast.FunctionDef):
            cls = cls if cls is not None and func in cls.body else None  # a method's
            if func.name == "__init__":
                callee = f"{cls.name}()"
            elif func.name.startswith("__"):
                continue
            else:
                callee = func.name
            a = func.args
            positional = [*a.posonlyargs, *a.args]
            # a call of a method or class passes no self or cls
            skip = cls is not None and "staticmethod" not in (
                getattr(d, "id", None) for d in func.decorator_list)
            first = len(positional) - len(a.defaults)
            defaults = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
            defaults += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            where = ".".join(n.name for n in (cls, func) if n is not None)
            unset += [f"{path.stem}.{where}({name})" for index, name in defaults
                      if not any(passes(c, index, name) for c in calls.get(callee, ()))]
    return unset


def test_every_default_is_set_by_some_caller():
    # a default that no caller overrides is a constant behind a knob
    unset = unset_defaults()
    assert not unset, "defaults no caller sets: " + ", ".join(unset)
