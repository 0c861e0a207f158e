"""Load a source tree into a whole-program model.

The per-file linter parses one file at a time; the flow analyzer needs
the *program*: every module's AST plus indexes that let the call-graph
builder resolve a name at one call site to a function defined three
packages away.  Everything here is stdlib-only (``ast`` + ``pathlib``)
and never imports the analyzed code — the analyzer must be able to run
against a tree too broken to import.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.lint.core import iter_python_files, module_name_for
from repro.errors import ReproError


class ModuleInfo:
    """One parsed module: AST, source lines, and its import map."""

    __slots__ = ("name", "path", "tree", "lines", "imports")

    def __init__(self, name, path, tree, lines):
        self.name = name
        self.path = path
        self.tree = tree
        self.lines = lines
        #: local alias → fully dotted target ("events" →
        #: "repro.telemetry.events.EventLog" or "repro.telemetry.events")
        self.imports = _import_map(tree)

    def __repr__(self):
        return f"ModuleInfo({self.name!r})"


class FunctionInfo:
    """One function or method with its resolved parameter list."""

    __slots__ = ("qname", "module", "node", "class_info", "params",
                 "has_varargs")

    def __init__(self, qname, module, node, class_info=None):
        self.qname = qname
        self.module = module
        self.node = node
        self.class_info = class_info  # ClassInfo for methods, else None
        args = node.args
        self.params = (
            [a.arg for a in args.posonlyargs]
            + [a.arg for a in args.args]
            + [a.arg for a in args.kwonlyargs]
        )
        self.has_varargs = args.vararg is not None or args.kwarg is not None

    @property
    def name(self):
        return self.node.name

    @property
    def is_method(self):
        return self.class_info is not None

    def param_index(self, name):
        """Index of parameter ``name``, or None."""
        try:
            return self.params.index(name)
        except ValueError:
            return None

    def __repr__(self):
        return f"FunctionInfo({self.qname!r})"


class ClassInfo:
    """One class: its methods, base names, and inferred attribute types."""

    __slots__ = ("qname", "module", "node", "bases", "methods",
                 "attr_types", "lock_attrs", "sync_attrs", "fields")

    def __init__(self, qname, module, node):
        self.qname = qname
        self.module = module
        self.node = node
        self.bases = [_base_name(b) for b in node.bases]
        self.methods = {}     # bare name → FunctionInfo
        self.attr_types = {}  # self.<attr> → set of class qnames
        self.lock_attrs = set()  # self.<attr> holding a threading lock
        self.sync_attrs = set()  # self-synchronized: Queue, threading.local
        #: a ``@dataclass``'s fields in ``__init__`` order, else empty
        self.fields = _dataclass_fields(node)

    @property
    def name(self):
        return self.node.name

    def __repr__(self):
        return f"ClassInfo({self.qname!r})"


class Program:
    """The whole analyzed tree, indexed for name resolution."""

    def __init__(self, root):
        self.root = Path(root)
        self.modules = {}           # dotted name → ModuleInfo
        self.functions = {}         # qname → FunctionInfo
        self.classes = {}           # qname → ClassInfo
        self.methods_by_name = {}   # bare method name → [FunctionInfo]
        self.functions_by_name = {}  # bare module-level name → [FunctionInfo]
        self.classes_by_name = {}   # bare class name → [ClassInfo]
        #: module-level instances: dotted name → class qname
        #: ("repro.telemetry.events.NOOP_EVENTS" → "....NoopEventLog")
        self.global_instances = {}

    def in_tree(self, dotted):
        """Whether ``dotted`` is an analyzed module or lies inside one."""
        parts = dotted.split(".")
        return any(".".join(parts[:end]) in self.modules
                   for end in range(1, len(parts) + 1))

    def class_named(self, bare_name):
        """All classes named ``bare_name`` across the program."""
        return self.classes_by_name.get(bare_name, [])

    def resolve_class(self, class_info, bare_name):
        """A base-class lookup: prefer same module, fall back program-wide."""
        same_module = [
            c for c in self.class_named(bare_name)
            if c.module is class_info.module
        ]
        candidates = same_module or self.class_named(bare_name)
        return candidates[0] if candidates else None

    def method_of(self, class_info, name, _seen=None):
        """Method ``name`` on ``class_info`` or (by name) its bases."""
        seen = _seen if _seen is not None else set()
        if class_info.qname in seen:
            return None
        seen.add(class_info.qname)
        method = class_info.methods.get(name)
        if method is not None:
            return method
        for base_name in class_info.bases:
            base = self.resolve_class(class_info, base_name)
            if base is not None:
                method = self.method_of(base, name, seen)
                if method is not None:
                    return method
        return None

    def __repr__(self):
        return (f"Program({self.root}, modules={len(self.modules)}, "
                f"functions={len(self.functions)})")


def load_program(paths):
    """Parse every ``.py`` file under ``paths`` into a :class:`Program`."""
    files = iter_python_files(
        paths if isinstance(paths, (list, tuple)) else [paths]
    )
    if not files:
        raise ReproError(f"no python files under {paths!r}")
    program = Program(files[0].parent)
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        name = module_name_for(path) or path.stem
        module = ModuleInfo(name, path, tree, source.splitlines())
        program.modules[name] = module
        _index_module(program, module)
    _infer_attr_types(program)
    return program


# -- indexing ------------------------------------------------------------


def _index_module(program, module):
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(f"{module.name}.{node.name}", module, node)
            program.functions[info.qname] = info
            program.functions_by_name.setdefault(node.name, []).append(info)
        elif isinstance(node, ast.ClassDef):
            _index_class(program, module, node)
        elif isinstance(node, ast.Assign):
            _index_global_instance(program, module, node)


def _index_class(program, module, node):
    class_info = ClassInfo(f"{module.name}.{node.name}", module, node)
    program.classes[class_info.qname] = class_info
    program.classes_by_name.setdefault(node.name, []).append(class_info)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                f"{class_info.qname}.{item.name}", module, item, class_info
            )
            class_info.methods[item.name] = info
            program.functions[info.qname] = info
            program.methods_by_name.setdefault(item.name, []).append(info)


def _dataclass_fields(node):
    """Annotated class-body names of a ``@dataclass`` class, in order."""
    if not any(_base_name(getattr(d, "func", d)) == "dataclass"
               for d in node.decorator_list):
        return ()
    return tuple(item.target.id for item in node.body
                 if isinstance(item, ast.AnnAssign)
                 and isinstance(item.target, ast.Name))


def _index_global_instance(program, module, node):
    """Record ``NAME = ClassName(...)`` module-level singletons."""
    if not isinstance(node.value, ast.Call):
        return
    func = node.value.func
    if not isinstance(func, ast.Name):
        return
    for target in node.targets:
        if isinstance(target, ast.Name):
            program.global_instances[f"{module.name}.{target.id}"] = func.id


_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore"}

#: Constructors whose instances synchronize themselves: mutating through
#: them needs no class-owned lock (``queue.Queue`` locks internally;
#: ``threading.local`` is per-thread by construction).
_SELF_SYNC_FACTORIES = {"Queue", "SimpleQueue", "LifoQueue",
                        "PriorityQueue", "local"}


def _infer_attr_types(program):
    """Fill each class's ``attr_types`` and ``lock_attrs``.

    Scans every method for ``self.<attr> = <expr>`` where the expression
    is a recognizable constructor call, a module-level singleton, or a
    parameter annotated by a same-named class — enough typing for the
    call-graph builder to resolve ``self._journal.append(...)`` to
    :class:`AuditJournal` rather than ``list``.
    """
    for class_info in program.classes.values():
        for method in class_info.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    type_name = _constructed_class(program, class_info,
                                                   node.value)
                    if type_name is not None:
                        class_info.attr_types.setdefault(attr, set()).add(
                            type_name
                        )
                    if _is_lock_factory(node.value):
                        class_info.lock_attrs.add(attr)
                    if _is_factory_of(node.value, _SELF_SYNC_FACTORIES):
                        class_info.sync_attrs.add(attr)


def _constructed_class(program, class_info, value):
    """The class qname ``value`` constructs/aliases, or None."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        resolved = _resolve_class_name(program, class_info.module,
                                       value.func.id)
        if resolved is not None:
            return resolved.qname
    if isinstance(value, ast.Name):
        dotted = class_info.module.imports.get(value.id)
        if dotted is None:
            dotted = f"{class_info.module.name}.{value.id}"
        bare = program.global_instances.get(dotted)
        if bare is not None:
            resolved = _resolve_class_name(program, class_info.module, bare)
            if resolved is not None:
                return resolved.qname
    return None


def _resolve_class_name(program, module, bare_name):
    """A class by bare name: imports first, same module, then program-wide."""
    dotted = module.imports.get(bare_name)
    if dotted is not None and dotted in program.classes:
        return program.classes[dotted]
    local = f"{module.name}.{bare_name}"
    if local in program.classes:
        return program.classes[local]
    candidates = program.class_named(bare_name)
    return candidates[0] if len(candidates) == 1 else None


def _is_lock_factory(value):
    return _is_factory_of(value, _LOCK_FACTORIES)


def _is_factory_of(value, factory_names):
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    return name in factory_names


def _self_attr(node):
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _base_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _import_map(tree):
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is None:
                continue
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return imports
