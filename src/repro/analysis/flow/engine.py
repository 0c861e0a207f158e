"""The interprocedural, flow-sensitive taint engine (REP010).

The analysis runs in three phases over the :class:`~repro.analysis.flow.
loader.Program`:

**Phase A — symbolic summaries (fixpoint).**  Every function is
interpreted abstractly, statement by statement, with a taint environment
mapping local names to *tag sets*.  Tags are symbolic: ``src:<label>``
(the value derives from a cataloged confidential source), ``param:<i>``
(it derives from the function's i-th parameter), or ``attr:<Class.attr>``
(it derives from an instance attribute).  Calls substitute the callee's
current return summary — ``param:i`` tags become the taint of the actual
argument at this call site, which is what makes the analysis
context-sensitive for returns.  Unknown callees conservatively propagate
the union of their argument taints; cataloged sanitizers return clean;
cataloged sources return ``src:`` tags.  The pass records, per function,
its return summary, every attribute store, every resolved call edge with
per-argument tags, and every sink reached with per-argument tags.
Summaries grow monotonically in a finite lattice, so iterating to a
fixpoint terminates.

**Phase B — concrete hotness (fixpoint).**  A tag set is *hot* in the
context of function ``f`` when it contains a ``src:`` tag, a ``param:i``
tag with ``f``'s parameter ``i`` known to receive confidential data from
some call site, or an ``attr:`` tag whose attribute some method stores
confidential data into.  Starting from sources, hotness propagates
along the recorded call edges and attribute stores until stable — the
interprocedural step that lets taint entering ``SnooperWatch.note_cell``
surface at a sink three classes away.

**Phase C — findings.**  Every recorded sink whose argument tags
concretize hot yields a REP010 finding at the sink's source line,
naming the sink kind and the confidential origin.  ``raise`` statements
are structural sinks: an exception message built from a hot value is a
disclosure, because refusal messages travel back to the requester and
into the event log.

The engine is deliberately *whole-program but modest*: no aliasing, no
container element sensitivity (a tainted element taints the container),
objects constructed from tainted arguments are tainted wholesale (so an
attribute read off one is tainted; only a ``@dataclass``'s own methods
read each field's taint alone, since its constructor call stores each
argument in its field).  Those over-approximations cost a
handful of justified suppressions in the tree and buy the property the
differential test pins: no false negatives on live paths.
"""

from __future__ import annotations

import ast

from repro.analysis.flow.catalog import DEFAULT_CATALOG
from repro.analysis.flow.loader import load_program
from repro.analysis.lint.core import Finding

EMPTY = frozenset()

#: Builtins that transform but do not launder their arguments.
_PROPAGATING_BUILTINS = {
    "str", "repr", "format", "float", "int", "bool", "list", "tuple",
    "dict", "set", "frozenset", "sorted", "reversed", "min", "max", "abs",
    "round", "zip", "enumerate", "next", "iter", "map", "filter", "vars",
    "getattr", "print",
}

#: Builtins whose result reveals only size/shape — aggregation per the
#: catalog (len/sum are also declared there; this set is the fallback
#: when the catalog is customized).
_CLEANING_BUILTINS = {"len", "id", "hash", "isinstance", "issubclass",
                      "callable", "type", "range"}


def _tag_src(label):
    return f"src:{label}"


def _tag_param(index):
    return f"param:{index}"


def _tag_attr(class_qname, attr):
    return f"attr:{class_qname}.{attr}"


class CallRecord:
    """One resolved call edge: which tags flow into which callee params."""

    __slots__ = ("callee", "arg_tags")

    def __init__(self, callee, arg_tags):
        self.callee = callee        # qname
        self.arg_tags = arg_tags    # param index → frozenset of tags


class StoreRecord:
    """One ``self.<attr> = value`` (or mutation) with the value's tags."""

    __slots__ = ("class_qname", "attr", "tags")

    def __init__(self, class_qname, attr, tags):
        self.class_qname = class_qname
        self.attr = attr
        self.tags = tags


class SinkRecord:
    """One call (or raise) into a cataloged sink, with argument tags."""

    __slots__ = ("kind", "description", "node", "arg_tags", "arg_names",
                 "event_name", "callee")

    def __init__(self, kind, description, node, arg_tags, arg_names,
                 event_name=None, callee=None):
        self.kind = kind
        self.description = description
        self.node = node
        self.arg_tags = arg_tags    # list of frozensets, call order
        self.arg_names = arg_names  # printable arg descriptions
        self.event_name = event_name  # literal first arg, when a string
        self.callee = callee


class FunctionFacts:
    """Everything phase A learned about one function."""

    __slots__ = ("returns", "calls", "stores", "sinks", "_sink_nodes")

    def __init__(self):
        self.returns = EMPTY
        self.calls = []
        self.stores = []
        self.sinks = []
        self._sink_nodes = {}  # id(ast node) → index into sinks

    def record_sink(self, record):
        """Add or replace the sink record for one call site.

        Loop bodies are interpreted twice (to pick up loop-carried
        taint), so the same AST call node can be visited again with
        richer tags — the later visit *replaces* the earlier record
        rather than duplicating the site.
        """
        index = self._sink_nodes.get(id(record.node))
        if index is None:
            self._sink_nodes[id(record.node)] = len(self.sinks)
            self.sinks.append(record)
        else:
            self.sinks[index] = record


class FlowAnalysis:
    """The analysis result: findings plus the static sink inventory."""

    def __init__(self, program, catalog):
        self.program = program
        self.catalog = catalog
        self.facts = {}        # qname → FunctionFacts
        self.hot_params = {}   # qname → {param index → set of labels}
        self.hot_attrs = {}    # "Class.attr" tag suffix → set of labels
        self.findings = []
        self.iterations = 0

    # -- inventory (consumed by the differential test and the docs) --------

    def sink_inventory(self):
        """Every statically known sink site, as comparable dicts."""
        inventory = []
        for qname, facts in sorted(self.facts.items()):
            for sink in facts.sinks:
                inventory.append({
                    "function": qname,
                    "kind": sink.kind,
                    "line": sink.node.lineno,
                    "event_name": sink.event_name,
                })
        return inventory

    def event_names(self):
        """Every event name emitted through a *literal* first argument."""
        return sorted({
            sink.event_name
            for facts in self.facts.values()
            for sink in facts.sinks
            if sink.kind == "event" and sink.event_name
        })


def analyze_flows(paths_or_program, catalog=DEFAULT_CATALOG,
                  max_iterations=12):
    """Run the whole-program taint analysis; returns :class:`FlowAnalysis`.

    ``paths_or_program`` is a path list (loaded fresh) or an
    already-loaded :class:`~repro.analysis.flow.loader.Program` (shared
    with the lockset pass to parse the tree once).
    """
    program = (
        paths_or_program
        if hasattr(paths_or_program, "modules")
        else load_program(paths_or_program)
    )
    analysis = FlowAnalysis(program, catalog)

    # Phase A: symbolic summaries to fixpoint.
    returns = {qname: EMPTY for qname in program.functions}
    for iteration in range(max_iterations):
        changed = False
        for qname, function in program.functions.items():
            interp = _Interpreter(program, catalog, function, returns)
            facts = interp.run()
            analysis.facts[qname] = facts
            if facts.returns != returns[qname]:
                returns[qname] = facts.returns
                changed = True
        analysis.iterations = iteration + 1
        if not changed:
            break

    # Phase B: concrete hotness to fixpoint.
    hot_params = {qname: {} for qname in program.functions}
    hot_attrs = {}
    for _ in range(max_iterations):
        changed = False
        for qname, facts in analysis.facts.items():
            context = _HotContext(qname, hot_params, hot_attrs)
            for store in facts.stores:
                labels = context.concretize(store.tags)
                if labels:
                    key = f"{store.class_qname}.{store.attr}"
                    known = hot_attrs.setdefault(key, set())
                    if not labels <= known:
                        known |= labels
                        changed = True
            for call in facts.calls:
                callee_hot = hot_params.setdefault(call.callee, {})
                for index, tags in call.arg_tags.items():
                    labels = context.concretize(tags)
                    if labels:
                        known = callee_hot.setdefault(index, set())
                        if not labels <= known:
                            known |= labels
                            changed = True
        if not changed:
            break
    analysis.hot_params = hot_params
    analysis.hot_attrs = hot_attrs

    # Phase C: findings at hot sinks.
    for qname, facts in sorted(analysis.facts.items()):
        function = program.functions[qname]
        context = _HotContext(qname, hot_params, hot_attrs)
        for sink in facts.sinks:
            hot_args = []
            labels = set()
            for arg_name, tags in zip(sink.arg_names, sink.arg_tags):
                arg_labels = context.concretize(tags)
                if arg_labels:
                    hot_args.append(arg_name)
                    labels |= arg_labels
            if not hot_args:
                continue
            origin = "; ".join(sorted(labels))
            where = f" {sink.event_name!r}" if sink.event_name else ""
            analysis.findings.append(Finding(
                "REP010",
                f"confidential value ({origin}) reaches {sink.kind} "
                f"sink{where} via {', '.join(hot_args)} in {qname} — "
                "sanitize (repro.telemetry.redact digest/bucket, "
                "aggregation, generalization) or suppress with a written "
                "justification",
                function.module.path,
                sink.node.lineno,
                getattr(sink.node, "col_offset", 0),
            ))
    analysis.findings.sort(
        key=lambda f: (str(f.path), f.line, f.col, f.message)
    )
    return analysis


class _HotContext:
    """Concretizes symbolic tags inside one function's context."""

    __slots__ = ("qname", "hot_params", "hot_attrs")

    def __init__(self, qname, hot_params, hot_attrs):
        self.qname = qname
        self.hot_params = hot_params.get(qname, {})
        self.hot_attrs = hot_attrs

    def concretize(self, tags):
        """The set of confidential labels ``tags`` denotes here."""
        labels = set()
        for tag in tags:
            if tag.startswith("src:"):
                labels.add(tag[4:])
            elif tag.startswith("param:"):
                labels |= self.hot_params.get(int(tag[6:]), set())
            elif tag.startswith("attr:"):
                labels |= self.hot_attrs.get(tag[5:], set())
        return labels


class _Interpreter:
    """Abstractly interprets one function body, collecting facts."""

    def __init__(self, program, catalog, function, returns):
        self.program = program
        self.catalog = catalog
        self.function = function
        self.module = function.module
        self.returns = returns  # qname → current return summary
        self.facts = FunctionFacts()
        self.env = {}

    def run(self):
        for index, name in enumerate(self.function.params):
            self.env[name] = frozenset({_tag_param(index)})
        self._exec_body(self.function.node.body)
        return self.facts

    # -- statements ---------------------------------------------------------

    def _exec_body(self, body):
        for stmt in body:
            self._exec(stmt)

    def _exec(self, node):
        method = getattr(self, f"_exec_{type(node).__name__}", None)
        if method is not None:
            method(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested definitions analyzed via their own entries
        # default: evaluate embedded expressions for their side effects
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
            elif isinstance(child, ast.stmt):
                self._exec(child)

    def _exec_Expr(self, node):
        self._eval(node.value)

    def _exec_Assign(self, node):
        tags = self._eval(node.value)
        for target in node.targets:
            self._assign(target, tags)

    def _exec_AnnAssign(self, node):
        tags = self._eval(node.value) if node.value is not None else EMPTY
        self._assign(node.target, tags)

    def _exec_AugAssign(self, node):
        tags = self._eval(node.value) | self._eval_target_read(node.target)
        self._assign(node.target, tags)

    def _exec_Return(self, node):
        if node.value is not None:
            self.facts.returns = self.facts.returns | self._eval(node.value)

    def _exec_If(self, node):
        self._eval(node.test)
        before = dict(self.env)
        self._exec_body(node.body)
        branch_env = self.env
        self.env = before
        self._exec_body(node.orelse)
        self._join(branch_env)

    def _exec_For(self, node):
        iter_tags = self._eval(node.iter)
        self._assign(node.target, iter_tags)
        # two passes pick up loop-carried taint
        for _ in range(2):
            self._exec_body(node.body)
        self._exec_body(node.orelse)

    _exec_AsyncFor = _exec_For

    def _exec_While(self, node):
        self._eval(node.test)
        for _ in range(2):
            self._exec_body(node.body)
        self._exec_body(node.orelse)

    def _exec_With(self, node):
        for item in node.items:
            tags = self._eval(item.context_expr)
            if item.optional_vars is not None:
                self._assign(item.optional_vars, tags)
        self._exec_body(node.body)

    _exec_AsyncWith = _exec_With

    def _exec_Try(self, node):
        self._exec_body(node.body)
        for handler in node.handlers:
            if handler.name:
                self.env[handler.name] = EMPTY  # exception objects: opaque
            self._exec_body(handler.body)
        self._exec_body(node.orelse)
        self._exec_body(node.finalbody)

    _exec_TryStar = _exec_Try

    def _exec_Raise(self, node):
        if node.exc is None:
            return
        tags = self._eval(node.exc)
        if not isinstance(node.exc, ast.Call):
            return
        arg_tags, arg_names = [], []
        for arg in node.exc.args:
            arg_tags.append(self._eval(arg))
            arg_names.append(_describe(arg))
        for keyword in node.exc.keywords:
            arg_tags.append(self._eval(keyword.value))
            arg_names.append(keyword.arg or "**kwargs")
        if any(arg_tags):
            self.facts.record_sink(SinkRecord(
                self.catalog.exception_sink,
                "exception message construction",
                node, arg_tags, arg_names,
                callee=_describe(node.exc.func),
            ))
        del tags

    def _exec_Delete(self, node):
        pass

    def _exec_Global(self, node):
        pass

    _exec_Nonlocal = _exec_Global
    _exec_Pass = _exec_Global
    _exec_Break = _exec_Global
    _exec_Continue = _exec_Global
    _exec_Import = _exec_Global
    _exec_ImportFrom = _exec_Global

    def _exec_Assert(self, node):
        self._eval(node.test)
        if node.msg is not None:
            self._eval(node.msg)

    # -- assignment targets ---------------------------------------------------

    def _assign(self, target, tags):
        if isinstance(target, ast.Name):
            self.env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, tags)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tags)
        elif isinstance(target, ast.Attribute):
            self._store_attribute(target, tags)
        elif isinstance(target, ast.Subscript):
            # storing into a container taints the container
            self._taint_lvalue_base(target.value, tags)

    def _store_attribute(self, target, tags):
        base = target.value
        if isinstance(base, ast.Name) and base.id == "self" \
                and self.function.class_info is not None:
            if tags:
                self.facts.stores.append(StoreRecord(
                    self.function.class_info.qname, target.attr, tags
                ))
            self.env[f"self.{target.attr}"] = tags
        else:
            self._taint_lvalue_base(base, tags)

    def _taint_lvalue_base(self, base, tags):
        if not tags:
            return
        if isinstance(base, ast.Name):
            self.env[base.id] = self.env.get(base.id, EMPTY) | tags
        elif isinstance(base, ast.Attribute):
            self._store_attribute(
                base, self._eval(base) | tags
            ) if False else None
            # attribute container mutation: taint the attribute itself
            inner = base.value
            if isinstance(inner, ast.Name) and inner.id == "self" \
                    and self.function.class_info is not None:
                self.facts.stores.append(StoreRecord(
                    self.function.class_info.qname, base.attr, tags
                ))
            elif isinstance(inner, ast.Name):
                self.env[inner.id] = self.env.get(inner.id, EMPTY) | tags

    def _eval_target_read(self, target):
        if isinstance(target, (ast.Name, ast.Attribute, ast.Subscript)):
            return self._eval(target)
        return EMPTY

    def _join(self, other_env):
        for name, tags in other_env.items():
            self.env[name] = self.env.get(name, EMPTY) | tags

    # -- expressions ----------------------------------------------------------

    def _eval(self, node):
        if node is None:
            return EMPTY
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # default: union over child expressions
        tags = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                tags |= self._eval(child)
            elif isinstance(child, (ast.comprehension,)):
                tags |= self._eval(child.iter)
        return tags

    def _eval_Constant(self, node):
        return EMPTY

    def _eval_Name(self, node):
        return self.env.get(node.id, EMPTY)

    def _eval_Attribute(self, node):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "self":
            cached = self.env.get(f"self.{node.attr}")
            if cached is not None:
                return cached
            if self.function.class_info is not None:
                return frozenset({
                    _tag_attr(self.function.class_info.qname, node.attr)
                })
        return self._eval(base)

    def _eval_Subscript(self, node):
        return self._eval(node.value) | self._eval(node.slice)

    def _eval_BinOp(self, node):
        return self._eval(node.left) | self._eval(node.right)

    def _eval_BoolOp(self, node):
        tags = EMPTY
        for value in node.values:
            tags |= self._eval(value)
        return tags

    def _eval_UnaryOp(self, node):
        return self._eval(node.operand)

    def _eval_Compare(self, node):
        tags = self._eval(node.left)
        for comparator in node.comparators:
            tags |= self._eval(comparator)
        return tags

    def _eval_IfExp(self, node):
        self._eval(node.test)
        return self._eval(node.body) | self._eval(node.orelse)

    def _eval_JoinedStr(self, node):
        tags = EMPTY
        for value in node.values:
            tags |= self._eval(value)
        return tags

    def _eval_FormattedValue(self, node):
        return self._eval(node.value)

    def _eval_Lambda(self, node):
        return EMPTY  # a lambda value itself carries no data taint

    def _eval_Await(self, node):
        return self._eval(node.value)

    def _eval_Starred(self, node):
        return self._eval(node.value)

    def _eval_NamedExpr(self, node):
        tags = self._eval(node.value)
        self._assign(node.target, tags)
        return tags

    def _eval_Dict(self, node):
        tags = EMPTY
        for key in node.keys:
            tags |= self._eval(key)
        for value in node.values:
            tags |= self._eval(value)
        return tags

    def _eval_List(self, node):
        tags = EMPTY
        for element in node.elts:
            tags |= self._eval(element)
        return tags

    _eval_Tuple = _eval_List
    _eval_Set = _eval_List

    def _eval_comprehension_node(self, node):
        tags = EMPTY
        for generator in node.generators:
            iter_tags = self._eval(generator.iter)
            self._assign(generator.target, iter_tags)
            tags |= iter_tags
            for condition in generator.ifs:
                self._eval(condition)
        return tags

    def _eval_ListComp(self, node):
        tags = self._eval_comprehension_node(node)
        return tags | self._eval(node.elt)

    _eval_SetComp = _eval_ListComp
    _eval_GeneratorExp = _eval_ListComp

    def _eval_DictComp(self, node):
        tags = self._eval_comprehension_node(node)
        return tags | self._eval(node.key) | self._eval(node.value)

    def _eval_Yield(self, node):
        if node.value is not None:
            tags = self._eval(node.value)
            self.facts.returns = self.facts.returns | tags
        return EMPTY

    def _eval_YieldFrom(self, node):
        tags = self._eval(node.value)
        self.facts.returns = self.facts.returns | tags
        return tags

    # -- calls ------------------------------------------------------------

    def _eval_Call(self, node):
        arg_tags = [self._eval(arg) for arg in node.args]
        kw_tags = {
            keyword.arg: self._eval(keyword.value)
            for keyword in node.keywords
        }
        all_arg_tags = EMPTY
        for tags in arg_tags:
            all_arg_tags |= tags
        for tags in kw_tags.values():
            all_arg_tags |= tags

        names, speculative, receiver_tags, receiver_text = (
            self._resolve(node.func)
        )

        # Mapping-key refinement: `.keys()` on a dict-like receiver
        # yields *identifiers* (column names, source names — the tree
        # keys rows and loss maps by schema metadata), not payload.
        # Without this, `Table.from_dicts(rows)` taints every column
        # name and, transitively, every schema-validation exception.
        # A mapping keyed by cell values would be hidden from this
        # analysis — see the caveat in docs/static_analysis.md.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys" \
                and not node.args and not node.keywords \
                and not self._candidates(names):
            return EMPTY

        # catalog checks come first — against *confident* names only
        # (receiver-typed methods, dotted imports, `*.attr` fallbacks);
        # speculative bare-name candidates would turn every list.append
        # into a journal write.  A sanitizer call launders its args.
        if self.catalog.is_sanitizer(names):
            return EMPTY
        label = self.catalog.source_label(names)
        if label is not None:
            return frozenset({_tag_src(label)}) | receiver_tags

        sink = self.catalog.sink_for(names, receiver_text)
        if sink is not None:
            record_tags = list(arg_tags) + list(kw_tags.values())
            record_names = (
                [_describe(arg) for arg in node.args]
                + [keyword.arg or "**kwargs" for keyword in node.keywords]
            )
            event_name = None
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                event_name = node.args[0].value
            self.facts.record_sink(SinkRecord(
                sink.kind, sink.description, node, record_tags,
                record_names, event_name=event_name,
                callee=receiver_text or (names[0] if names else None),
            ))

        dataclass = self._dataclass_constructed(node.func, names)
        if dataclass is not None:
            # the generated __init__ stores each argument in its field,
            # so ``self.<field>`` reads in the class's methods see it;
            # ``*args``/``**kwargs`` may fill any field
            fields = dataclass.fields
            stored = list(zip(fields, arg_tags)) + list(kw_tags.items())
            if None in kw_tags or any(isinstance(arg, ast.Starred)
                                      for arg in node.args):
                stored = [(field, all_arg_tags) for field in fields]
            self.facts.stores.extend(
                StoreRecord(dataclass.qname, field, tags)
                for field, tags in stored if tags and field in fields
            )

        # resolved in-tree callees: record edges and substitute summaries
        candidates = self._candidates(names + speculative)
        if candidates:
            result = EMPTY
            for callee in candidates:
                mapped = self._map_args(
                    callee, arg_tags, kw_tags, receiver_tags, node
                )
                if mapped:
                    self.facts.calls.append(CallRecord(callee.qname, mapped))
                summary = self.returns.get(callee.qname, EMPTY)
                result |= _substitute(summary, mapped)
            if self._is_constructor_call(node.func, names):
                result |= all_arg_tags  # the object carries its field taint
            return result | receiver_tags

        # builtins
        if isinstance(node.func, ast.Name):
            if node.func.id in _CLEANING_BUILTINS:
                return EMPTY
            if node.func.id in _PROPAGATING_BUILTINS:
                return all_arg_tags
        # unknown callee: conservatively propagate everything visible
        return all_arg_tags | receiver_tags

    def _dataclass_constructed(self, func, names):
        """The dataclass a call constructs (``cls(...)`` included), if any."""
        if isinstance(func, ast.Name) and func.id == "cls":
            found = [self.function.class_info]
        else:
            found = [self.program.classes.get(name) for name in names]
        return next((info for info in found if info and info.fields), None)

    def _is_constructor_call(self, func, names):
        return any(name in self.program.classes for name in names if name)

    def _candidates(self, names):
        """FunctionInfos the resolved names denote (ctor → ``__init__``)."""
        found = []
        for name in names:
            if name is None:
                continue
            if name in self.program.functions:
                found.append(self.program.functions[name])
            elif name in self.program.classes:
                class_info = self.program.classes[name]
                init = self.program.method_of(class_info, "__init__")
                if init is not None:
                    found.append(init)
        return found

    def _map_args(self, callee, arg_tags, kw_tags, receiver_tags, node):
        """Map call-site taint onto the callee's parameter indexes."""
        mapped = {}
        offset = 0
        if callee.is_method and callee.params \
                and callee.params[0] in ("self", "cls"):
            offset = 1
            if receiver_tags:
                mapped[0] = receiver_tags
        for position, tags in enumerate(arg_tags):
            if not tags:
                continue
            index = position + offset
            if index < len(callee.params):
                mapped[index] = mapped.get(index, EMPTY) | tags
            elif callee.has_varargs and callee.params:
                last = len(callee.params) - 1
                mapped[last] = mapped.get(last, EMPTY) | tags
        for name, tags in kw_tags.items():
            if not tags:
                continue
            if name is None:  # **kwargs at the call site: smear
                for index in range(offset, len(callee.params)):
                    mapped[index] = mapped.get(index, EMPTY) | tags
                continue
            index = callee.param_index(name)
            if index is not None:
                mapped[index] = mapped.get(index, EMPTY) | tags
            elif callee.has_varargs and callee.params:
                last = len(callee.params) - 1
                mapped[last] = mapped.get(last, EMPTY) | tags
        return mapped

    # -- name resolution ----------------------------------------------------

    def _resolve(self, func):
        """Resolve a call target to qualified-name candidates.

        Returns ``(names, speculative, receiver_tags, receiver_text)``.
        ``names`` are *confident*: the bare/dotted name, receiver-typed
        method qnames, and the ``*.attr`` fallback — safe to match
        against the catalog.  ``speculative`` are program-wide bare-name
        guesses for an unresolved receiver — used only to propagate
        summaries and call edges, never for source/sanitizer/sink
        classification (a guess that ``x.append`` might be the journal's
        ``append`` must not make every list a sink).
        """
        if isinstance(func, ast.Name):
            name = func.id
            dotted = self.module.imports.get(name)
            names = [name]
            if dotted is not None:
                names.append(dotted)
            local = f"{self.module.name}.{name}"
            if local in self.program.functions \
                    or local in self.program.classes:
                names.append(local)
            speculative = []
            if dotted is None and local not in self.program.functions \
                    and local not in self.program.classes:
                # unique program-wide match by bare name (helps fixtures)
                functions = self.program.functions_by_name.get(name, [])
                classes = self.program.class_named(name)
                if len(functions) == 1 and not classes:
                    speculative.append(functions[0].qname)
                elif len(classes) == 1 and not functions:
                    speculative.append(classes[0].qname)
            return names, speculative, EMPTY, name

        if isinstance(func, ast.Attribute):
            receiver_text = _describe(func.value)
            receiver_tags = self._eval(func.value)
            names = [f"*.{func.attr}"]
            receiver_types = self._receiver_types(func.value)
            for class_info in receiver_types:
                method = self.program.method_of(class_info, func.attr)
                if method is not None:
                    names.append(method.qname)
            # module attribute: repro.telemetry.redact.digest
            dotted = self._dotted_module_target(func)
            if dotted is not None:
                names.append(dotted)
            speculative = []
            if len(receiver_types) == 0 and (
                    dotted is None or self.program.in_tree(dotted)):
                # unresolved receiver: propagate taint through the
                # program-wide method index only when the bare name is
                # unambiguous — one definition program-wide.  A call on
                # an imported out-of-tree module (``copy.copy``) is
                # resolved by its import and gets no in-tree guess.
                candidates = self.program.methods_by_name.get(func.attr, [])
                if len(candidates) == 1:
                    speculative.append(candidates[0].qname)
            return names, speculative, receiver_tags, receiver_text

        # calls on arbitrary expressions: evaluate for taint only
        return [], [], self._eval(func), None

    def _receiver_types(self, expr):
        """ClassInfos the receiver expression may denote."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.function.class_info is not None:
                return [self.function.class_info]
            dotted = self.module.imports.get(expr.id)
            if dotted is not None:
                bare = self.program.global_instances.get(dotted)
                if bare is not None:
                    return self.program.class_named(bare)
            return []
        if isinstance(expr, ast.Attribute):
            base_types = self._receiver_types(expr.value)
            found = []
            for base in base_types:
                for qname in base.attr_types.get(expr.attr, ()):
                    class_info = self.program.classes.get(qname)
                    if class_info is not None:
                        found.append(class_info)
            return found
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            dotted = self.module.imports.get(expr.func.id)
            for candidate in (dotted,
                              f"{self.module.name}.{expr.func.id}"):
                if candidate in self.program.classes:
                    return [self.program.classes[candidate]]
        return []

    def _dotted_module_target(self, func):
        """``redact.digest`` → ``repro.telemetry.redact.digest``."""
        parts = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        dotted = self.module.imports.get(node.id)
        if dotted is None:
            return None
        return ".".join([dotted] + list(reversed(parts)))


def _substitute(summary_tags, mapped_args):
    """Instantiate a callee's return summary at one call site."""
    result = EMPTY
    for tag in summary_tags:
        if tag.startswith("param:"):
            result |= mapped_args.get(int(tag[6:]), EMPTY)
        else:
            result = result | {tag}
    return frozenset(result)


def _describe(node):
    """A short printable form of an argument expression."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"
    return text if len(text) <= 48 else text[:45] + "..."
