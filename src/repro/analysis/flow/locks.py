"""Whole-program lockset analysis (REP011) and the shared-state map.

A check of one method at a time cannot tell that a private helper is
only ever invoked with the owner's lock already held, and it cannot see
that two methods guard the *same* attribute with *different* locks.
This pass resolves both over the whole program:

1. **Lock discovery.**  A class that assigns ``threading.Lock()`` (or
   RLock/Condition/Semaphore) to an attribute is a *lock-owning* class —
   the author's own declaration that its instances are shared across
   threads.

2. **Per-method lockset simulation.**  Every method body is walked with
   the set of class locks currently held (``with self._lock:`` blocks,
   paired ``acquire()``/``release()`` calls).  Each mutation of a
   ``self.<attr>`` (assignment, augmented assignment, ``self.attr[k] =``
   stores, mutator-method calls like ``append``/``popitem``, and
   mutations of nested state such as ``self.stats.hits += 1``) is
   recorded with the lockset in force, as is every intra-class call with
   the lockset at the call site.  So is a mutation of *another* object's
   attribute (``batch.backlog.clear()``) when the receiver's class
   resolves: a local name whose attributes, as the method uses them,
   only one class in the program declares.  That class is recorded as
   guarded by the mutating class's lock (``_Workers._lock``), and only
   its attributes mutated under such a lock at least once count as
   shared.

3. **Caller-held-lock credit (fixpoint).**  A private method's *entry
   lockset* is the intersection, over every recorded in-class call, of
   the caller's entry lockset union the lockset at the call site — a
   must-analysis: a lock is credited only when **every** path in holds
   it.  Public methods (and private methods with no recorded callers)
   enter with the empty lockset, since anyone may call them.  The
   effective guard of a mutation is the site lockset union the entry
   lockset, which is what lets ``LRUCache.put``'s eviction loop call a
   helper that mutates ``self._entries`` without a false positive.

4. **Thread contexts.**  ``threading.Thread(target=...)`` constructions
   and ``pool.submit(fn, ...)`` calls name the program's worker entry
   points; a breadth-first walk over the resolved call graph marks every
   function reachable from each.  The shared-state map labels each
   mutation site with the contexts that can execute it (``main`` plus
   any worker entries), which is exactly the evidence the sharding work
   needs to decide what state can stay shard-local.

Findings are REP011 — a mutation whose effective lockset contains no
lock of the owning class, or an attribute guarded by one lock here and a
different lock there.  ``__init__`` is exempt (construction
happens-before sharing).  :meth:`LockAnalysis.shared_state_map` renders
the full inventory — every lock-guarded mutable, its guarding lock, its
mutation sites, its thread contexts — as the JSON artifact
``shared_state_map.json`` the sharded-mediator PR consumes as its
partitioning spec.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.flow.loader import load_program
from repro.analysis.lint.core import Finding

#: Mutator method names that change their receiver in place.
_MUTATORS = {"append", "extend", "add", "update", "pop", "popitem",
             "remove", "discard", "clear", "insert", "appendleft",
             "popleft", "setdefault", "move_to_end", "put", "put_nowait"}

_EMPTY = frozenset()


class MutationSite:
    """One write to shared instance state, with the locks held there."""

    __slots__ = ("class_qname", "attr", "method_qname", "owner", "line",
                 "col", "locks_held", "effective", "kind")

    def __init__(self, class_qname, attr, method_qname, owner, line, col,
                 locks_held, kind):
        self.class_qname = class_qname
        self.attr = attr
        self.method_qname = method_qname
        self.owner = owner              # class whose locks the sets name
        self.line = line
        self.col = col
        self.locks_held = locks_held    # locks held syntactically at site
        self.effective = locks_held     # + caller-held credit (fixpoint)
        self.kind = kind                # "assign" | "augassign" | "mutator"

    def guards(self, class_locks):
        """The owner's locks in force here, named as the map names them:
        ``_lock`` on the owner's own state, ``Owner._lock`` on another's."""
        held = self.effective & class_locks[self.owner]
        if self.owner == self.class_qname:
            return frozenset(held)
        owner = self.owner.rsplit(".", 1)[-1]
        return frozenset(f"{owner}.{lock}" for lock in held)

    def __repr__(self):
        held = ",".join(sorted(self.effective)) or "-"
        return (f"MutationSite({self.class_qname}.{self.attr} "
                f"@{self.method_qname}:{self.line} [{held}])")


class LockAnalysis:
    """The lockset pass result: findings plus the shared-state inventory."""

    def __init__(self, program):
        self.program = program
        #: class qname → list of MutationSite
        self.sites = {}
        #: class qname → sorted list of lock attribute names
        self.class_locks = {}
        #: worker label → entry function qname
        self.worker_entries = {}
        #: worker label → set of reachable function qnames
        self.worker_reachable = {}
        self.findings = []

    # -- the map (the sharding PR's partitioning spec) ---------------------

    def shared_state_map(self):
        """The full shared-state inventory as a JSON-serializable dict."""
        classes = {}
        for class_qname in sorted(self.sites):
            sites = self.sites[class_qname]
            class_info = self.program.classes[class_qname]
            locks = sorted(set().union(*(
                site.guards(self.class_locks) for site in sites
            ), self.class_locks.get(class_qname, ())))
            attributes = {}
            for attr in sorted({site.attr for site in sites}):
                attr_sites = [s for s in sites if s.attr == attr]
                attributes[attr] = self._attribute_entry(attr_sites)
            classes[class_qname] = {
                "module": class_info.module.name,
                "path": _portable_path(class_info.module.path),
                "locks": locks,
                "attributes": attributes,
            }
        return {
            "schema_version": 1,
            "generated_by": "python -m repro.analysis.flow --map",
            "worker_entries": {
                label: qname
                for label, qname in sorted(self.worker_entries.items())
            },
            "classes": classes,
        }

    def _attribute_entry(self, attr_sites):
        non_init = [s for s in attr_sites if not _is_init(s.method_qname)]
        guards = [s.guards(self.class_locks) for s in non_init]
        common = None
        for guard in guards:
            common = guard if common is None else (common & guard)
        common = common or _EMPTY
        guarding_lock = sorted(common)[0] if common else None
        return {
            "guarding_lock": guarding_lock,
            "consistent": bool(common) or not non_init,
            "mutation_sites": [
                {
                    "method": s.method_qname,
                    "line": s.line,
                    "kind": s.kind,
                    "locks_held": sorted(s.guards(self.class_locks)),
                    "thread_contexts": self._contexts(s.method_qname),
                }
                for s in sorted(attr_sites,
                                key=lambda s: (s.method_qname, s.line))
            ],
        }

    def _contexts(self, method_qname):
        """Thread contexts that can execute ``method_qname``."""
        workers = sorted(
            label for label, reachable in self.worker_reachable.items()
            if method_qname in reachable
        )
        entry_qnames = set(self.worker_entries.values())
        if method_qname in entry_qnames and workers:
            return workers  # a worker body never runs on the caller thread
        return ["main"] + workers


def analyze_locks(paths_or_program):
    """Run the whole-program lockset analysis; returns :class:`LockAnalysis`.

    ``paths_or_program`` is a path list (loaded fresh) or an
    already-loaded :class:`~repro.analysis.flow.loader.Program` (shared
    with the taint pass to parse the tree once).
    """
    program = (
        paths_or_program
        if hasattr(paths_or_program, "modules")
        else load_program(paths_or_program)
    )
    analysis = LockAnalysis(program)

    # Pass 1: per-method lockset simulation over lock-owning classes.
    internal_calls = {}   # callee qname → [(caller qname, site lockset)]
    for class_info in program.classes.values():
        if not class_info.lock_attrs:
            continue
        analysis.class_locks[class_info.qname] = set(class_info.lock_attrs)
        analysis.sites.setdefault(class_info.qname, [])
        for method in class_info.methods.values():
            scan = _MethodScan(class_info, method, program)
            scan.walk(method.node.body, _EMPTY)
            for site in scan.sites:
                analysis.sites.setdefault(site.class_qname, []).append(site)
            for callee, lockset in scan.internal_calls:
                internal_calls.setdefault(callee, []).append(
                    (method.qname, lockset)
                )

    # Pass 2: caller-held-lock credit to fixpoint (a must-analysis).
    entry = _entry_locksets(program, analysis, internal_calls)
    for sites in analysis.sites.values():
        for site in sites:
            site.effective = frozenset(
                site.locks_held | entry.get(site.method_qname, _EMPTY)
            )
    _keep_guarded_foreign_state(analysis)

    # Pass 3: thread entry points and reachability.
    analysis.worker_entries = _find_worker_entries(program)
    graph = _call_graph(program)
    for label, qname in analysis.worker_entries.items():
        analysis.worker_reachable[label] = _reachable(graph, qname)

    # Pass 4: findings.
    _collect_findings(analysis)
    return analysis


def _is_init(method_qname):
    return method_qname.rsplit(".", 1)[-1] == "__init__"


def _portable_path(path):
    """Relative to the working directory when possible.

    The map is a committed artifact; absolute paths would make it
    differ per checkout.
    """
    try:
        return str(Path(path).resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


# -- pass 1: per-method simulation ---------------------------------------


class _MethodScan:
    """Walks one method body tracking the lockset currently held."""

    def __init__(self, class_info, method, program):
        self.class_info = class_info
        self.method = method
        self.locks = class_info.lock_attrs
        self.sites = []
        self.internal_calls = []  # (callee qname, lockset at call site)
        self.receivers = _receiver_classes_by_name(method.node, program)

    def walk(self, body, lockset):
        """Walk a statement list, threading acquire()/release() state."""
        held = set(lockset)
        for stmt in body:
            held |= self._acquired_locks(stmt)
            released = self._released_locks(stmt)
            self._statement(stmt, frozenset(held))
            held -= released

    def _statement(self, node, lockset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested defs run later; their lock state is unknown
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._expression(item.context_expr, lockset)
            inner = lockset | self._with_locks(node)
            self.walk(node.body, inner)
            return
        if isinstance(node, ast.Try):
            self.walk(node.body, lockset)
            for handler in node.handlers:
                self.walk(handler.body, lockset)
            self.walk(node.orelse, lockset)
            self.walk(node.finalbody, lockset)
            return
        if isinstance(node, (ast.If, ast.For, ast.AsyncFor, ast.While)):
            for field in ("test", "iter"):
                child = getattr(node, field, None)
                if child is not None:
                    self._expression(child, lockset)
            target = getattr(node, "target", None)
            if target is not None:
                self._record_target(target, lockset, node)
            self.walk(node.body, lockset)
            self.walk(node.orelse, lockset)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            kind = ("augassign" if isinstance(node, ast.AugAssign)
                    else "assign")
            for target in targets:
                self._record_target(target, lockset, node, kind)
            if node.value is not None:
                self._expression(node.value, lockset)
            return
        # remaining statements: scan embedded expressions for mutator
        # calls and internal call edges
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expression(child, lockset)
            elif isinstance(child, ast.stmt):
                self._statement(child, lockset)

    def _expression(self, node, lockset):
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)):
                continue
            func = call.func
            chain = _attr_chain(func.value)
            if chain is not None and func.attr in _MUTATORS:
                self._record(chain, lockset, call, "mutator")
            elif isinstance(func.value, ast.Name) \
                    and func.value.id == "self":
                # a call on self: record the intra-class edge
                callee = self.class_info.methods.get(func.attr)
                if callee is not None:
                    self.internal_calls.append((callee.qname, lockset))

    def _record_target(self, target, lockset, node, kind="assign"):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, lockset, node, kind)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, lockset, node, kind)
            return
        chain = _attr_chain(target)
        if chain is not None:
            self._record(chain, lockset, node, kind)

    def _record(self, chain, lockset, node, kind):
        """Record a mutation of ``chain`` (``["self", "attr", …]``, or a
        local name whose class resolves) with the lockset in force."""
        base, attr = chain[0], chain[1]
        owned = self.class_info.qname
        if base != "self":
            owned = self.receivers.get(base)
            if owned is None:
                return
        elif attr in self.locks:
            return  # assigning/acquiring the lock itself is not shared data
        elif attr in self.class_info.sync_attrs \
                and (len(chain) > 2 or kind == "mutator"):
            # queue.Queue and friends lock internally; calling put() on
            # one, or storing through it, needs no class-owned lock.
            # Rebinding the *slot* is still a shared mutation and flags.
            return
        self.sites.append(MutationSite(
            owned, attr, self.method.qname, self.class_info.qname,
            getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
            frozenset(lockset), kind,
        ))

    # -- lock recognition --------------------------------------------------

    def _with_locks(self, node):
        held = set()
        for item in node.items:
            expr = item.context_expr
            attr = _self_attr(expr)
            if attr in self.locks:
                held.add(attr)
            elif (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and _self_attr(expr.func.value) in self.locks):
                held.add(_self_attr(expr.func.value))
        return held

    def _acquired_locks(self, stmt):
        return self._lock_calls(stmt, "acquire")

    def _released_locks(self, stmt):
        return self._lock_calls(stmt, "release")

    def _lock_calls(self, stmt, verb):
        if not isinstance(stmt, ast.Expr):
            return set()
        call = stmt.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == verb):
            return set()
        attr = _self_attr(call.func.value)
        return {attr} if attr in self.locks else set()


def _self_attr(node):
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _attr_chain(node):
    """``["self", "stats", "hits"]`` for ``self.stats.hits``; any name
    with at least one attribute, else None.

    Subscripts along the way (``self._entries[key]``) keep the chain —
    the *base* attribute is the shared object being mutated.
    """
    parts = []
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and parts:
        return [node.id] + parts[::-1]
    return None


def _receiver_classes_by_name(function_node, program):
    """``{local name: class qname}`` for the non-self names of one
    function whose attributes, as used there, exactly one class in the
    program declares (its methods, fields and ``self.<attr>`` stores):
    the unique-definition rule the taint engine applies to unresolved
    method receivers."""
    used = {}
    for node in ast.walk(function_node):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id != "self":
            used.setdefault(node.value.id, set()).add(node.attr)
    receivers = {}
    for name, attrs in used.items():
        matches = [info.qname for info in program.classes.values()
                   if attrs <= info.attrs | set(info.methods)
                   | set(info.fields)]
        if len(matches) == 1:
            receivers[name] = matches[0]
    return receivers


def _keep_guarded_foreign_state(analysis):
    """Drop another object's attributes that no lock ever guards: a
    helper built and filled on one thread is not shared state."""
    for class_qname in set(analysis.sites) - set(analysis.class_locks):
        sites = analysis.sites.pop(class_qname)
        shared = {s.attr for s in sites if s.guards(analysis.class_locks)}
        if shared:
            analysis.sites[class_qname] = [s for s in sites
                                           if s.attr in shared]


# -- pass 2: caller-held-lock credit --------------------------------------


def _entry_locksets(program, analysis, internal_calls):
    """Per-method entry locksets: what every caller must already hold.

    Public methods (and private ones with no recorded in-class callers)
    enter with nothing held.  A private method's entry set is the
    intersection over all recorded call sites of the caller's entry set
    union the site lockset — iterated to a fixpoint because helpers call
    helpers.  Intersections only shrink in a finite lattice, so this
    terminates.
    """
    entry = {}
    methods = [
        method
        for class_qname in analysis.class_locks
        for method in program.classes[class_qname].methods.values()
    ]
    all_locks = {
        method.qname: frozenset(
            analysis.class_locks[method.class_info.qname]
        )
        for method in methods
    }
    for method in methods:
        private = method.name.startswith("_") \
            and not method.name.startswith("__")
        has_callers = method.qname in internal_calls
        entry[method.qname] = (
            all_locks[method.qname] if (private and has_callers) else _EMPTY
        )
    for _ in range(len(methods) + 1):
        changed = False
        for method in methods:
            qname = method.qname
            calls = internal_calls.get(qname)
            if not calls or entry[qname] == _EMPTY:
                continue
            incoming = None
            for caller, lockset in calls:
                held = frozenset(entry.get(caller, _EMPTY) | lockset)
                incoming = held if incoming is None else (incoming & held)
            incoming = incoming if incoming is not None else _EMPTY
            if incoming != entry[qname]:
                entry[qname] = incoming
                changed = True
        if not changed:
            break
    return entry


# -- pass 3: thread entry points and reachability -------------------------


def _find_worker_entries(program):
    """``{label: entry qname}`` for every thread/pool hand-off in the tree."""
    entries = {}
    for function in program.functions.values():
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            target, label = _thread_target(node), None
            if target is None and _is_submit(node) and node.args:
                target = node.args[0]
            if target is None:
                continue
            qname = _resolve_callable(program, function, target)
            if qname is None:
                continue
            label = _thread_name(node) or qname.rsplit(".", 2)[-2] \
                + "." + qname.rsplit(".", 1)[-1]
            entries[label] = qname
    return entries


def _thread_target(call):
    """The ``target=`` expression of a ``Thread(...)`` construction."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name != "Thread":
        return None
    for keyword in call.keywords:
        if keyword.arg == "target":
            return keyword.value
    return None


def _is_submit(call):
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "submit")


def _thread_name(call):
    for keyword in call.keywords:
        if keyword.arg == "name" and isinstance(keyword.value,
                                                ast.Constant):
            value = keyword.value.value
            if isinstance(value, str):
                return value
    return None


def _resolve_callable(program, function, expr):
    """Resolve a callable expression to an in-tree function qname."""
    if isinstance(expr, ast.Attribute) \
            and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self" \
            and function.class_info is not None:
        method = program.method_of(function.class_info, expr.attr)
        return method.qname if method is not None else None
    if isinstance(expr, ast.Name):
        module = function.module
        dotted = module.imports.get(expr.id)
        if dotted in program.functions:
            return dotted
        local = f"{module.name}.{expr.id}"
        if local in program.functions:
            return local
    return None


def _call_graph(program):
    """Resolved call edges: function qname → set of callee qnames."""
    graph = {}
    for function in program.functions.values():
        callees = graph.setdefault(function.qname, set())
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                qname = _resolve_callable(program, function, func)
                if qname is not None:
                    callees.add(qname)
                continue
            if not isinstance(func, ast.Attribute):
                continue
            qname = _resolve_callable(program, function, func)
            if qname is not None:
                callees.add(qname)
                continue
            # attribute call on a typed receiver: self.attr.m(...)
            for class_info in _receiver_classes(program, function,
                                                func.value):
                method = program.method_of(class_info, func.attr)
                if method is not None:
                    callees.add(method.qname)
    return graph


def _receiver_classes(program, function, expr):
    if isinstance(expr, ast.Attribute) \
            and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self" \
            and function.class_info is not None:
        found = []
        for qname in function.class_info.attr_types.get(expr.attr, ()):
            class_info = program.classes.get(qname)
            if class_info is not None:
                found.append(class_info)
        return found
    return []


def _reachable(graph, start):
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for callee in graph.get(current, ()):
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return seen


# -- pass 4: findings -----------------------------------------------------


def _collect_findings(analysis):
    program = analysis.program
    for class_qname in sorted(analysis.sites):
        by_attr = {}
        for site in analysis.sites[class_qname]:
            if _is_init(site.method_qname):
                continue  # construction happens-before sharing
            by_attr.setdefault(site.attr, []).append(site)
        for attr in sorted(by_attr):
            sites = by_attr[attr]
            guards = {site: site.guards(analysis.class_locks)
                      for site in sites}
            guarded = [g for g in guards.values() if g]
            common = None
            for guard in guarded:
                common = guard if common is None else (common & guard)
            for site in sites:
                guard = guards[site]
                owner = site.owner.rsplit(".", 1)[-1]
                target = ("self" if site.owner == class_qname
                          else class_qname.rsplit(".", 1)[-1])
                path = program.classes[site.owner].module.path
                if not guard:
                    locks = sorted(analysis.class_locks[site.owner])
                    analysis.findings.append(Finding(
                        "REP011",
                        f"{owner}.{site.method_qname.rsplit('.', 1)[-1]} "
                        f"mutates {target}.{attr} with no lock held (class "
                        f"owns {locks}) — guard with `with "
                        f"self.{locks[0]}:` or suppress with a written "
                        "justification",
                        path, site.line, site.col,
                    ))
                elif common is not None and not common and guarded:
                    analysis.findings.append(Finding(
                        "REP011",
                        f"{target}.{attr} is guarded by "
                        f"{sorted(guard)} here but by a different lock "
                        f"elsewhere in {class_qname} — pick one lock per "
                        "attribute",
                        path, site.line, site.col,
                    ))
    analysis.findings.sort(
        key=lambda f: (str(f.path), f.line, f.col, f.message)
    )
