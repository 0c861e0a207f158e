"""The REP rule catalog (see docs/static_analysis.md for examples).

Each rule guards an invariant this repo established in an earlier PR and
previously enforced only by convention and review:

* REP002 — a refusal (``PrivacyViolation``/``AuditRefusal``/
  ``REFUSAL_ERRORS``) is a *final protocol answer*; catching one inside
  a loop and retrying (``continue``) or ignoring it (``pass``) breaks
  refusal finality (PR 2's core invariant).
* REP003 — library code raises :class:`repro.errors.ReproError`
  subclasses, never bare builtins, so ``except ReproError`` stays a
  complete catch for callers.
* REP004 — imports must respect the layer order (substrates below
  policy/query, below source, below mediator, below core); a lower
  layer importing a higher one at module level is a cycle waiting to
  happen.
* REP005 — bare ``except:`` and silently swallowed broad handlers hide
  refusals and faults from the dispatcher's accounting.
* REP006 — mutable default arguments alias state across calls.
* REP007 — ad-hoc dict-based caches (``self._cache = {}`` and friends)
  outside :mod:`repro.cache` are unbounded, epoch-blind, and invisible
  to metrics; route them through the cache layer or justify why the
  layering forbids it (the cache-coherence invariant of the multi-tier
  caching PR).
* REP008 — diagnostics must flow through the structured event log
  (:mod:`repro.telemetry.events`), not ``logging`` or bare
  ``print``/``sys.stdout``/``sys.stderr`` writes: side-channel output
  is invisible to the disclosure observatory's exporters and report
  CLI (the observability PR's invariant).  :mod:`repro.telemetry`
  itself — the sanctioned rendering layer — is exempt.
* REP009 — every public name in :mod:`repro.persistence` carries a
  docstring: the durability layer's API *is* its contract (what is
  guaranteed to survive a crash at each point), and an undocumented
  backend method is a crash-consistency bug waiting for a caller to
  guess wrong (the durable-privacy-state PR's invariant).
* REP012 — the modules in :data:`KERNEL_MODULES` carry vectorized hot
  paths whose scalar references are test oracles
  (``tests/kernels/oracles.py``); a per-row Python loop over
  records/rows/members there is either a deliberate one-pass load or
  materialization (suppress with the justification) or an accidental
  de-vectorization the benchmarks will pay for (the vectorized-kernels
  PR's invariant).
* REP013 — the observatory hot paths in :data:`OBS_HOT_MODULES`
  (sampling loops, inline event listeners) must not emit spans/events
  or offer to sinks directly: per-sample emission is unbounded and an
  emitting listener recurses into the very stream being observed —
  fold into the bounded aggregation table / bundle ring and emit from
  rate-limited trigger paths only (the performance-observatory PR's
  invariant).
"""

from __future__ import annotations

import ast

from repro.analysis.lint.core import rule

# -- shared AST helpers -------------------------------------------------------


def _call_factory_name(node):
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _self_attribute(node):
    """The attribute name when ``node`` is ``self.<attr>``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


# -- REP002: refusal caught and retried ---------------------------------------

_REFUSAL_NAMES = {"PrivacyViolation", "AuditRefusal", "REFUSAL_ERRORS"}


def _handler_names(handler_type):
    if handler_type is None:
        return set()
    names = set()
    for node in ast.walk(handler_type):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _body_retries(body):
    """Whether a handler body re-enters the loop (or ignores the error)."""
    if all(isinstance(stmt, ast.Pass) for stmt in body):
        return True
    return any(_reaches_continue(stmt) for stmt in body)


def _reaches_continue(node):
    """A ``continue`` binding to the *enclosing* loop, not a nested one."""
    if isinstance(node, ast.Continue):
        return True
    if isinstance(node, (ast.For, ast.While, ast.FunctionDef,
                         ast.AsyncFunctionDef, ast.Lambda)):
        return False  # continue inside these binds to their own scope
    return any(_reaches_continue(child)
               for child in ast.iter_child_nodes(node))


@rule("REP002", "refusal caught inside a loop and retried or ignored")
def check_refusal_finality(context):
    yield from _scan_refusals(context.tree, context, in_loop=False)


def _scan_refusals(node, context, in_loop):
    for child in ast.iter_child_nodes(node):
        child_in_loop = in_loop or isinstance(child, (ast.For, ast.While))
        if isinstance(child, ast.ExceptHandler) and in_loop:
            caught = _handler_names(child.type) & _REFUSAL_NAMES
            if caught and _body_retries(child.body):
                yield context.finding(
                    "REP002",
                    f"refusal ({', '.join(sorted(caught))}) caught inside "
                    "a loop and retried/ignored — refusals are final",
                    child,
                )
        yield from _scan_refusals(child, context, child_in_loop)


# -- REP003: builtin exceptions raised in library code ------------------------

_BUILTIN_EXCEPTIONS = {
    "ArithmeticError", "AttributeError", "BaseException", "BufferError",
    "EOFError", "Exception", "FloatingPointError", "IOError", "ImportError",
    "IndexError", "KeyError", "LookupError", "MemoryError", "NameError",
    "OSError", "OverflowError", "RecursionError", "ReferenceError",
    "RuntimeError", "SystemError", "TypeError", "UnboundLocalError",
    "UnicodeError", "ValueError", "ZeroDivisionError",
}
# intentionally exempt: NotImplementedError (abstract methods),
# AssertionError, StopIteration/StopAsyncIteration (protocols),
# KeyboardInterrupt/SystemExit (control flow).


@rule("REP003", "builtin exception raised in repro library code")
def check_repro_errors(context):
    if not context.in_repro:
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_EXCEPTIONS:
            yield context.finding(
                "REP003",
                f"raise {name} in library code — raise a "
                "repro.errors.ReproError subclass so `except ReproError` "
                "stays a complete catch",
                node,
            )


# -- REP004: layering violations ----------------------------------------------

#: Import-order ranks.  A module may import layers of rank <= its own;
#: importing a strictly higher rank at module level is a violation.
#: Derived from the actual dependency DAG (see docs/static_analysis.md).
LAYER_RANKS = {
    "errors": 0,
    "relational": 10, "crypto": 10, "anonymity": 10, "access": 10,
    "inference": 10, "metrics": 10,
    "xmlkit": 20, "statdb": 20, "linkage": 20, "mining": 20, "data": 20,
    "query": 30, "policy": 30,
    "telemetry": 40,
    "cache": 45,
    "source": 50,
    "analysis": 60,
    "observatory": 65,
    "mediator": 70,
    # persistence captures/replays engine state wholesale, so it sits
    # above the mediator; the engine reaches it via deferred import
    "persistence": 75,
    "core": 80,
    "testing": 90,
    # validation drives the full system through PrivateIye.pose() and
    # reuses the testing fixtures, so it sits above both
    "validation": 95,
    # the repro facade re-exports everything
    "": 100,
}


def _layer_of(module):
    """The layer name of a dotted ``repro.*`` module, or None."""
    if module is None or not module.startswith("repro"):
        return None
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _imported_repro_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names
                if alias.name.startswith("repro")]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module and node.module.startswith("repro"):
            return [node.module]
    return []


@rule("REP004", "module-level import of a higher architectural layer")
def check_layering(context):
    layer = _layer_of(context.module)
    if layer is None or layer not in LAYER_RANKS:
        return
    own_rank = LAYER_RANKS[layer]
    for node in _module_level_nodes(context.tree):
        for imported in _imported_repro_modules(node):
            imported_layer = _layer_of(imported)
            imported_rank = LAYER_RANKS.get(imported_layer)
            if imported_rank is not None and imported_rank > own_rank:
                yield context.finding(
                    "REP004",
                    f"layer '{layer}' (rank {own_rank}) imports "
                    f"'{imported}' from higher layer '{imported_layer}' "
                    f"(rank {imported_rank}) at module level — invert the "
                    "dependency or defer the import into the function "
                    "that needs it",
                    node,
                )


def _module_level_nodes(tree):
    """Statements executed at import time (not inside any function)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # lazy imports inside functions are the sanctioned escape
        stack.extend(ast.iter_child_nodes(node))


# -- REP005: bare except / swallowed exceptions -------------------------------

_BROAD_NAMES = {"Exception", "BaseException"}


@rule("REP005", "bare except or silently swallowed broad handler")
def check_swallowed_exceptions(context):
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield context.finding(
                "REP005",
                "bare `except:` catches SystemExit/KeyboardInterrupt and "
                "hides refusals — name the exceptions",
                node,
            )
            continue
        if (_handler_names(node.type) & _BROAD_NAMES
                and all(isinstance(stmt, ast.Pass) for stmt in node.body)):
            yield context.finding(
                "REP005",
                "broad handler silently swallows the exception — record, "
                "re-raise, or narrow it",
                node,
            )


# -- REP006: mutable default arguments ----------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque",
                  "OrderedDict", "Counter"}


def _is_mutable_default(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return _call_factory_name(node) in _MUTABLE_CALLS


@rule("REP006", "mutable default argument")
def check_mutable_defaults(context):
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            if _is_mutable_default(default):
                yield context.finding(
                    "REP006",
                    f"function {node.name} has a mutable default argument "
                    "— default to None and build inside",
                    default,
                )


# -- REP007: ad-hoc dict caches outside repro.cache ---------------------------

_CACHE_NAME_MARKERS = ("cache", "memo")
_FRESH_MAPPING_FACTORIES = {"dict", "OrderedDict", "WeakValueDictionary"}


def _builds_fresh_mapping(node):
    """Whether ``node`` constructs a brand-new mapping to fill later.

    ``{}``, zero-argument ``dict()``/``OrderedDict()``, and
    ``defaultdict(...)`` (its argument is the default *factory*, not
    contents) all start empty; ``dict(other)``/``{...: ...}`` copy or
    seed existing data and are not cache storage being born.
    """
    if isinstance(node, ast.Dict):
        return not node.keys
    name = _call_factory_name(node)
    if name == "defaultdict":
        return True
    if name in _FRESH_MAPPING_FACTORIES:
        return not (node.args or node.keywords)
    return False


def _assigned_cache_name(target):
    """The cache-suggesting name a target binds, or None."""
    name = _self_attribute(target)
    if name is None and isinstance(target, ast.Name):
        name = target.id
    if name is None:
        return None
    lowered = name.lower()
    if any(marker in lowered for marker in _CACHE_NAME_MARKERS):
        return name
    return None


@rule("REP007", "ad-hoc dict-based cache outside repro.cache")
def check_adhoc_caches(context):
    if not context.in_repro:
        return
    if _layer_of(context.module) == "cache":
        return  # repro.cache is where cache storage is *supposed* to live
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not _builds_fresh_mapping(node.value):
            continue
        for target in node.targets:
            name = _assigned_cache_name(target)
            if name is not None:
                yield context.finding(
                    "REP007",
                    f"{name} is an ad-hoc dict cache — use repro.cache "
                    "(bounded LRU, epoch invalidation, hit/miss stats) or "
                    "suppress with the layering justification",
                    node,
                )


# -- REP008: diagnostics bypassing the event log ------------------------------

_STDIO_STREAMS = {"stdout", "stderr"}


def _imports_logging(node):
    """Whether ``node`` imports the stdlib ``logging`` machinery."""
    if isinstance(node, ast.Import):
        return any(alias.name == "logging"
                   or alias.name.startswith("logging.")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return (node.module == "logging"
                or (node.module or "").startswith("logging."))
    return False


def _stdio_stream_attr(node):
    """``"stdout"``/``"stderr"`` when ``node`` is ``sys.<stream>``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
            and node.attr in _STDIO_STREAMS):
        return node.attr
    return None


@rule("REP008", "logging / stdout diagnostics outside repro.telemetry")
def check_diagnostic_channels(context):
    if not context.in_repro:
        return
    if _layer_of(context.module) == "telemetry":
        return  # the sanctioned rendering layer (exporters, report CLI)
    for node in ast.walk(context.tree):
        if _imports_logging(node):
            yield context.finding(
                "REP008",
                "stdlib logging bypasses the structured event log — emit "
                "telemetry events (repro.telemetry.events) instead",
                node,
            )
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            yield context.finding(
                "REP008",
                "print() writes diagnostics to a side channel the "
                "observatory cannot export — emit an event, or justify "
                "(CLI entry points rendering for humans)",
                node,
            )
        else:
            stream = _stdio_stream_attr(node)
            if stream is not None:
                yield context.finding(
                    "REP008",
                    f"bare sys.{stream} write bypasses the event log — "
                    "emit an event, or justify (CLI entry points "
                    "rendering for humans)",
                    node,
                )


# -- REP012: per-row Python loops in vectorized kernel modules -----------------

#: Modules with a vectorized hot path pinned against a scalar test
#: oracle.  The rule is scoped to exactly these — elsewhere a row loop is
#: ordinary Python; here it is either a one-pass load or materialization
#: the vectorized path needs (suppressed with that justification) or a
#: de-vectorization regression.
KERNEL_MODULES = {
    "repro.inference.bounds",
    "repro.anonymity.kanonymity",
    "repro.anonymity.mondrian",
    "repro.statdb.laplace",
    "repro.metrics.privacy_loss",
    "repro.relational.expr",
    "repro.relational.engine",
}

_ROW_COLLECTION_NAMES = {"records", "rows", "members"}
_ITER_WRAPPERS = {"enumerate", "sorted", "reversed", "zip"}


def _row_collection(node):
    """The records/rows/members collection ``node`` iterates, or None.

    Unwraps one level of ``enumerate``/``sorted``/``reversed``/``zip``
    (the common loop dressings) and accepts both plain names and
    attribute reads (``self.records``).
    """
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _ITER_WRAPPERS):
        for arg in node.args:
            name = _row_collection(arg)
            if name is not None:
                return name
        return None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    return name if name in _ROW_COLLECTION_NAMES else None


@rule("REP012", "per-row Python loop in a vectorized kernel module")
def check_per_row_loops(context):
    if context.module not in KERNEL_MODULES:
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.For):
            iterables = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables = [gen.iter for gen in node.generators]
        else:
            continue
        for iterable in iterables:
            name = _row_collection(iterable)
            if name is not None:
                yield context.finding(
                    "REP012",
                    f"per-row Python loop over {name!r} in a kernel module "
                    "— batch it through the vectorized path (np.unique / "
                    "ndarray ops; scalar references belong in "
                    "tests/kernels/oracles.py) or suppress with the "
                    "justification",
                    node,
                )
                break


# -- REP013: telemetry emission inside observatory hot paths -------------------

#: Modules of :mod:`repro.telemetry.obs` whose inner loops run per
#: sample or per emitted event — the observatory's own hot paths.  The
#: rule is scoped to exactly these: elsewhere in the tree a span or an
#: event is ordinary instrumentation; here it feeds back into the very
#: stream being observed (event → listener → event …) or allocates per
#: sample at the sampling rate.
OBS_HOT_MODULES = {
    "repro.telemetry.obs.profiler",
    "repro.telemetry.obs.recorder",
}

#: Telemetry write calls that are banned in hot contexts: spans and
#: events allocate and (for events) fan out to sinks/listeners; sink
#: ``offer`` bypasses the ring entirely.  Metric observations on
#: pre-resolved instruments (``inc``/``set``/``observe``) stay legal —
#: they are fixed-size, which is the whole point.
_OBS_EMISSION_ATTRS = {"emit", "span", "offer"}

#: Function names that run once per sample or once per emitted event.
#: ``sample_once``/``_run`` are the profiler's sampling loop;
#: ``_on_*`` are inline event-log listeners (they execute inside every
#: ``emit()`` call in the process).
_OBS_HOT_FUNCTIONS = {"sample_once", "_run"}


def _is_obs_hot_function(name):
    """Whether a function name marks an observatory hot path."""
    return name in _OBS_HOT_FUNCTIONS or name.startswith("_on_")


def _emission_calls(body_nodes):
    """Yield ``.emit``/``.span``/``.offer`` call nodes in ``body_nodes``."""
    for body_node in body_nodes:
        for node in ast.walk(body_node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _OBS_EMISSION_ATTRS):
                yield node


@rule("REP013", "span/event emission inside an observatory hot path")
def check_obs_hot_path_emission(context):
    """Flag direct telemetry emission in ``repro.telemetry.obs`` loops.

    Two hot contexts: functions that run per sample / per event
    (:data:`_OBS_HOT_FUNCTIONS` and ``_on_*`` listeners), and ``while``
    loops anywhere in the hot modules (sampling/drain loops).  Emitting
    there either recurses into the event log mid-emit or allocates at
    the sampling rate — route the data through the bounded aggregation
    table / bundle ring instead, and emit from the triggered (rate-
    limited) paths only.
    """
    if context.module not in OBS_HOT_MODULES:
        return
    seen = set()
    for node in ast.walk(context.tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_obs_hot_function(node.name)):
            for call in _emission_calls(node.body):
                if id(call) not in seen:
                    seen.add(id(call))
                    yield context.finding(
                        "REP013",
                        f"direct .{call.func.attr}() inside hot function "
                        f"{node.name!r} of an observatory module — "
                        "aggregate into the bounded sampling table or "
                        "bundle ring and emit from a rate-limited "
                        "trigger path instead",
                        call,
                    )
        elif isinstance(node, ast.While):
            for call in _emission_calls(node.body):
                if id(call) not in seen:
                    seen.add(id(call))
                    yield context.finding(
                        "REP013",
                        f"direct .{call.func.attr}() inside a while-loop "
                        "of an observatory module — per-iteration "
                        "emission is unbounded; fold into the bounded "
                        "aggregation state instead",
                        call,
                    )


# -- REP009: undocumented public persistence API -------------------------------

def _is_public_name(name):
    """Public = not underscore-prefixed (dunders are implementation)."""
    return not name.startswith("_")


def _has_docstring(node):
    """Whether a module/class/function node opens with a docstring."""
    return ast.get_docstring(node, clean=False) is not None


@rule("REP009", "public persistence API missing its durability docstring")
def check_persistence_docstrings(context):
    """Flag undocumented public names in the ``repro.persistence`` layer.

    The durability layer is pure contract: callers decide what is safe
    to release based on what each method *guarantees has already hit
    the medium*, and recovery decides what to trust based on what each
    loader promises about corruption.  A public module, class, or
    function there without a docstring leaves that guarantee to
    guesswork, so its absence is a finding — on the module itself, on
    every public class, and on every public function or method
    (underscore-prefixed helpers are exempt; document the callers
    instead).
    """
    if not context.in_repro:
        return
    if _layer_of(context.module) != "persistence":
        return
    if not _has_docstring(context.tree):
        yield context.finding(
            "REP009",
            "persistence module lacks a docstring — state the module's "
            "durability contract (what survives a crash, and when)",
            context.tree,
        )
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ClassDef):
            if _is_public_name(node.name) and not _has_docstring(node):
                yield context.finding(
                    "REP009",
                    f"public persistence class {node.name!r} lacks a "
                    "docstring — document its durability contract",
                    node,
                )
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_public_name(node.name) or _has_docstring(node):
            continue
        yield context.finding(
            "REP009",
            f"public persistence function {node.name!r} lacks a "
            "docstring — state what is durable when it returns",
            node,
        )
