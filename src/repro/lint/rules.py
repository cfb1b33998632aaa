"""The rule registry: one AST visitor per codebase invariant.

Every rule is a :class:`Rule` subclass with a stable id (``RPR001``…), a
one-line title, a rationale (shown by ``explain``) and a ``check`` method
that walks a parsed module and yields findings as ``(line, col, message)``
tuples.  The engine turns findings into :class:`repro.lint.engine.Violation`
records and applies inline suppressions.

The rules encode contracts that previously lived only in test suites and PR
descriptions — see ``docs/DETERMINISM.md`` for the prose version of each.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

Finding = Tuple[int, int, str]

#: ``random`` module functions that consume the process-global PRNG state or
#: construct unseeded generators.  ``sim.random.stream(label)`` is the only
#: sanctioned randomness source in sim code.
_RANDOM_MODULE_FNS = {
    "Random", "SystemRandom", "seed", "random", "randint", "randrange",
    "uniform", "choice", "choices", "shuffle", "sample", "gauss",
    "normalvariate", "expovariate", "betavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
    "randbytes",
}

#: Wall-clock / environment reads that make a run depend on when or where it
#: executes rather than on its seed.
_WALL_CLOCK_TIME_FNS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime",
}
_WALL_CLOCK_DATETIME_FNS = {"now", "utcnow", "today"}

#: Iteration wrappers that impose a deterministic order on a set.
_ORDERING_WRAPPERS = {"sorted"}
#: Wrappers transparent to ordering — unwrap and look at their argument.
_TRANSPARENT_WRAPPERS = {"list", "tuple", "reversed", "enumerate"}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_tail(func: ast.AST) -> Optional[str]:
    """For a call ``x.y.z(...)`` passed as ``func``, the name ``y`` the
    method is invoked on (``z``'s immediate receiver), else None."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _iter_class_methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _self_assigned_attrs(func: ast.FunctionDef) -> Set[str]:
    """Names assigned as ``self.<name> = …`` anywhere inside ``func``."""
    first_arg = func.args.args[0].arg if func.args.args else None
    if first_arg != "self":
        return set()
    attrs: Set[str] = set()
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            stack = [target]
            while stack:
                t = stack.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    stack.extend(t.elts)
                elif (isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    attrs.add(t.attr)
    return attrs


class Rule:
    """Base class for lint rules."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, tree: ast.Module, ctx: "RuleContext") -> List[Finding]:
        raise NotImplementedError


class RuleContext:
    """Per-file inputs shared by every rule."""

    def __init__(self, rel_path: str, source: str, config) -> None:
        self.rel_path = rel_path
        self.source = source
        self.config = config


class NoRawRandomness(Rule):
    id = "RPR001"
    title = "randomness must come from sim.random.stream(label)"
    rationale = (
        "Byte-identical replay per seed is the project's standing contract "
        "(in-process and across pool workers). random.Random() with no seed, "
        "module-level random.<fn>() calls, os.urandom and uuid all draw from "
        "process state that differs between runs and hosts. Derive every "
        "stream from the simulator's root seed via sim.random.stream(label) "
        "(repro.sim.randomness). Allowlisted: sim/randomness.py itself and "
        "experiment param-sampling that seeds explicitly from the replica "
        "seed (suppress with a justification)."
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        random_aliases: Set[str] = set()
        uuid_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name == "uuid":
                        uuid_aliases.add(alias.asname or "uuid")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append((node.lineno, node.col_offset,
                                     "from-import of the random module; use "
                                     "sim.random.stream(label) instead"))
                elif node.module == "uuid":
                    findings.append((node.lineno, node.col_offset,
                                     "uuid is nondeterministic across runs; derive "
                                     "identifiers from seeded streams or counters"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            root, _, fn = dotted.partition(".")
            if root in random_aliases and fn in _RANDOM_MODULE_FNS:
                findings.append((node.lineno, node.col_offset,
                                 f"direct call to {dotted}(); all simulation "
                                 "randomness must come from sim.random.stream(label)"))
            elif root in uuid_aliases and fn:
                findings.append((node.lineno, node.col_offset,
                                 f"{dotted}() is nondeterministic across runs"))
            elif dotted == "os.urandom":
                findings.append((node.lineno, node.col_offset,
                                 "os.urandom() bypasses the seeded streams"))
        return findings


class NoWallClock(Rule):
    id = "RPR002"
    title = "no wall-clock or environment reads in deterministic code"
    rationale = (
        "time.time/monotonic/perf_counter, datetime.now and os.environ make "
        "behaviour depend on the host and the moment of execution, which "
        "breaks byte-identical replay and makes remote-worker bugs "
        "unbisectable. Simulated time comes from sim.now; wall-clock "
        "measurement belongs to the obs/ and campaign/ harness layers, "
        "which are allowlisted."
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    bad = [a.name for a in node.names if a.name in _WALL_CLOCK_TIME_FNS]
                    if bad:
                        findings.append((node.lineno, node.col_offset,
                                         f"from-import of wall-clock function(s) "
                                         f"{', '.join(sorted(bad))} from time"))
                continue
            if isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted == "os.environ":
                    findings.append((node.lineno, node.col_offset,
                                     "os.environ read in deterministic code; pass "
                                     "configuration explicitly"))
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] == "time" and len(parts) == 2 and parts[1] in _WALL_CLOCK_TIME_FNS:
                findings.append((node.lineno, node.col_offset,
                                 f"wall-clock call {dotted}(); use sim.now for "
                                 "simulated time"))
            elif (parts[-1] in _WALL_CLOCK_DATETIME_FNS
                    and parts[0] in ("datetime", "date")):
                findings.append((node.lineno, node.col_offset,
                                 f"wall-clock call {dotted}()"))
            elif dotted == "os.getenv":
                findings.append((node.lineno, node.col_offset,
                                 "os.getenv read in deterministic code; pass "
                                 "configuration explicitly"))
        return findings


class SortedSetIteration(Rule):
    id = "RPR003"
    title = "iteration over sets feeding sinks must be sorted()"
    rationale = (
        "Python set iteration order depends on element hashes — for strings "
        "it varies run to run — so a set-driven loop that schedules events, "
        "emits packets or hashes state silently breaks byte-determinism. "
        "This is the rule that made DSDV/AODV byte-stable: wrap the "
        "iterable in sorted(...). Dict iteration is insertion-ordered and "
        "only flagged when a bare .keys()/.values()/.items() view feeds a "
        "scheduling/emission/hashing sink inside the loop body."
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        self._sinks = ctx.config.sinks(self.id)
        findings: List[Finding] = []
        # self.<attr> names assigned a set in __init__, per class.
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            set_attrs = self._set_typed_self_attrs(cls)
            for method in _iter_class_methods(cls):
                findings.extend(self._check_scope(method, set_attrs))
        # Module-level code outside classes (experiment runners etc.).
        module_only = ast.Module(
            body=[n for n in tree.body if not isinstance(n, ast.ClassDef)],
            type_ignores=[])
        findings.extend(self._check_scope(module_only, set()))
        return findings

    # -- helpers -------------------------------------------------------
    def _set_typed_self_attrs(self, cls: ast.ClassDef) -> Set[str]:
        attrs: Set[str] = set()
        for method in _iter_class_methods(cls):
            if method.name not in ("__init__", "__post_init__"):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                if not self._is_set_expr(node.value, set()):
                    continue
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        attrs.add(target.attr)
        return attrs

    def _is_set_expr(self, node: ast.expr, set_locals: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.Name) and node.id in set_locals:
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("union", "intersection", "difference",
                                       "symmetric_difference")
                and self._is_set_expr(node.func.value, set_locals)):
            return True
        if (isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor))
                and (self._is_set_expr(node.left, set_locals)
                     or self._is_set_expr(node.right, set_locals))):
            return True
        return False

    def _is_set_iterable(self, node: ast.expr, set_locals: Set[str],
                         set_attrs: Set[str]) -> bool:
        if self._is_set_expr(node, set_locals):
            return True
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in set_attrs)

    def _is_dict_view(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("keys", "values", "items")
                and not node.args and not node.keywords)

    def _unwrap(self, node: ast.expr) -> Tuple[ast.expr, bool]:
        """Peel transparent wrappers; True when an ordering wrapper was seen."""
        while (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.args):
            if node.func.id in _ORDERING_WRAPPERS:
                return node, True
            if node.func.id in _TRANSPARENT_WRAPPERS:
                node = node.args[0]
                continue
            break
        return node, False

    def _body_has_sink(self, body: Iterable[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Attribute) and node.func.attr in self._sinks:
                        return True
                    if isinstance(node.func, ast.Name) and node.func.id in self._sinks:
                        return True
        return False

    def _check_scope(self, scope: ast.AST, set_attrs: Set[str]) -> List[Finding]:
        findings: List[Finding] = []
        set_locals: Set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.expr):
                if self._is_set_expr(node.value, set_locals):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_locals.add(target.id)
        for node in ast.walk(scope):
            iters: List[Tuple[ast.expr, Optional[List[ast.stmt]], int, int]] = []
            if isinstance(node, ast.For):
                iters.append((node.iter, node.body, node.lineno, node.col_offset))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    iters.append((gen.iter, None, node.lineno, node.col_offset))
            for iterable, body, lineno, col in iters:
                unwrapped, ordered = self._unwrap(iterable)
                if ordered:
                    continue
                if self._is_set_iterable(unwrapped, set_locals, set_attrs):
                    findings.append((lineno, col,
                                     "iteration over a set; wrap the iterable in "
                                     "sorted(...) so the order is deterministic"))
                elif (self._is_dict_view(unwrapped) and body is not None
                        and self._body_has_sink(body)):
                    findings.append((lineno, col,
                                     "bare dict-view iteration feeding a "
                                     "scheduling/emission/hashing sink; iterate "
                                     "sorted(...) (insertion order is fragile "
                                     "under refactors)"))
        return findings


class HotPathSlots(Rule):
    id = "RPR004"
    title = "hot-path classes must declare complete __slots__"
    rationale = (
        "sim/, phy/, mac/ and channel/ allocate objects per event — per-"
        "instance __dict__ overhead dominated allocation cost before the "
        "PR 6 slots layout, and a self.<attr> missing from __slots__ is a "
        "latent AttributeError. Plain classes declare __slots__ covering "
        "every attribute they assign to self; dataclasses pass "
        "slots=True. Enums, Protocols and exception types are exempt "
        "(their metaclasses manage layout)."
    )

    _EXEMPT_BASES = {"Protocol", "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
                     "Exception", "BaseException", "TypedDict", "NamedTuple",
                     "ABC"}

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        module_classes = {n.name: n for n in ast.walk(tree)
                          if isinstance(n, ast.ClassDef)}
        for cls in module_classes.values():
            findings.extend(self._check_class(cls, module_classes))
        return findings

    def _base_names(self, cls: ast.ClassDef) -> List[str]:
        names = []
        for base in cls.bases:
            dotted = _dotted_name(base)
            if dotted is not None:
                names.append(dotted.split(".")[-1])
        return names

    def _dataclass_decorator(self, cls: ast.ClassDef) -> Optional[ast.AST]:
        for decorator in cls.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            dotted = _dotted_name(target)
            if dotted is not None and dotted.split(".")[-1] == "dataclass":
                return decorator
        return None

    def _own_slots(self, cls: ast.ClassDef) -> Optional[Set[str]]:
        """Names in the class's ``__slots__``, or None when undeclared."""
        for node in cls.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    value = node.value
                    names: Set[str] = set()
                    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                        for element in value.elts:
                            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                                names.add(element.value)
                    elif isinstance(value, ast.Constant) and isinstance(value.value, str):
                        names.add(value.value)
                    return names
        return None

    def _check_class(self, cls: ast.ClassDef,
                     module_classes: Dict[str, ast.ClassDef]) -> List[Finding]:
        base_names = self._base_names(cls)
        if any(b in self._EXEMPT_BASES or b.endswith(("Error", "Exception", "Warning"))
               for b in base_names):
            return []
        decorator = self._dataclass_decorator(cls)
        if decorator is not None:
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (keyword.arg == "slots" and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True):
                        return []
            return [(cls.lineno, cls.col_offset,
                     f"dataclass {cls.name} in a hot-path module must pass "
                     "slots=True")]

        own_slots = self._own_slots(cls)
        if own_slots is None:
            return [(cls.lineno, cls.col_offset,
                     f"class {cls.name} in a hot-path module must declare "
                     "__slots__")]

        # Coverage: every self.<attr> assigned anywhere in the class must be
        # slotted here or in a base resolvable within this module.
        known = set(own_slots)
        resolvable = True
        for base in base_names:
            if base == "object":
                continue
            base_cls = module_classes.get(base)
            if base_cls is None:
                resolvable = False
                break
            base_slots = self._own_slots(base_cls)
            if base_slots is None:
                resolvable = False
                break
            known |= base_slots
        if not resolvable:
            return []
        assigned: Set[str] = set()
        for method in _iter_class_methods(cls):
            assigned |= _self_assigned_attrs(method)
        missing = sorted(assigned - known)
        if missing:
            return [(cls.lineno, cls.col_offset,
                     f"class {cls.name}: attribute(s) {', '.join(missing)} are "
                     "assigned to self but missing from __slots__")]
        return []


class GuardedInstrumentation(Rule):
    id = "RPR005"
    title = "tracer emits must sit behind an enabled guard"
    rationale = (
        "The tracer is the one instrumentation channel, and it is off unless "
        "an observability session attaches a listener, so an unobserved run "
        "pays one attribute load and a branch per site. An unguarded "
        "tracer.emit(...) still builds its argument tuple and formats its "
        "fields (str(ip), ...) on every event — measurable at millions of "
        "events per run. Hoist `tracer = self.sim.tracer` and test "
        "`if tracer.enabled:` around the call. The emitter set is the RPR005 "
        "`guarded_calls` list in repro/lint/config.py (`receiver.method` "
        "specs)."
    )

    def _guard_specs(self, ctx: RuleContext) -> Dict[str, Set[str]]:
        """``receiver -> {methods}`` parsed from the rule's guarded_calls."""
        specs: Dict[str, Set[str]] = {}
        for spec in ctx.config.guarded_calls(self.id):
            receiver, dot, method = spec.rpartition(".")
            if not dot or not receiver or not method:
                continue
            specs.setdefault(receiver.lstrip("_"), set()).add(method)
        return specs

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        specs = self._guard_specs(ctx)
        findings: List[Finding] = []
        for func in [n for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
            findings.extend(self._check_function(func, specs))
        return findings

    def _is_instrument_call(self, node: ast.Call,
                            specs: Dict[str, Set[str]]) -> Optional[str]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver = _receiver_tail(func)
        if receiver is None:
            return None
        receiver = receiver.lstrip("_")
        if func.attr in specs.get(receiver, ()):
            return receiver
        return None

    def _test_mentions_enabled(self, test: ast.expr) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                return True
            if isinstance(node, ast.Name) and node.id == "enabled":
                return True
        return False

    def _has_early_return_guard(self, func: ast.FunctionDef) -> bool:
        """True for the ``if not self.enabled: return`` prologue pattern."""
        for stmt in func.body:
            if not isinstance(stmt, ast.If):
                continue
            if (self._test_mentions_enabled(stmt.test)
                    and any(isinstance(s, (ast.Return, ast.Raise)) for s in stmt.body)):
                return True
        return False

    def _check_function(self, func: ast.FunctionDef,
                        specs: Dict[str, Set[str]]) -> List[Finding]:
        if self._has_early_return_guard(func):
            return []
        findings: List[Finding] = []
        guarded: Set[int] = set()
        # Mark every node under an enabled-testing If/IfExp/BoolOp as guarded.
        for node in ast.walk(func):
            test: Optional[ast.expr] = None
            covered: List[ast.AST] = []
            if isinstance(node, ast.If):
                test, covered = node.test, list(node.body)
            elif isinstance(node, ast.IfExp):
                test, covered = node.test, [node.body]
            elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
                test, covered = node.values[0], list(node.values[1:])
            if test is None or not self._test_mentions_enabled(test):
                continue
            for stmt in covered:
                for child in ast.walk(stmt):
                    guarded.add(id(child))
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and id(node) not in guarded:
                kind = self._is_instrument_call(node, specs)
                if kind is not None:
                    findings.append((node.lineno, node.col_offset,
                                     f"unguarded {kind} instrumentation call on the "
                                     f"hot path; test `.enabled` first"))
        return findings


class NoMutableDefaults(Rule):
    id = "RPR006"
    title = "no mutable default arguments"
    rationale = (
        "A mutable default ([], {}, set()) is evaluated once at definition "
        "time and shared by every call — scheduler callbacks that capture "
        "one leak state across simulator instances and across campaign "
        "jobs, which corrupts replay determinism in ways that only "
        "reproduce after specific call sequences. Default to None and "
        "construct inside the function."
    )

    _MUTABLE_CALLS = {"list", "dict", "set", "deque", "defaultdict",
                      "OrderedDict", "Counter", "bytearray"}

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is not None and dotted.split(".")[-1] in self._MUTABLE_CALLS:
                # frozenset() and tuple() would be fine, but they are not in
                # the mutable call set; set()/list()/dict() etc. are shared.
                return True
        return False

    def check(self, tree: ast.Module, ctx: RuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None]
                for default in defaults:
                    if self._is_mutable(default):
                        name = getattr(node, "name", "<lambda>")
                        findings.append((default.lineno, default.col_offset,
                                         f"mutable default argument in {name}(); "
                                         "use None and construct per call"))
        return findings


#: Registry in rule-id order; the engine and CLI iterate this.
RULES: Tuple[Rule, ...] = (
    NoRawRandomness(),
    NoWallClock(),
    SortedSetIteration(),
    HotPathSlots(),
    GuardedInstrumentation(),
    NoMutableDefaults(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}
