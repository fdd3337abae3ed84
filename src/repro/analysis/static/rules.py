"""The detlint rule catalogue.

Each rule encodes one determinism / kernel-protocol invariant this codebase
depends on (see the README "Static analysis" section for the rationale of
each).  Rules are AST visitors: they get a parsed module plus a
:class:`RuleContext` and yield :class:`Finding`\\ s.  Register new rules
with :func:`register`; the CLI and baseline machinery pick them up from
:data:`RULES` automatically.

Scoping: a rule only runs on files whose (posix) path contains one of its
``scope`` substrings and none of its ``exclude`` substrings.  Paths are
matched as substrings so the same rule applies to ``src/repro/oar/...`` in
the repo and ``fixtures/oar/...`` in the test suite.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding

__all__ = ["Rule", "RuleContext", "RULES", "register"]


class RuleContext:
    """Per-file context handed to every rule."""

    def __init__(self, path: str, lines: Sequence[str]) -> None:
        self.path = path
        self.lines = lines

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        text = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(path=self.path, line=line, col=col,
                       rule=rule.id, message=message, line_text=text)


class Rule:
    """Base class: one invariant, one id, one AST check."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: Path substrings the rule is limited to ("" scope = every file).
    scope: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if any(part in path for part in self.exclude):
            return False
        return not self.scope or any(part in path for part in self.scope)

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        raise NotImplementedError


RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return cls


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------

def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the fully-qualified thing they import.

    ``import time as t``          -> {"t": "time"}
    ``from datetime import date`` -> {"date": "datetime.date"}
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _resolve_call(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted path of a call target, alias-expanded."""
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in aliases:
        dotted = aliases[head] + ("." + rest if rest else "")
    return dotted


def _function_bodies(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_same_function(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope in document order, not descending into nested defs."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield from _walk_same_function(child)


# --------------------------------------------------------------------------
# DET001 — unordered iteration
# --------------------------------------------------------------------------

_SET_BUILTINS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference",
                "copy"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "AbstractSet",
                    "MutableSet", "KeysView"}


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    name = _dotted_name(node)
    return bool(name) and name.split(".")[-1] in _SET_ANNOTATIONS


class _SetEnv:
    """Names known (per scope / per module) to hold sets.

    ``names`` are scope locals, ``attrs`` attribute names seen annotated or
    assigned as sets anywhere in the module (matched on any object, not
    just ``self`` — set-typed dataclass fields travel between modules),
    and ``set_funcs`` local function/method names whose return annotation
    is a set.
    """

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()
        self.set_funcs: Set[str] = set()

    def holds_set(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs
        return False


def _is_set_expr(node: ast.AST, env: _SetEnv) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _SET_BUILTINS:
            return True
        if isinstance(node.func, ast.Name) and \
                node.func.id in env.set_funcs:
            return True
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "keys":
                return True
            if node.func.attr in env.set_funcs:
                return True
            if node.func.attr in _SET_METHODS and \
                    _is_set_expr(node.func.value, env):
                return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_set_expr(node.left, env) or _is_set_expr(node.right, env)
    return env.holds_set(node)


def _collect_module_env(tree: ast.Module) -> _SetEnv:
    """Module-wide facts: set-typed attribute names and set-returning
    functions (matched by name — a per-module heuristic, deliberately
    simple; detlint is a tripwire, not a type checker)."""
    env = _SetEnv()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _annotation_is_set(node.returns):
                env.set_funcs.add(node.name)
        elif isinstance(node, ast.AnnAssign) and \
                _annotation_is_set(node.annotation) and \
                isinstance(node.target, ast.Attribute):
            env.attrs.add(node.target.attr)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Attribute) and \
                _is_set_expr(node.value, env):
            env.attrs.add(node.targets[0].attr)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name) and \
                        _annotation_is_set(stmt.annotation):
                    env.attrs.add(stmt.target.id)
    return env


def _collect_set_env(scope: ast.AST, env: _SetEnv) -> None:
    """Record names assigned/annotated as sets anywhere in ``scope``."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_set(arg.annotation):
                env.names.add(arg.arg)
    for node in _walk_same_function(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, is_set = node.targets[0], _is_set_expr(node.value, env)
            if isinstance(target, ast.Name):
                (env.names.add if is_set else env.names.discard)(target.id)
        elif isinstance(node, ast.AnnAssign):
            is_set = _annotation_is_set(node.annotation) or (
                node.value is not None and _is_set_expr(node.value, env))
            target = node.target
            if is_set and isinstance(target, ast.Name):
                env.names.add(target.id)
            elif is_set and isinstance(target, ast.Attribute):
                env.attrs.add(target.attr)


@register
class UnorderedIteration(Rule):
    id = "DET001"
    title = "unordered set iteration"
    rationale = ("Iterating a set (or dict.keys() of one) in scheduling, "
                 "kernel or service code makes event order depend on hash "
                 "seeds; wrap the iterable in sorted() to pin it.")
    scope = ("scheduling/", "oar/", "service/", "util/", "monitoring/",
             "faults/", "core/")

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        # Module-wide facts (set-typed attributes, set-returning functions)
        # are shared; each scope (module body, then every function) then
        # layers its own locals on top.  _walk_same_function keeps scope
        # walks disjoint, so every site is checked exactly once.
        module_env = _collect_module_env(tree)
        scopes: List[ast.AST] = [tree, *_function_bodies(tree)]
        for scope in scopes:
            env = _SetEnv()
            env.attrs = module_env.attrs
            env.set_funcs = module_env.set_funcs
            _collect_set_env(scope, env)
            for node in _walk_same_function(scope):
                yield from self._check_node(node, env, ctx)

    def _check_node(self, node: ast.AST, env: _SetEnv,
                    ctx: RuleContext) -> Iterator[Finding]:
        sites: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            sites.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            # SetComp / GeneratorExp sinks are order-insensitive (a set
            # again, or an aggregator like sorted()/sum()/any()).
            sites.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple", "enumerate") and node.args:
            sites.append(node.args[0])
        for site in sites:
            if _is_set_expr(site, env):
                yield ctx.finding(
                    self, site,
                    "iteration over an unordered set — wrap it in sorted() "
                    "to pin event order")


# --------------------------------------------------------------------------
# DET002 — wall-clock time
# --------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClock(Rule):
    id = "DET002"
    title = "wall-clock time in simulation code"
    rationale = ("Simulated code must read sim.now; a wall clock makes "
                 "reports depend on host speed and run date.")
    exclude = ("benchmarks/",)

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve_call(node, aliases)
            if dotted in _WALL_CLOCK:
                yield ctx.finding(
                    self, node,
                    f"wall-clock call {dotted}() — simulation code must use "
                    "sim.now (host-side infra may suppress with a comment)")


# --------------------------------------------------------------------------
# DET003 — stray randomness
# --------------------------------------------------------------------------

_NP_RANDOM_OK = {"numpy.random.SeedSequence", "numpy.random.Generator",
                 "numpy.random.BitGenerator", "numpy.random.PCG64"}


@register
class StrayRandomness(Rule):
    id = "DET003"
    title = "randomness outside the named-stream factory"
    rationale = ("All randomness flows through util/rng.py RngStreams so "
                 "subsystems stay draw-order independent; stdlib random and "
                 "ad-hoc numpy generators bypass the campaign seed.")
    exclude = ("util/rng.py",)

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve_call(node, aliases)
            if dotted is None:
                continue
            if dotted.startswith("random."):
                yield ctx.finding(
                    self, node,
                    f"stdlib {dotted}() bypasses the campaign seed — draw "
                    "from RngStreams (util/rng.py) instead")
            elif dotted.startswith("numpy.random.") \
                    and dotted not in _NP_RANDOM_OK:
                yield ctx.finding(
                    self, node,
                    f"{dotted}() outside util/rng.py — all streams come "
                    "from the RngStreams named-stream factory")


# --------------------------------------------------------------------------
# KRN101 — kernel yield protocol
# --------------------------------------------------------------------------

_KERNEL_FACTORIES = {"timeout", "event", "process", "any_of", "all_of",
                     "request"}
_LITERALS = (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set,
             ast.JoinedStr)


@register
class KernelYieldProtocol(Rule):
    id = "KRN101"
    title = "sim process yielding a non-event"
    rationale = ("The event kernel resumes a process with the yielded "
                 "Event's value; a bare yield or literal yield kills the "
                 "process with SimulationError at runtime.")

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        for fn in _function_bodies(tree):
            yields = [n for n in _walk_same_function(fn)
                      if isinstance(n, ast.Yield)]
            if not yields:
                continue
            if not any(self._is_kernel_wait(y.value) for y in yields):
                continue  # a data generator, not a sim process
            for y in yields:
                if y.value is None:
                    yield ctx.finding(
                        self, y,
                        "bare yield in a sim process — the kernel needs an "
                        "Event (use yield sim.timeout(0) to cede the turn)")
                elif isinstance(y.value, _LITERALS):
                    yield ctx.finding(
                        self, y,
                        "sim process yields a literal, not an Event — the "
                        "kernel will kill the process with SimulationError")

    @staticmethod
    def _is_kernel_wait(value: Optional[ast.AST]) -> bool:
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _KERNEL_FACTORIES)


# --------------------------------------------------------------------------
# SER201 — mutable dataclass defaults
# --------------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque", "defaultdict",
                  "Counter", "OrderedDict"}
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)


def _is_dataclass_decorator(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = _dotted_name(node)
    return bool(name) and name.split(".")[-1] == "dataclass"


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return bool(name) and name.split(".")[-1] in _MUTABLE_CALLS
    return False


@register
class MutableDataclassDefault(Rule):
    id = "SER201"
    title = "mutable dataclass default"
    rationale = ("A mutable default is shared by every instance (the "
                 "CampaignConfig bug PR 1 fixed); use "
                 "field(default_factory=...).")

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not any(_is_dataclass_decorator(d) for d in cls.decorator_list):
                continue
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                    continue
                value = stmt.value
                if isinstance(value, ast.Call):
                    name = _dotted_name(value.func)
                    if name and name.split(".")[-1] == "field":
                        for kw in value.keywords:
                            if kw.arg == "default" and \
                                    _is_mutable_default(kw.value):
                                yield ctx.finding(
                                    self, value,
                                    "field(default=<mutable>) is shared "
                                    "across instances — use default_factory")
                        continue
                if _is_mutable_default(value):
                    yield ctx.finding(
                        self, value,
                        "mutable dataclass default is shared across "
                        "instances — use field(default_factory=...)")


# --------------------------------------------------------------------------
# PRF401 — per-node park scans on the scheduler tick path
# --------------------------------------------------------------------------

#: Functions that run on every scheduler/elastic tick (or inside every
#: placement).  Their availability questions go to Gantt's
#: ResourceProfile, their liveness questions to the park's alive mask.
_TICK_PATH_FUNCS = {
    "_schedule_pass", "_replan_future_jobs", "_find_assignment",
    "on_tick", "elastic_tick", "_expand",
    "_reclaim", "_negotiate", "grow_candidates", "_free_alive",
    "resources_available", "availability", "earliest_start",
    "_try_start", "grow", "evict_dead_nodes", "utilization",
    "cluster_states", "_counts", "due_cells",
}
#: Attributes holding the whole park (node lists, per-node maps).
_PARK_ATTRS = {"nodes", "machines", "timelines"}
#: What a tick must not iterate whole: the park, and every test cell of
#: a scheduler (a tick reads its due cells from the due index).
_SCAN_ATTRS = _PARK_ATTRS | {"cells"}
#: Methods returning the whole park.
_PARK_CALLS = {"node_uids", "alive_nodes", "iter_nodes"}
_PARK_WRAPPERS = {"sorted", "list", "tuple", "reversed", "enumerate"}
#: Calls whose answer does not change inside one tick's loop (the running
#: jobs, their malleable subset, a donor's feasibility floor): evaluated
#: per iteration they repeat O(jobs) work the tick can do once.
_TICK_INVARIANT_CALLS = {"running_jobs", "_running_malleable",
                         "_feasible_floor"}
#: Calls a tick makes at most once: a replan pass re-places the whole
#: touched queue, so the tick ORs what it freed into one mask and replans
#: after its loops.
_ONCE_PER_TICK_CALLS = {"replan_now"}


def _is_park_iterable(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _SCAN_ATTRS
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _PARK_CALLS:
                return True
            if func.attr in ("keys", "values", "items"):
                return _is_park_iterable(func.value)
        if isinstance(func, ast.Name) and func.id in _PARK_WRAPPERS \
                and node.args:
            return _is_park_iterable(node.args[0])
    return False


def _per_iteration(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``fn`` evaluated once per iteration of a loop or
    comprehension (loop bodies, comprehension elements and filters)."""
    for node in _walk_same_function(fn):
        roots: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            roots = list(node.body)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            roots = [n for n in ast.iter_child_nodes(node)
                     if not isinstance(n, ast.comprehension)]
            roots += [cond for gen in node.generators for cond in gen.ifs]
        for root in roots:
            yield root
            yield from _walk_same_function(root)


def _is_park_lookup(node: ast.AST) -> bool:
    """``machines[uid]`` / ``park[uid]``: one node fetched from the park."""
    if not isinstance(node, ast.Subscript):
        return False
    name = _dotted_name(node.value)
    return name is not None and name.split(".")[-1] in _PARK_ATTRS | {"park"}


def _liveness_reads(node: ast.AST) -> Iterator[ast.AST]:
    """Per-node liveness queries: ``node_state(...)`` calls, ``.available``
    reads, and power-state reads (``.state`` of a park lookup, or compared
    with a ``PowerState`` member)."""
    if isinstance(node, ast.Call):
        if (_dotted_name(node.func) or "").split(".")[-1] == "node_state":
            yield node
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr == "available" or (
                node.attr == "state" and _is_park_lookup(node.value)):
            yield node
    elif isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        if any("PowerState" in (_dotted_name(side) or "").split(".")[:-1]
               for side in sides):
            yield from (side for side in sides
                        if isinstance(side, ast.Attribute)
                        and side.attr == "state")


@register
class TickPathParkScan(Rule):
    id = "PRF401"
    title = "per-node park scan on the scheduler tick path"
    rationale = ("Tick-path code answers availability questions through "
                 "the maintained ResourceProfile (one O(log n) query) and "
                 "liveness questions through the park's alive mask; a "
                 "loop over the park's node/timeline collections, or a "
                 "per-node state query inside a loop, reintroduces the "
                 "O(nodes)-per-tick rescans the masks removed.  Likewise "
                 "the running-job list and a donor's feasibility floor "
                 "hold still inside a tick's loops: ask once per tick.  "
                 "A loop over every test cell of a scheduler is the same "
                 "rescan: due cells come from the due index.  A replan "
                 "pass re-places the whole touched queue, so a tick "
                 "replans once, after its loops, over everything it "
                 "freed.")
    scope = ("scheduling/", "oar/")

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        for fn in _function_bodies(tree):
            if fn.name not in _TICK_PATH_FUNCS:
                continue
            for node in _walk_same_function(fn):
                sites: List[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    sites.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    sites.extend(gen.iter for gen in node.generators)
                for site in sites:
                    if _is_park_iterable(site):
                        yield ctx.finding(
                            self, site,
                            f"O(park) iteration inside {fn.name}() — ask "
                            "the availability profile (Gantt.profile_* / "
                            "free_uids) or the scheduler's due index "
                            "instead of rescanning the park or its cells")
            seen: Set[int] = set()
            for node in _per_iteration(fn):
                for read in _liveness_reads(node):
                    if id(read) in seen:
                        continue
                    seen.add(id(read))
                    yield ctx.finding(
                        self, read,
                        f"per-node liveness query in a loop inside "
                        f"{fn.name}() — AND with MachinePark.alive_mask "
                        "instead of asking each node")
                if isinstance(node, ast.Call) and id(node) not in seen:
                    name = (_dotted_name(node.func) or "").split(".")[-1]
                    if name in _TICK_INVARIANT_CALLS:
                        seen.add(id(node))
                        yield ctx.finding(
                            self, node,
                            f"{name}() evaluated per loop iteration inside "
                            f"{fn.name}() — compute it once per tick (a "
                            "table rebuilt only when a resize changes it)")
                    elif name in _ONCE_PER_TICK_CALLS:
                        seen.add(id(node))
                        yield ctx.finding(
                            self, node,
                            f"{name}() evaluated per loop iteration inside "
                            f"{fn.name}() — OR the freed masks together "
                            "and replan once per tick, after the loop")


# --------------------------------------------------------------------------
# ERR301 — exception swallowing in session/kernel plumbing
# --------------------------------------------------------------------------

_BROAD_EXC = {"Exception", "BaseException"}


@register
class BroadExcept(Rule):
    id = "ERR301"
    title = "broad except in session/kernel plumbing"
    rationale = ("A bare/broad except here can swallow SessionClosed or "
                 "kernel control-flow exceptions (Interrupt, StopIteration "
                 "wrappers), leaving a session half-dead; catch the narrow "
                 "type or re-raise.")
    scope = ("service/", "util/events.py")

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if any(isinstance(n, ast.Raise)
                   for stmt in node.body
                   for n in [stmt, *_walk_same_function(stmt)]):
                continue  # handler re-raises: nothing is swallowed
            what = "bare except" if node.type is None else \
                f"except {_dotted_name(node.type) or 'Exception'}"
            yield ctx.finding(
                self, node,
                f"{what} can swallow SessionClosed / kernel control-flow "
                "exceptions — catch the narrow type or re-raise")

    @staticmethod
    def _is_broad(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(BroadExcept._is_broad(e) for e in type_node.elts)
        name = _dotted_name(type_node)
        return bool(name) and name.split(".")[-1] in _BROAD_EXC


# --------------------------------------------------------------------------
# ERR302 — unbounded sleep/retry loops in resilience plumbing
# --------------------------------------------------------------------------


@register
class UnboundedRetrySleep(Rule):
    id = "ERR302"
    title = "sleep inside an unbounded loop"
    rationale = ("Retry/poll loops in the service layer and the campaign "
                 "supervisor must bound every wait — a deadline, an attempt "
                 "cap, or a work-remaining check.  A time.sleep() inside a "
                 "while-loop whose condition compares nothing spins forever "
                 "once the peer (or worker) is gone.")
    scope = ("service/", "core/batch.py")

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        seen: Set[int] = set()
        for loop in ast.walk(tree):
            if not isinstance(loop, ast.While):
                continue
            if any(isinstance(n, ast.Compare) for n in ast.walk(loop.test)):
                continue  # the condition measures progress against a bound
            # _walk_same_function keeps nested defs out: a closure defined
            # inside the loop does not sleep on every iteration.
            for node in _walk_same_function(loop):
                if (isinstance(node, ast.Call)
                        and _resolve_call(node, aliases) == "time.sleep"
                        and id(node) not in seen):
                    seen.add(id(node))
                    yield ctx.finding(
                        self, node,
                        "time.sleep() in a loop with no bounding comparison "
                        "— gate the loop on a deadline or attempt cap so a "
                        "dead peer cannot spin this wait forever")
