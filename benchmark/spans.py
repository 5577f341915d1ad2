"""Span tracing of the vsmm layers, applied from outside the library.

``Tracer.install`` replaces each traced public function with a wrapper that
records a span, at every name its callers resolve: module-level functions
are swapped in every ``vsmm`` module that bound them (``from .protocols
import op`` binds ``op`` in the importer), methods are swapped on their
class. ``Tracer.uninstall`` puts the originals back.

Spans nest per thread through a thread-local stack. The party threads'
root spans take the ``runtime.run_two_party`` span of the main thread as
their parent. Spans stay in memory until ``Tracer.to_json``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


class TraceError(RuntimeError):
    """A traced name no longer resolves, or a traced run broke an invariant."""


# (layer, attribute path in the layer's module, span name). ``ring`` has no
# span: its helpers are elementwise numpy calls whose cost stays in the caller.
TARGETS = (
    ("gcn", "normalize_adjacency", "gcn.normalize_adjacency"),
    ("gcn", "train_secure", "gcn.train_secure"),
    ("gcn", "infer_secure", "gcn.infer_secure"),
    ("decompose", "decompose_full", "decompose.decompose_full"),
    ("dealer", "Dealer.gen_op_rand", "dealer.op"),
    ("dealer", "Dealer.gen_osm_rand", "dealer.osm"),
    ("dealer", "Dealer.gen_privmul", "dealer.privmul"),
    ("dealer", "Dealer.gen_beaver", "dealer.beaver"),
    ("dealer", "Dealer.gen_square", "dealer.square"),
    ("dealer", "Dealer.gen_bit_triples", "dealer.bits"),
    ("dealer", "PrfStream.permutation", "dealer.permutation"),
    ("runtime", "run_two_party", "runtime.run_two_party"),
    ("runtime", "Endpoint.send", "runtime.send"),
    ("runtime", "Endpoint.recv", "runtime.recv"),
    ("runtime", "PartyContext.send_perm", "runtime.send_perm"),
    ("runtime", "PartyContext.recv_perm", "runtime.recv_perm"),
    ("runtime", "PartyContext.send_bits", "runtime.send_bits"),
    ("runtime", "PartyContext.recv_bits", "runtime.recv_bits"),
    ("protocols", "op", "protocols.op"),
    ("protocols", "osm", "protocols.osm"),
    ("protocols", "priv_mult", "protocols.priv_mult"),
    ("protocols", "beaver_mult", "protocols.beaver_mult"),
    ("protocols", "beaver_square", "protocols.beaver_square"),
    ("protocols", "and_bits", "protocols.and_bits"),
    ("protocols", "reveal", "protocols.reveal"),
    ("smm", "smm", "smm.smm"),
    ("smm", "smm_transpose", "smm.smm_transpose"),
    ("binary", "relu", "binary.relu"),
    ("binary", "bit_decompose", "binary.bit_decompose"),
    ("binary", "highest_one_hot", "binary.highest_one_hot"),
    ("nonlinear", "softmax_rows", "nonlinear.softmax_rows"),
    ("nonlinear", "adam_step", "nonlinear.adam_step"),
    ("nonlinear", "rsqrt_eps", "nonlinear.rsqrt_eps"),
    ("nonlinear", "sgd_step", "nonlinear.sgd_step"),
)

SMM = ("smm.smm", "smm.smm_transpose")
PACK = ("runtime.send_perm", "runtime.recv_perm", "runtime.send_bits",
        "runtime.recv_bits")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: str            # "main", "p0" or "p1"
    start: float           # perf_counter seconds
    end: float = 0.0
    cpu: float = 0.0       # thread CPU seconds, inclusive
    bits: int = 0          # online bits this thread sent, inclusive
    rounds: int = 0        # this party's clock delta
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


def _clock(obj) -> int | None:
    """The logical round clock of a PartyContext or Endpoint argument."""
    ep = getattr(obj, "ep", obj)
    clock = getattr(ep, "clock", None)
    return clock if isinstance(clock, int) else None


def _smm_shape(name: str, args) -> dict:
    """Public (m, n, t, d) of an smm call: X is (n, d), G is (m, d)."""
    dims, x = args[2], args[3]
    rows = dims.n if name == "smm.smm" else dims.m
    return {"m": dims.m, "n": dims.n, "t": dims.t,
            "d": int(getattr(x, "size", 0)) // rows}


def _send_bits(args, kwargs) -> int:
    payload = args[1]
    nbits = kwargs.get("nbits", args[2] if len(args) > 2 else None)
    return len(payload) * 8 if nbits is None else nbits


class Tracer:
    """Wraps the traced functions and records one Span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # recording ------------------------------------------------------------

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack, tls.bits, tls.thread, tls.root_parent = [], 0, "main", None
        return tls

    def _open(self, name: str, clock_src) -> tuple[Span, int | None]:
        tls = self._state()
        parent = tls.stack[-1] if tls.stack else None
        with self._lock:
            span = Span(len(self.spans),
                        parent.id if parent else tls.root_parent, name,
                        tls.thread, 0.0)
            self.spans.append(span)
        tls.stack.append(span)
        # bits and cpu hold the start readings until _close turns them into deltas
        span.bits = tls.bits
        clock = _clock(clock_src)
        span.cpu = time.thread_time()
        span.start = time.perf_counter()
        return span, clock

    def _close(self, span: Span, clock0, clock_src) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        tls = self._state()
        tls.stack.pop()
        span.bits = tls.bits - span.bits
        if clock0 is not None:
            span.rounds = _clock(clock_src) - clock0

    def _wrap(self, name: str, fn):
        if name == "runtime.run_two_party":
            return self._wrap_run_two_party(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            src = args[0] if args else None
            span, clock0 = tracer._open(name, src)
            try:
                if name == "runtime.send":
                    tracer._tls.bits += _send_bits(args, kwargs)
                elif name in SMM and len(args) > 3:
                    span.attrs = _smm_shape(name, args)
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, clock0, src)

        return traced

    def _wrap_run_two_party(self, fn):
        """Run each party's protocol under a root span of its own thread,
        parented to the run_two_party span of the calling thread."""
        tracer = self

        @functools.wraps(fn)
        def traced(protocol, *args, **kwargs):
            outer, _ = tracer._open("runtime.run_two_party", None)
            root_name = "gcn." + protocol.__name__.lstrip("_")

            def party_root(ctx, *inputs):
                tls = tracer._state()
                tls.thread, tls.root_parent = f"p{ctx.party}", outer.id
                span, clock0 = tracer._open(root_name, ctx)
                try:
                    return protocol(ctx, *inputs)
                finally:
                    tracer._close(span, clock0, ctx)

            try:
                return fn(party_root, *args, **kwargs)
            finally:
                tracer._close(outer, None, None)

        return traced

    # installation ---------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raise TraceError naming the layer of the first
        target that no longer resolves."""
        modules = {m: importlib.import_module(f"vsmm.{m}")
                   for m in ("ring", "dealer", "runtime", "decompose",
                             "protocols", "smm", "binary", "nonlinear", "gcn",
                             "cli")}
        try:
            for layer, path, name in targets:
                owner = modules[layer]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                    if owner is None:
                        break
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    raise TraceError(
                        f"layer {layer}: vsmm.{layer}.{path} no longer resolves")
                wrapped = self._wrap(name, fn)
                if outer:
                    self._patch(owner, attr, wrapped)
                    continue
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # output ---------------------------------------------------------------

    def to_json(self) -> list[dict]:
        self_s = self_times(self.spans)
        return [{
            "id": s.id, "parent": s.parent, "name": s.name, "thread": s.thread,
            "start": s.start, "end": s.end, "wall_s": s.wall,
            "self_s": self_s[s.id], "cpu_s": s.cpu, "bits": s.bits,
            "rounds": s.rounds, **({"attrs": s.attrs} if s.attrs else {}),
        } for s in self.spans]


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's wall duration minus the part of its interval covered by
    the union of its children's intervals (children may overlap when they
    run in different threads)."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in kids[s.id]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.wall - covered
    return out


def self_cpu(spans: list[Span]) -> dict[int, float]:
    """Thread CPU minus the CPU of same-thread children (which run in
    sequence, so their CPU is disjoint from each other's)."""
    kids = children_of(spans)
    return {s.id: s.cpu - sum(c.cpu for c in kids[s.id] if c.thread == s.thread)
            for s in spans}


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-name totals over both parties.

    ``calls`` counts spans; ``wall_s``, ``cpu_s`` and ``bytes`` sum their
    inclusive values (no traced function calls itself); ``self_s`` sums self
    wall time; ``rounds`` is the larger of the two parties' summed clock
    deltas.
    """
    self_w, self_c = self_times(spans), self_cpu(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for name, group in by_name.items():
        per_party: dict[str, int] = defaultdict(int)
        for s in group:
            per_party[s.thread] += s.rounds
        out[f"{name}.calls"] = len(group)
        out[f"{name}.wall_s"] = sum(s.wall for s in group)
        out[f"{name}.cpu_s"] = sum(s.cpu for s in group)
        out[f"{name}.self_s"] = sum(self_w[s.id] for s in group)
        out[f"{name}.bytes"] = sum(s.bits for s in group) / 8
        out[f"{name}.rounds"] = max(per_party.values(), default=0)
    for party in ("p0", "p1"):
        out[f"runtime.recv.wait_s.{party}"] = sum(
            s.wall for s in by_name["runtime.recv"] if s.thread == party)
    out["runtime.pack.cpu_s"] = sum(
        self_c[s.id] for name in PACK for s in by_name[name])
    out["gcn.self_s"] = sum(
        self_w[s.id] for name, group in by_name.items()
        if name.startswith("gcn.") and name != "gcn.normalize_adjacency"
        for s in group)
    return out
