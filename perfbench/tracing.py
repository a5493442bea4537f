"""Span recording from outside the program, for the traced run.

:class:`Tracer` wraps public functions of each layer for the duration
of one traced run (``with Tracer() as tracer: ...``) and restores them
afterwards. Nothing inside ``src/`` knows about it, and the wrappers
never schedule events or draw random numbers, so a traced run is
event-for-event identical to an untraced one on the sim clock (the
benchmark checks this on every traced run).

A span records its layer, name, parent span, request id, sim start and
end, and host nanoseconds. Generator functions are wrapped so that host
time adds up across every resume. The current simulated process is
known because :meth:`Simulator.spawn` is wrapped too: each process's
generator runs inside a thin driver that marks the process current on
every resume. A server thread's spans belong to the request it is
serving (the request id travels with the operation object from
``RpcClient.trans`` to ``RpcServer.getreq``); the group thread's apply
and persist spans carry the seqnos of the batch they work on, which is
how a waiting ``wait_applied`` finds them.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from time import perf_counter_ns

from repro.directory.admin import AdminPartition
from repro.directory.client import DirectoryClient
from repro.directory.state import DirectoryState
from repro.group.member import GroupMember
from repro.net.network import Network
from repro.rpc.client import RpcClient
from repro.rpc.server import ReplyHandle, RpcServer
from repro.sim.resources import Cpu
from repro.sim.scheduler import Simulator
from repro.storage.bullet import BulletClient
from repro.storage.disk import Disk

LAYERS = ("driver", "rpc", "net", "group", "directory", "storage")


class Span:
    __slots__ = ("sid", "layer", "name", "parent", "rid", "t0", "t1",
                 "host_ns", "kids_host", "node", "batch", "failed", "arg")

    def __init__(self, sid, layer, name, parent, rid, t0, node, batch, arg=None):
        self.sid = sid
        self.layer = layer
        self.name = name
        self.parent = parent
        self.rid = rid
        self.t0 = t0
        self.t1 = None
        self.host_ns = 0
        self.kids_host = 0
        self.node = node
        self.batch = batch
        self.failed = False
        self.arg = arg

    def as_dict(self):
        return {
            "id": self.sid, "layer": self.layer, "name": self.name,
            "parent": self.parent.sid if self.parent is not None else None,
            "rid": self.rid, "sim_start": self.t0, "sim_end": self.t1,
            "host_ns": self.host_ns, "node": self.node,
        }


class Ctx:
    """Per-process tracing context."""

    __slots__ = ("name", "node", "stack", "batch")

    def __init__(self, name, node, batch, base):
        self.name = name
        self.node = node
        self.stack = [base] if base is not None else []
        self.batch = batch


def _node_of(process_name: str) -> str:
    parts = process_name.split(".")
    return ".".join(parts[:2]) if parts[0] == "dir" else process_name


class Tracer:
    """Installs the wrappers; collects spans and per-call counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cur: Ctx | None = None
        self.sim = None
        #: Plain-function call counts and host ns: name -> [calls, ns].
        self.calls = defaultdict(lambda: [0, 0])
        self.rid_of_body: dict[int, tuple] = {}
        self.req_sends: dict[int, list] = defaultdict(list)
        self.serve_of_handle: dict[int, tuple] = {}
        self.serves: dict[int, list] = defaultdict(list)
        self.batches: list[int] = []  # size of each group-thread batch
        self._next_rid = 0
        self._next_sid = 0
        self._saved = []

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. the deployment's
        boot); the per-process contexts stay in place."""
        self.spans.clear()
        for stats in self.calls.values():  # wrappers hold these lists
            stats[:] = [0, 0]
        self.req_sends.clear()
        self.serves.clear()
        self.batches.clear()

    # -- install / uninstall --------------------------------------------

    def __enter__(self):
        gen = self._wrap_gen
        plain = self._wrap_plain
        directory_ops = ("lookup_set", "append_row", "delete_row", "list_dir")
        for attr in directory_ops:
            gen(DirectoryClient, attr, "directory", "dir.client." + attr)
        gen(RpcClient, "trans", "rpc", "rpc.trans", rid_arg=2)
        gen(GroupMember, "send_to_group", "group", "group.send")
        gen(GroupMember, "wait_applied", "group", "group.wait_applied", keep_arg=1)
        gen(GroupMember, "reset", "group", "group.reset")
        for attr in ("commit_batch", "store_entry", "remove_entry", "store_session"):
            gen(AdminPartition, attr, "directory", "dir.persist")
        gen(Cpu, "use", None, "cpu.use")
        for attr in ("write_blocks", "write_block", "read_block"):
            gen(Disk, attr, "storage", "disk." + attr, keep_arg=1)
        gen(BulletClient, "create", "storage", "bullet.create")
        gen(BulletClient, "delete", "storage", "bullet.delete")
        plain(DirectoryState, "query", "dir.query")
        plain(DirectoryState, "apply", "dir.apply")
        self._patch(GroupMember, "receive", self._receive(GroupMember.receive))
        self._patch(GroupMember, "receive_ready",
                    self._receive_ready(GroupMember.receive_ready))
        self._patch(Network, "transmit", self._transmit(Network.transmit))
        self._patch(RpcServer, "getreq", self._getreq(RpcServer.getreq))
        self._patch(ReplyHandle, "reply", self._replied(ReplyHandle.reply))
        self._patch(ReplyHandle, "error", self._replied(ReplyHandle.error, failed=True))
        self._patch(Simulator, "spawn", self._spawn(Simulator.spawn))
        return self

    def __exit__(self, *exc):
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()
        return False

    def _patch(self, cls, attr, replacement):
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, layer, name, rid=None, t0=None, arg=None):
        ctx = self.cur
        if ctx is None:
            parent, node, batch = None, None, None
        else:
            parent = ctx.stack[-1] if ctx.stack else None
            node, batch = ctx.node, ctx.batch
        self._next_sid += 1
        span = Span(self._next_sid, layer, name, parent, rid,
                    self.sim.now if t0 is None else t0, node, batch, arg)
        self.spans.append(span)
        return span

    def _close(self, span, host_ns):
        span.t1 = self.sim.now
        span.host_ns = host_ns
        ctx = self.cur
        if span.parent is not None and ctx is not None and span.parent in ctx.stack:
            span.parent.kids_host += host_ns

    def _charge_parent(self, ns):
        ctx = self.cur
        if ctx is not None and ctx.stack:
            ctx.stack[-1].kids_host += ns

    def open_op(self, kind, due):
        """Root span of one user operation (the driver's hook)."""
        span = self._open("driver", "op." + kind, t0=due)
        stack = self.cur.stack
        stack.append(span)

        class _Op:
            def close(self, end):
                span.t1 = end
                stack.remove(span)

        return _Op()

    # -- wrappers -----------------------------------------------------------

    def _wrap_gen(self, cls, attr, layer, name, rid_arg=None, keep_arg=None):
        original = cls.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if rid_arg is not None:
                body = args[rid_arg] if len(args) > rid_arg else kwargs.get("body")
                tracer._next_rid += 1
                rid = tracer._next_rid
                tracer.rid_of_body[id(body)] = (body, rid)
            else:
                body, rid = None, None
            span_layer = layer
            if span_layer is None:  # Cpu.use: the machine decides the layer
                span_layer = "storage" if ".bullet" in args[0].node else "directory"
            arg = args[keep_arg] if keep_arg is not None and len(args) > keep_arg else None
            return tracer._timed(original(*args, **kwargs), span_layer, name, rid, arg, body)

        wrapper.__wrapped__ = original
        self._patch(cls, attr, wrapper)

    def _timed(self, gen, layer, name, rid, arg, body):
        ctx = self.cur
        span = self._open(layer, name, rid, arg=arg)
        stack = ctx.stack if ctx is not None else []
        host = 0
        value, exc = None, None
        try:
            while True:
                stack.append(span)
                started = perf_counter_ns()
                try:
                    if exc is None:
                        target = gen.send(value)
                    else:
                        target = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                except BaseException:
                    span.failed = True
                    raise
                finally:
                    host += perf_counter_ns() - started
                    stack.pop()
                try:
                    value, exc = (yield target), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as error:
                    value, exc = None, error
        finally:
            self._close(span, host)
            if rid is not None and self.rid_of_body.get(id(body), (None, None))[1] == rid:
                del self.rid_of_body[id(body)]

    def _wrap_plain(self, cls, attr, name):
        original = cls.__dict__[attr]
        tracer = self
        stats = self.calls[name]

        def wrapper(*args, **kwargs):
            started = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                ns = perf_counter_ns() - started
                stats[0] += 1
                stats[1] += ns
                tracer._charge_parent(ns)

        self._patch(cls, attr, wrapper)

    def _getreq(self, original):
        tracer = self

        def getreq(server):
            future = original(server)
            ctx = tracer.cur  # the server thread asking for work
            if ctx is not None:
                future.add_callback(lambda done: tracer._note_request(ctx, done))
            return future

        return getreq

    def _transmit(self, original):
        tracer = self
        stats = self.calls["net.transmit"]

        def transmit(net, src, dst, kind, payload, size):
            started = perf_counter_ns()
            try:
                return original(net, src, dst, kind, payload, size)
            finally:
                if kind == "rpc.request":
                    known = tracer.rid_of_body.get(id(payload.get("body")))
                    if known is not None:
                        tracer.req_sends[known[1]].append(tracer.sim.now)
                ns = perf_counter_ns() - started
                stats[0] += 1
                stats[1] += ns
                tracer._charge_parent(ns)

        return transmit

    def _receive(self, original):
        tracer = self

        def receive(member):
            record = yield from original(member)
            if tracer.cur is not None:
                tracer.cur.batch = (record.seqno,)
                tracer.batches.append(1)
            return record

        return receive

    def _receive_ready(self, original):
        tracer = self

        def receive_ready(member, limit=None):
            records = original(member, limit)
            if records and tracer.cur is not None and tracer.cur.batch:
                tracer.cur.batch = tracer.cur.batch + tuple(r.seqno for r in records)
                tracer.batches[-1] += len(records)
            return records

        return receive_ready

    def _replied(self, original, failed=False):
        tracer = self

        def reply(handle, *args, **kwargs):
            _handle, span = tracer.serve_of_handle.pop(id(handle), (None, None))
            if span is not None and span.t1 is None:
                span.t1 = tracer.sim.now
                span.failed = failed
                ctx = tracer.cur
                if ctx is not None and span in ctx.stack:
                    ctx.stack.remove(span)
            return original(handle, *args, **kwargs)

        return reply

    def _spawn(self, original):
        tracer = self

        def spawn(sim, gen, name="process"):
            tracer.sim = sim
            parent = tracer.cur
            if parent is not None and not name.endswith(".gc"):
                base = parent.stack[-1] if parent.stack else None
                ctx = Ctx(name, parent.node if parent.node else _node_of(name),
                          parent.batch, base)
            else:
                ctx = Ctx(name, _node_of(name), None, None)
            return original(sim, tracer._in_ctx(gen, ctx), name)

        return spawn

    def _in_ctx(self, gen, ctx):
        """Drive *gen*, marking *ctx* current on every resume."""
        value, exc = None, None
        while True:
            previous, self.cur = self.cur, ctx
            try:
                if exc is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self.cur = previous
            try:
                value, exc = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as error:
                value, exc = None, error

    def _note_request(self, ctx, future):
        """A server thread's getreq returned a request: open its serve
        span, which the thread's spans nest under until it replies."""
        if future.exception is not None:
            return
        body, handle = future.value
        known = self.rid_of_body.get(id(body))
        rid = known[1] if known is not None and known[0] is body else None
        previous, self.cur = self.cur, ctx
        ctx.stack.clear()
        span = self._open("rpc", "rpc.serve", rid, arg=body)
        self.cur = previous
        ctx.stack.append(span)
        self.serve_of_handle[id(handle)] = (handle, span)  # keeps the id unique
        if rid is not None:
            self.serves[rid].append(span)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()))
                out.write("\n")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


class Breakdown:
    """Per-operation sim self-time by layer over the span forest."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.children = defaultdict(list)
        self.background = defaultdict(list)  # node -> spans, by start
        for span in tracer.spans:
            if span.t1 is None:
                continue
            if span.parent is not None:
                self.children[span.parent.sid].append(span)
            elif span.batch and span.layer != "driver" and span.name != "rpc.serve":
                self.background[span.node].append(span)
        self.bg_starts = {}
        for node, spans in self.background.items():
            spans.sort(key=lambda s: s.t0)
            self.bg_starts[node] = [s.t0 for s in spans]
        self.bg_longest = max(
            (s.t1 - s.t0 for spans in self.background.values() for s in spans),
            default=0.0,
        )

    def kids(self, span):
        """(layer, t0, t1, span-or-None) children of *span*."""
        out = [(k.layer, k.t0, k.t1, k) for k in self.children.get(span.sid, ())]
        if span.name == "rpc.trans":
            serves = [s for s in self.tracer.serves.get(span.rid, ()) if s.t1 is not None]
            sends = self.tracer.req_sends.get(span.rid, [])
            for i, serve in enumerate(serves):
                sent = [t for t in sends if t <= serve.t0]
                if sent:
                    out.append(("net", sent[-1], serve.t0, None))
                out.append(("rpc", serve.t0, serve.t1, serve))
                if i == len(serves) - 1:
                    out.append(("net", serve.t1, span.t1, None))
        elif span.name == "group.wait_applied" and span.arg is not None:
            spans = self.background.get(span.node, ())
            starts = self.bg_starts.get(span.node, ())
            first = bisect.bisect_left(starts, span.t0 - self.bg_longest)
            last = bisect.bisect_right(starts, span.t1)
            for bg in spans[first:last]:
                if bg.t1 > span.t0 and min(bg.batch) <= span.arg:
                    out.append((bg.layer, bg.t0, bg.t1, bg))
        return out

    def of(self, root) -> dict:
        """Layer -> sim self-time within the root operation."""
        totals = defaultdict(float)

        def visit(layer, t0, t1, span, lo, hi, depth):
            a, b = max(t0, lo), min(t1, hi)
            if b <= a:
                return
            if span is None or depth > 40:
                totals[layer] += b - a
                return
            covered = []
            for k in self.kids(span):
                ka, kb = max(k[1], a), min(k[2], b)
                if kb > ka:
                    covered.append((ka, kb))
                    visit(*k, a, b, depth + 1)
            totals[layer] += (b - a) - _union(covered)

        visit(root.layer, root.t0, root.t1, root, root.t0, root.t1, 0)
        return totals
