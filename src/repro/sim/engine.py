"""The discrete-event engine executing node programs under Procedure 1.

Each card runs two sequential engines — computation and communication —
that exchange signals exactly as the paper's synchronization mechanism
prescribes (Section IV-C):

* a data-dependent compute task (``CT_d``) blocks until the next
  unconsumed receive completion (Compute-After-Receive);
* a send blocks until its producing compute task finished
  (Send-After-Compute) *and* until every receiver has configured its DMA
  and signaled ready (the handshake);
* a receive signals ready immediately, then blocks until delivery.

Inter-node synchronization therefore reduces to communication
synchronization, with no host involvement — the host only learns about
completion when both queues drain (Procedure 2 handles the step barrier in
:mod:`repro.sched.planner`).
"""

from __future__ import annotations

import heapq

from repro.obs.metrics import inc as _metric_inc
from repro.sim.fabrics import build_fabric
from repro.sim.program import BROADCAST, RecvTask, SendTask
from repro.sim.result import NodeStats, SimResult, TraceEvent

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on deadlock or malformed programs."""


class _NodeState:
    __slots__ = (
        "comp_idx", "comp_busy_until", "comp_finished", "recvs_consumed",
        "comm_idx", "comm_busy_until", "awaiting_delivery",
        "recv_done_times", "stats",
    )

    def __init__(self, num_compute_tasks):
        self.comp_idx = 0
        self.comp_busy_until = 0.0
        self.comp_finished = [None] * num_compute_tasks
        self.recvs_consumed = 0
        self.comm_idx = 0
        self.comm_busy_until = 0.0
        self.awaiting_delivery = False
        self.recv_done_times = []
        self.stats = NodeStats()


class Simulator:
    """Executes one set of node programs on a cluster.

    With ``trace=True`` every compute task, send occupation and delivery
    is recorded as a :class:`~repro.sim.result.TraceEvent` on the result
    (Gantt-chart material; adds memory proportional to task count).
    """

    def __init__(self, cluster, trace=False):
        self.cluster = cluster
        self.fabric = build_fabric(cluster)
        self.trace_enabled = trace
        n = cluster.total_cards
        #: per-source broadcast destinations, built once per simulator
        self._broadcast_dsts = [
            tuple(d for d in range(n) if d != node) for node in range(n)
        ]

    # ------------------------------------------------------------------

    def run(self, programs, step=None):
        """Simulate the programs to completion; returns a SimResult.

        ``step`` optionally names the host-scheduled step being
        simulated; traced events carry it in their ``step`` field.
        """
        n = self.cluster.total_cards
        if len(programs) != n:
            raise SimulationError(
                f"got {len(programs)} programs for {n} cards"
            )
        self._step = step
        self.fabric.reset()
        self._programs = programs
        self._nodes = [_NodeState(len(p.compute)) for p in programs]
        self._heap = heap = []
        self._seq = 0
        #: ready signals issued minus consumed, per (src, dst) channel
        self._ready = {}
        self._result = SimResult(nodes=[s.stats for s in self._nodes])
        self._components = None
        self._node_ops = [None] * n

        for node in range(n):
            self._schedule(0.0, self._advance_compute, node)
            self._schedule(0.0, self._advance_comm, node)
        pop = heapq.heappop
        while heap:
            time, _, fn, node = pop(heap)
            fn(node, time)
        self._check_finished()
        result = self._result
        result.makespan = self._makespan()
        result.components_total = self._components
        if any(t is not None for t in self._node_ops):
            result.node_ops = list(self._node_ops)
        for node, st in enumerate(self._nodes):
            st.stats.compute_done_at = st.comp_busy_until
            st.stats.comm_done_at = st.comm_busy_until
        _metric_inc("sim.engine.runs")
        _metric_inc("sim.engine.tasks",
                    sum(st.stats.tasks_executed for st in self._nodes))
        _metric_inc("sim.engine.transfers", result.transfers)
        _metric_inc("sim.engine.bytes_transferred", result.bytes_transferred)
        return result

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _schedule(self, time, fn, node):
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, node))

    # ------------------------------------------------------------------
    # Compute engine
    # ------------------------------------------------------------------

    def _advance_compute(self, node, now):
        st = self._nodes[node]
        program = self._programs[node]
        if now < st.comp_busy_until:
            return  # stale wake; the end-of-task wake will re-advance
        while st.comp_idx < len(program.compute):
            task = program.compute[st.comp_idx]
            if task.needs_recv:
                if len(st.recv_done_times) <= st.recvs_consumed:
                    return  # blocked on CAR; delivery will re-advance
                recv_time = st.recv_done_times[st.recvs_consumed]
                st.recvs_consumed += 1
                now = max(now, recv_time)
            end = now + task.duration
            st.stats.compute_busy += task.duration
            st.stats.tasks_executed += 1
            self._account_compute(node, task)
            if self.trace_enabled and task.duration > 0:
                self._result.trace.append(TraceEvent(
                    node=node, kind="compute", tag=task.tag,
                    start=now, end=end, step=self._step,
                ))
            idx = st.comp_idx
            st.comp_finished[idx] = end
            st.comp_idx += 1
            st.comp_busy_until = end
            if task.duration > 0:
                # Fire the finish signal (wakes this node's comm engine for
                # any Send-After-Compute) and resume the loop at `end`.
                self._schedule(end, self._advance_comm, node)
                self._schedule(end, self._advance_compute, node)
                return
            self._schedule(end, self._advance_comm, node)
            now = end

    def _account_compute(self, node, task):
        tags = self._result.tag_compute
        tags[task.tag] = tags.get(task.tag, 0.0) + task.duration
        if task.components is not None:
            if self._components is None:
                self._components = task.components
            else:
                self._components = self._components + task.components
        if task.ops is not None:
            # Lazy per-node accumulators, updated in place: the hot loop
            # must not churn trace objects per task.
            acc = self._node_ops[node]
            if acc is None:
                from repro.ir import OpTrace

                acc = self._node_ops[node] = OpTrace()
            acc.update(task.ops)

    # ------------------------------------------------------------------
    # Communication engine
    # ------------------------------------------------------------------

    def _advance_comm(self, node, now):
        st = self._nodes[node]
        if st.awaiting_delivery or now < st.comm_busy_until:
            return
        comm = self._programs[node].comm
        while st.comm_idx < len(comm):
            task = comm[st.comm_idx]
            if isinstance(task, SendTask):
                if not self._try_send(node, task, now):
                    return  # blocked; a finish/ready signal will re-advance
                st.comm_idx += 1
                if st.comm_busy_until > now:
                    self._schedule(st.comm_busy_until, self._advance_comm,
                                   node)
                    return
                now = st.comm_busy_until
            elif isinstance(task, RecvTask):
                key = (task.src, node)
                self._ready[key] = self._ready.get(key, 0) + 1
                st.awaiting_delivery = True
                # The sender may be blocked on this ready signal.
                self._schedule(now, self._advance_comm, task.src)
                return
            else:  # pragma: no cover - builder prevents this
                raise SimulationError(f"unknown comm task {task!r}")

    def _try_send(self, node, task, now):
        st = self._nodes[node]
        if task.after_compute is not None:
            if task.after_compute >= len(st.comp_finished):
                raise SimulationError(
                    f"send on node {node} depends on compute task "
                    f"{task.after_compute}, but only "
                    f"{len(st.comp_finished)} exist"
                )
            finish = st.comp_finished[task.after_compute]
            if finish is None or finish > now:
                return False
        if task.dst == BROADCAST:
            dsts = self._broadcast_dsts[node]
            multicast = True
        elif isinstance(task.dst, tuple):
            dsts = task.dst
            multicast = True
        else:
            dsts = (task.dst,)
            multicast = False
        ready = self._ready
        for dst in dsts:
            if ready.get((node, dst), 0) <= 0:
                return False
        for dst in dsts:
            ready[node, dst] -= 1
        if multicast:
            release, deliveries = self.fabric.broadcast(
                node, dsts, task.size, now
            )
        else:
            release, deliveries = self.fabric.unicast(
                node, task.dst, task.size, now
            )
        st.stats.comm_busy += release - now
        st.comm_busy_until = release
        self._result.bytes_transferred += task.size * len(dsts)
        self._result.transfers += len(dsts)
        if self.trace_enabled:
            if task.dst == BROADCAST:
                send_channel = f"{node}->*"
            elif multicast:
                send_channel = f"{node}->{{{','.join(map(str, dsts))}}}"
            else:
                send_channel = f"{node}->{task.dst}"
            self._result.trace.append(TraceEvent(
                node=node, kind="send", tag=task.tag,
                start=now, end=release, step=self._step,
                channel=send_channel,
            ))
            for dst, t in deliveries.items():
                self._result.trace.append(TraceEvent(
                    node=dst, kind="recv", tag=task.tag,
                    start=now, end=t, step=self._step,
                    channel=f"{node}->{dst}",
                ))
        # Inlined _schedule: same pushes, same order, same sequence numbers.
        push, heap, deliver = heapq.heappush, self._heap, self._deliver
        seq = self._seq
        for dst, t in deliveries.items():
            seq += 1
            push(heap, (t, seq, deliver, dst))
        self._seq = seq
        return True

    def _deliver(self, node, now):
        st = self._nodes[node]
        if not st.awaiting_delivery:
            raise SimulationError(
                f"delivery at node {node} with no pending receive "
                f"(programs are mismatched)"
            )
        st.awaiting_delivery = False
        st.recv_done_times.append(now)
        st.comm_idx += 1
        if now > st.comm_busy_until:
            st.comm_busy_until = now
        # Inlined _schedule for the two wakes, in the same order.
        seq = self._seq
        heapq.heappush(self._heap, (now, seq + 1, self._advance_compute, node))
        heapq.heappush(self._heap, (now, seq + 2, self._advance_comm, node))
        self._seq = seq + 2

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _makespan(self):
        span = 0.0
        for st in self._nodes:
            span = max(span, st.comp_busy_until, st.comm_busy_until)
            if st.recv_done_times:
                span = max(span, st.recv_done_times[-1])
        return span

    def _check_finished(self):
        stuck = []
        for node, (st, program) in enumerate(
            zip(self._nodes, self._programs)
        ):
            if st.comp_idx < len(program.compute):
                stuck.append(
                    f"node {node}: compute stalled at task {st.comp_idx}/"
                    f"{len(program.compute)} "
                    f"({program.compute[st.comp_idx]!r})"
                )
            if st.comm_idx < len(program.comm):
                stuck.append(
                    f"node {node}: comm stalled at task {st.comm_idx}/"
                    f"{len(program.comm)} ({program.comm[st.comm_idx]!r})"
                )
        if stuck:
            raise SimulationError(
                "deadlock: " + "; ".join(stuck[:8])
                + ("" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)")
            )
