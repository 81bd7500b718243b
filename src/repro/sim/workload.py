"""Closed-loop clients on the discrete-event simulator.

Drives a system the way the paper's throughput experiments drive the
real one: N clients, each submitting its next operation the moment the
previous one completes.  Against a
:class:`~repro.sim.deployment.SimulatedWeaver` with a cost model
attached, which charges gatekeeper, store and shard service time, the
measured throughput comes from the *actual protocol* — stamps, queues,
NOPs, oracle calls and all.  The baselines' cost models run under the
same loop through a small adapter (:mod:`repro.bench.harness`).  This is
where every closed-loop series of the paper's figures is measured.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.metrics import Histogram

# An operation descriptor returned by the op factory, as the driven
# system's ``submit`` reads it; for the twin:
#   ("tx", operations)                     — a write transaction
#   ("prog", program, start, params)       — a node program
OpSpec = Tuple


class SimClients:
    """N always-busy clients against one simulated system.

    ``deployment`` is anything with a ``simulator``, a ``timer_period``
    (completion is checked every 50 of them) and ``submit(spec,
    callback)``, which starts one op at the simulator's now and calls
    ``callback(ok, value)`` when it completes.
    """

    def __init__(
        self,
        deployment,
        num_clients: int,
        op_factory: Callable[[int, int], Optional[OpSpec]],
    ):
        if num_clients <= 0:
            raise ValueError("need at least one client")
        self.deployment = deployment
        self.num_clients = num_clients
        self._op_factory = op_factory
        self._op_index = 0
        self.latencies = Histogram("clients.latency")
        #: What each op's callback delivered, by op index: a program's
        #: result (None if it died with its gatekeeper), a commit's
        #: timestamp or abort.
        self.results: Dict[int, Any] = {}
        self.completed = 0
        self.failed = 0
        self._outstanding = 0
        self._started_at: Optional[float] = None
        self._finished_at = 0.0

    # -- driving -------------------------------------------------------

    def start(self) -> None:
        """Give every client its first operation."""
        self._started_at = self.deployment.simulator.now
        for client_id in range(self.num_clients):
            self._issue(client_id)

    def _issue(self, client_id: int) -> None:
        index = self._op_index
        spec = self._op_factory(client_id, index)
        if spec is None:
            return  # this client is done
        self._op_index += 1
        self._outstanding += 1
        submitted = self.deployment.simulator.now

        def done(ok: bool, value) -> None:
            self.results[index] = value
            self._complete(client_id, submitted, ok)

        self.deployment.submit(spec, done)

    def _complete(self, client_id: int, submitted: float, ok: bool) -> None:
        now = self.deployment.simulator.now
        self._outstanding -= 1
        self.latencies.observe(now - submitted)
        self._finished_at = max(self._finished_at, now)
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        self._issue(client_id)

    def run_to_completion(self, max_sim_seconds: float = 30.0) -> None:
        """Advance simulated time until every issued op has completed."""
        sim = self.deployment.simulator
        deadline = sim.now + max_sim_seconds
        step = self.deployment.timer_period
        while self._outstanding > 0 and sim.now < deadline:
            sim.run(until=min(deadline, sim.now + 50 * step))
        if self._outstanding:
            raise RuntimeError(
                f"{self._outstanding} operations still outstanding after "
                f"{max_sim_seconds} simulated seconds"
            )

    # -- results ------------------------------------------------------

    @property
    def makespan(self) -> float:
        if self._started_at is None:
            return 0.0
        return max(0.0, self._finished_at - self._started_at)

    @property
    def throughput(self) -> float:
        """Completed operations per simulated second."""
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan


def finite_stream(ops: List[OpSpec]) -> Callable[[int, int], Optional[OpSpec]]:
    """An op factory serving a fixed list, then stopping every client."""

    def factory(client_id: int, op_index: int) -> Optional[OpSpec]:
        if op_index < len(ops):
            return ops[op_index]
        return None

    return factory
