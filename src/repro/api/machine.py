"""The machine half of a costing question: calibration, budget, topology.

A :class:`Machine` is a frozen value object wrapping the calibrated
cluster description every cost-model entry point used to thread by hand
(``cal=...``, ``budget_gb=...``). Being frozen and hashable it can key
evaluation caches directly — the planner's cache keys derive from
:meth:`Machine.canonical_key` instead of hand-assembled tuples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..cluster.calibration import SUMMIT, SummitCalibration, with_memory_budget
from ..cluster.topology import Topology

__all__ = ["Machine"]


@dataclass(frozen=True)
class Machine:
    """A calibrated cluster: compute/communication constants + memory budget.

    The per-GPU memory budget is folded into the calibration (via
    :func:`~repro.cluster.calibration.with_memory_budget`), so two
    machines with equal calibrations are the same machine — same hash,
    same cache entries.

    >>> m = Machine.summit(budget_gb=12)
    >>> m.gpu_memory_bytes == 12 * 1024**3
    True
    >>> m.gpus_per_node
    6
    >>> m == Machine.summit(budget_gb=12)  # frozen value object
    True
    >>> m.topology(12).n_nodes
    2
    """

    cal: SummitCalibration = SUMMIT
    name: str = "summit"

    @classmethod
    def summit(cls, budget_gb: float | None = None) -> "Machine":
        """The default simulated Summit, optionally re-budgeted."""
        return cls().with_budget(budget_gb)

    def with_budget(self, budget_gb: float | None) -> "Machine":
        """Same machine with a different per-GPU memory budget (GB)."""
        if budget_gb is None:
            return self
        return Machine(cal=with_memory_budget(budget_gb, self.cal), name=self.name)

    # ------------------------------------------------------------------
    @property
    def gpu_memory_bytes(self) -> int:
        return self.cal.gpu_memory_bytes

    @property
    def gpus_per_node(self) -> int:
        return self.cal.gpus_per_node

    def topology(self, n_gpus: int) -> Topology:
        """The node/link layout of ``n_gpus`` ranks on this machine."""
        return Topology(n_gpus, self.cal)

    # ------------------------------------------------------------------
    def canonical_key(self) -> SummitCalibration:
        """Hashable identity used in evaluation cache keys.

        The resolved calibration *is* the machine for costing purposes
        (``name`` is a label), and returning it keeps Machine-derived
        keys equal to those of callers that pass a bare calibration.
        """
        return self.cal

    def canonical_hash(self) -> str:
        """Short stable digest of the calibration."""
        payload = repr(self.cal)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "calibration": {
                f: getattr(self.cal, f)
                for f in self.cal.__dataclass_fields__
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Machine":
        return cls(
            cal=SummitCalibration(**data["calibration"]),
            name=data.get("name", "summit"),
        )
