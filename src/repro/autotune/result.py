"""Plan results: best config, Pareto frontier, and the paper-style "why".

:class:`PlanResult` holds every costed candidate and answers the three
questions a planning tool owes its user:

* **What should I run?** — :attr:`best` (highest-throughput feasible
  config) and :meth:`best_for` (per framework);
* **What are my trade-offs?** — :meth:`pareto_frontier` over
  (throughput, per-GPU memory): configs nothing else beats on both axes;
* **Why?** — :meth:`why` renders the Figure 8-style phase breakdown
  (compute / p2p / bubble / collective / other, via the shared
  :class:`~repro.parallel.perf_model.BatchBreakdown`) of the per-framework
  winners, making the paper's Section IV-B story — SAMO's memory savings
  shrink ``G_inter``, shrinking bubble and p2p — legible per plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..reporting.tables import format_bytes, render_table
from .estimator import Evaluation

__all__ = ["PlannerStats", "PlanResult", "RowResult", "entry_dict"]


@dataclass
class PlannerStats:
    """Accounting for one search: candidates, cells priced, cache hits,
    pruned branches and wall time."""

    candidates: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    pruned_memory: int = 0
    pruned_branches: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "pruned_memory": self.pruned_memory,
            "pruned_branches": self.pruned_branches,
            "wall_seconds": round(self.wall_seconds, 4),
        }


@dataclass
class PlanResult:
    """Outcome of one planner search."""

    model: str
    n_gpus: int
    fidelity: str
    budget_bytes: int
    evaluations: list[Evaluation] = field(default_factory=list)
    stats: PlannerStats | None = None

    # ------------------------------------------------------------------
    @property
    def feasible(self) -> list[Evaluation]:
        """Feasible candidates, fastest first."""
        return sorted(
            (e for e in self.evaluations if e.feasible),
            key=lambda e: e.total_time,
        )

    @property
    def best(self) -> Evaluation:
        """The fastest feasible configuration."""
        ranked = self.feasible
        if not ranked:
            raise RuntimeError(
                f"{self.model} on {self.n_gpus} GPUs: no feasible configuration "
                f"within {format_bytes(self.budget_bytes)} per GPU"
            )
        return ranked[0]

    def best_for(self, framework: str) -> Evaluation | None:
        """Fastest feasible config of one framework (None if none fit)."""
        ranked = [e for e in self.feasible if e.config.framework == framework]
        return ranked[0] if ranked else None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`.

        Full-precision floats, so two plans serialized from identical
        inputs are diffable artifacts (``repro plan --json``).
        """
        return self.layout(lambda ev: ev.to_dict())

    def layout(self, cell) -> dict:
        """:meth:`to_dict`'s fields with each evaluation mapped by ``cell``
        (the planning server keeps them and writes their JSON fragments)."""
        best = self.feasible
        return {
            "model": self.model,
            "n_gpus": self.n_gpus,
            "fidelity": self.fidelity,
            "budget_bytes": self.budget_bytes,
            "best": cell(best[0]) if best else None,
            "evaluations": [cell(e) for e in self.evaluations],
            "stats": self.stats.as_dict() if self.stats is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanResult":
        stats = data.get("stats")
        return cls(
            model=data["model"],
            n_gpus=data["n_gpus"],
            fidelity=data["fidelity"],
            budget_bytes=data["budget_bytes"],
            evaluations=[Evaluation.from_dict(e) for e in data["evaluations"]],
            stats=PlannerStats(**stats) if stats is not None else None,
        )

    # ------------------------------------------------------------------
    def pareto_frontier(self) -> list[Evaluation]:
        """Non-dominated feasible configs over (throughput, memory/GPU).

        A config is on the frontier iff no other feasible config has both
        strictly higher throughput and no more memory. Returned sorted by
        descending throughput (so memory ascends along the list).
        """
        ranked = sorted(self.feasible, key=lambda e: (-e.throughput, e.memory_bytes))
        frontier: list[Evaluation] = []
        best_mem = None
        for ev in ranked:
            if best_mem is None or ev.memory_bytes < best_mem:
                frontier.append(ev)
                best_mem = ev.memory_bytes
        return frontier

    # ------------------------------------------------------------------
    def summary_table(self, top: int = 8) -> str:
        rows = [e.as_row() for e in self.feasible[:top]]
        if not rows:
            return "(no feasible configurations)"
        return render_table(
            rows,
            title=(
                f"Top configurations: {self.model} on {self.n_gpus} GPUs "
                f"(budget {format_bytes(self.budget_bytes)}/GPU, "
                f"fidelity={self.fidelity})"
            ),
        )

    def pareto_table(self) -> str:
        rows = [e.as_row() for e in self.pareto_frontier()]
        if not rows:
            return "(empty frontier)"
        return render_table(
            rows, title="Pareto frontier over (throughput, memory/GPU)"
        )

    def why(self) -> str:
        """Phase breakdown of each framework's winner (the Figure 8 view)."""
        frameworks = sorted({e.config.framework for e in self.feasible})
        rows = []
        for fw in frameworks:
            ev = self.best_for(fw)
            if ev is None:
                continue
            b = ev.breakdown
            rows.append({
                "framework": fw,
                "config": (
                    f"Gt={ev.config.g_tensor} Gi={ev.config.g_inter} "
                    f"Gd={ev.config.g_data} mbs={ev.config.mbs}"
                ),
                "compute": round(b.compute, 2),
                "p2p": round(b.p2p, 2),
                "bubble": round(b.bubble, 2),
                "collective": round(b.collective, 2),
                "other": round(b.other, 2),
                "total": round(b.total, 2),
                "mem/GPU": format_bytes(ev.memory_bytes),
            })
        if not rows:
            return "(no feasible configurations to explain)"
        table = render_table(
            rows, title="Why: batch-phase breakdown of each framework's best config (s)"
        )
        return table + "\n" + self._narrative()

    def _narrative(self) -> str:
        """The Section IV-B sentence, instantiated with this plan's numbers."""
        samo = self.best_for("axonn+samo")
        dense = self.best_for("axonn")
        if samo is None or dense is None:
            return ""
        lines = []
        if samo.config.g_inter < dense.config.g_inter:
            lines.append(
                f"SAMO's compressed model state fits a replica on "
                f"G_inter={samo.config.g_inter} GPUs where dense AxoNN needs "
                f"G_inter={dense.config.g_inter}; the shallower pipeline cuts "
                f"bubble {dense.breakdown.bubble:.2f}s -> "
                f"{samo.breakdown.bubble:.2f}s and p2p "
                f"{dense.breakdown.p2p:.2f}s -> {samo.breakdown.p2p:.2f}s."
            )
        speedup = samo.breakdown.speedup_over(dense.breakdown)
        lines.append(
            f"Estimated AxoNN+SAMO speedup over dense AxoNN: {speedup:.0f}%."
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def report(self, top: int = 8) -> str:
        """Full human-readable plan report (what the CLI prints)."""
        parts = []
        try:
            best = self.best
        except RuntimeError as err:
            stats = self.stats.as_dict() if self.stats else {}
            return f"{err}\n(search stats: {stats})"
        parts.append(
            f"Best config for {self.model} on {self.n_gpus} GPUs: "
            f"{best.config.describe()}\n"
            f"  estimated batch time {best.total_time:.2f} s, "
            f"throughput {best.throughput:.0f} samples/s, "
            f"memory {format_bytes(best.memory_bytes)}/GPU"
        )
        parts.append(self.summary_table(top=top))
        parts.append(self.pareto_table())
        parts.append(self.why())
        if self.stats is not None:
            s = self.stats.as_dict()
            parts.append(
                f"search: {s['candidates']} candidates, {s['evaluated']} evaluated, "
                f"{s['cache_hits']} cache hits, "
                f"{s['pruned_memory'] + s['pruned_branches']} pruned before costing, "
                f"{s['wall_seconds']:.3f}s"
            )
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# rankings kept as arrays (robust and Monte-Carlo plans)
# ---------------------------------------------------------------------------

def entry_dict(entry) -> dict:
    """An entry's ``to_dict()``: its fields in ``LAYOUT`` order, JSON-ready.

    ``LAYOUT`` pairs each field of the entry dataclass with its kind:
    ``config`` (a :class:`CandidateConfig`), ``float``, ``int``, ``bool``,
    ``label`` (a string), ``by_label`` (label -> float) or ``floats`` (a
    float sequence). The planning server writes the same fields, in the
    same order, straight from a :class:`RowResult`'s columns.
    """
    doc = {}
    for name, kind in entry.LAYOUT:
        value = getattr(entry, name)
        if kind == "config":
            value = value.to_dict()
        elif kind == "by_label":
            value = dict(value)
        elif kind == "floats":
            value = list(value)
        doc[name] = value
    return doc


class RowResult:
    """A ranking kept as arrays over the candidates a question priced.

    Row ``r`` of every array of a subclass is candidate ``configs[r]``;
    ``fits[r]`` says whether it fits in memory under every column.
    Subclasses name their entry dataclass (``ENTRY``) and the array that
    ranks the rows (``KEY``), and give :meth:`columns` and :meth:`layout`.

    Entry objects are built from the columns the first time
    :attr:`entries` is read; the planning server writes its answers from
    the columns and never builds them. :attr:`ranking` is Python's stable
    sort of the feasible rows on their key, so ties keep candidate order
    and every key (NaN too) orders exactly as sorting the entries did.
    """

    ENTRY: type
    KEY: str
    labels: tuple

    def columns(self, rows, skip=()) -> dict:
        """Entry field name -> one plain Python value per row of ``rows``
        (``by_label`` and ``floats`` fields as lists); fields named in
        ``skip`` may be left out."""
        raise NotImplementedError

    def layout(self, rows, drop=()) -> dict:
        """:meth:`to_dict`'s fields, with the best entry and every entry
        written by ``rows(indices, drop)``; every entry but the best leaves
        out the fields named in ``drop``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-ready mapping of the full ranking."""
        return self.layout(self.entry_dicts)

    def entry_dicts(self, rows, drop=()) -> list:
        """The entries at ``rows`` as ``to_dict()`` writes them, less ``drop``."""
        entries, out = self.entries, []
        for r in rows:
            doc = entries[r].to_dict()
            for name in drop:
                del doc[name]
            out.append(doc)
        return out

    @property
    def entries(self) -> list:
        """One entry object per candidate, in candidate order."""
        entries = self.__dict__.get("_entries")
        if entries is None:
            cols = self.columns(range(len(self.configs)))
            values = []
            for name, kind in self.ENTRY.LAYOUT:
                col = cols[name]
                if kind == "by_label":
                    col = [dict(zip(self.labels, row)) for row in col]
                elif kind == "floats":
                    col = [tuple(row) for row in col]
                values.append(col)
            # racing first reads keep whichever list landed first
            entries = self.__dict__.setdefault(
                "_entries", [self.ENTRY(*row) for row in zip(*values)]
            )
        return entries

    @property
    def ranking(self) -> list:
        """Feasible rows, best key first."""
        ranking = self.__dict__.get("_ranking")
        if ranking is None:
            ranking = self.__dict__["_ranking"] = self._ranked(getattr(self, self.KEY))
        return ranking

    def _ranked(self, keys: np.ndarray) -> list:
        keys = keys.tolist()
        return sorted(np.flatnonzero(self.fits).tolist(), key=keys.__getitem__)

    @property
    def feasible(self) -> list:
        """Feasible candidates, best key first."""
        entries = self.entries
        return [entries[r] for r in self.ranking]

    def plain(self) -> bool:
        """True when ``json.dumps`` writes every number an answer carries
        as its ``repr`` and every label as a JSON string: the numbers are
        all finite and the labels all strings (a scenario's name is
        whatever its request sent)."""
        return all(isinstance(label, str) for label in self.labels) and all(
            np.isfinite(a).all() for a in self._numbers()
        )

    def _numbers(self) -> tuple:
        """The float arrays an answer's numbers come from."""
        raise NotImplementedError
