"""Command-line interface: regenerate every table and figure.

``python -m repro <experiment>`` prints the paper-style series for one
experiment using the same library calls as the benchmark harness, without
requiring pytest. Run ``python -m repro list`` for the index.

Examples::

    python -m repro fig1            # sparse libraries vs cuBLAS
    python -m repro fig6 --model gpt3-xl
    python -m repro fig8
    python -m repro memory          # the 80.16 -> 20.28 GB claim
    python -m repro fig4 --steps 60 # tiny statistical-efficiency run
    python -m repro plan --model gpt3-2.7b --gpus 512 --sparsity 0.9
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def run_fig1(args) -> str:
    from .reporting import render_table
    from .sparse import figure1_sweep, sparse_over_dense_ratio

    data = figure1_sweep()
    rows = [
        {
            "weight": f"{n}^2",
            "cuSPARSE (ms)": f"{cs:.3f}",
            "Sputnik (ms)": f"{sp:.3f}",
            "cuBLAS (ms)": f"{cb:.3f}",
            "Sputnik/cuBLAS": f"{sparse_over_dense_ratio(n):.1f}x",
        }
        for n, cs, sp, cb in zip(
            data["size"], data["cusparse"], data["sputnik"], data["cublas"]
        )
    ]
    return render_table(
        rows, title="Figure 1: FC layer, 90% sparsity, batch 576 (modelled V100 kernels)"
    )


def run_fig2(args) -> str:
    from .core import memory_savings_percent
    from .reporting import series_plot

    ps = np.linspace(0.0, 1.0, 21)
    savings = [memory_savings_percent(p) for p in ps]
    plot = series_plot(
        {"savings %": savings},
        x=[f"{p:.2f}" for p in ps],
        title="Figure 2: SAMO memory savings vs sparsity (break-even 0.25)",
    )
    key = "\n".join(
        f"  p={p:.2f}: {memory_savings_percent(p):6.1f}%" for p in (0.0, 0.25, 0.8, 0.9)
    )
    return plot + "\nKey points:\n" + key


def run_fig3(args) -> str:
    from .parallel import simulate_pipeline

    trace = simulate_pipeline(g_inter=3, n_microbatches=5, t_f_stage=1.0, t_b_stage=2.0)
    lines = [
        "Figure 3: 1F1B pipeline, G_inter=3, 5 microbatches, t_b = 2 t_f",
        trace.ascii(time_unit=1.0),
        f"makespan {trace.makespan:.0f}, idle/GPU "
        + ", ".join(f"{trace.idle_time(s):.0f}" for s in range(3))
        + "  (paper: 6 units each)",
    ]
    return "\n".join(lines)


def run_fig4(args) -> str:
    from .core import SAMOConfig
    from .models import GPT, GPT_CONFIGS
    from .pruning import EarlyBirdPruner
    from .reporting import render_table
    from .train import CharCorpus, Trainer, evaluate_perplexity

    cfg = GPT_CONFIGS["gpt3-tiny"]
    corpus = CharCorpus(vocab_size=cfg.vocab_size, length=20_000, seed=0)
    eval_every = max(args.steps // 6, 1)
    results = {}
    for mode in ("dense", "samo"):
        model = GPT(cfg, seed=0)
        kwargs = {}
        if mode == "samo":
            # Paper protocol: warm up dense, draw the Early-Bird ticket,
            # then train the pruned network with SAMO.
            eb = EarlyBirdPruner(sparsity=0.9, epsilon=0.2, window=2)
            warm = Trainer(model, mode="dense", config=SAMOConfig(optimizer="adamw", lr=3e-3))
            wrng = np.random.default_rng(5)
            for _ in range(3):
                for _ in range(2):
                    x, y = corpus.sample_batch(8, 32, wrng)
                    warm.step(x, y)
                eb.observe(model)
                if eb.converged:
                    break
            kwargs = {"mask": eb.ticket}
        trainer = Trainer(
            model, mode=mode, config=SAMOConfig(optimizer="adamw", lr=3e-3), **kwargs
        )
        rng = np.random.default_rng(0)
        ppl = []
        for step in range(args.steps):
            x, y = corpus.sample_batch(8, 32, rng)
            trainer.step(x, y)
            if (step + 1) % eval_every == 0:
                ppl.append(evaluate_perplexity(model, corpus, 4, 32, n_batches=3))
        results[mode] = ppl
    rows = [
        {"iteration": (i + 1) * eval_every, "AxoNN ppl": f"{d:.1f}", "AxoNN+SAMO ppl": f"{s:.1f}"}
        for i, (d, s) in enumerate(zip(results["dense"], results["samo"]))
    ]
    return render_table(
        rows,
        title=f"Figure 4 (tiny GPT, {args.steps} steps): perplexity parity at p=0.9",
    )


def _scaling_report(names: list[str], tag: str) -> str:
    from .api import Job, Session
    from .autotune import FRAMEWORKS
    from .models import TABLE_I, get_spec, gpu_counts
    from .reporting import render_table

    session = Session()
    blocks = []
    for name in names:
        spec = get_spec(name)
        frameworks = [fw for fw in FRAMEWORKS if not (spec.family == "cnn" and fw == "sputnik")]
        rows = []
        for g in gpu_counts(TABLE_I[name]):
            res = {
                fw: session.breakdown(Job(model=name, n_gpus=g, framework=fw))
                for fw in frameworks
            }
            row = {"GPUs": g}
            for fw in frameworks:
                row[f"{fw} (s)"] = round(res[fw].total, 3)
            row["SAMO speedup %"] = round(res["axonn+samo"].speedup_over(res["axonn"]))
            rows.append(row)
        blocks.append(render_table(rows, title=f"{tag}: {name} strong scaling (p=0.9)"))
    return "\n\n".join(blocks)


def run_fig5(args) -> str:
    return _scaling_report(["wideresnet-101", "vgg19"], "Figure 5")


def run_fig6(args) -> str:
    names = [args.model] if args.model else ["gpt3-xl", "gpt3-2.7b"]
    return _scaling_report(names, "Figure 6")


def run_fig7(args) -> str:
    names = [args.model] if args.model else ["gpt3-6.7b", "gpt3-13b"]
    return _scaling_report(names, "Figure 7")


def run_fig8(args) -> str:
    from .api import Job, Session
    from .reporting import render_table

    session = Session()
    rows = []
    for g in (128, 256, 512):
        for label, fw in (("AxoNN", "axonn"), ("AxoNN+SAMO", "axonn+samo")):
            b = session.breakdown(Job(model="gpt3-2.7b", n_gpus=g, framework=fw))
            rows.append({
                "GPUs": g,
                "run": label,
                "compute": round(b.compute, 2),
                "p2p": round(b.p2p, 2),
                "bubble": round(b.bubble, 2),
                "collective": round(b.collective, 2),
                "other": round(b.other, 2),
                "total": round(b.total, 2),
            })
    return render_table(rows, title="Figure 8: GPT-3 2.7B batch-time breakdown (s)")


def run_table1(args) -> str:
    from .models import table_rows
    from .reporting import render_table

    rows = table_rows()
    for r in rows:
        r["# Parameters"] = f"{r['# Parameters'] / 1e6:.2f}M"
    return render_table(rows, title="Table I: models and hyperparameters")


def run_table2(args) -> str:
    from .api import Job, Session
    from .autotune import FRAMEWORKS
    from .models import narayanan_transformer_flops, percent_of_peak
    from .reporting import render_table

    session = Session()
    flops = narayanan_transformer_flops(2048, 2048, 40, 5120, 50257)
    rows = []
    for g in (256, 512, 1024, 2048):
        row = {"GPUs": g}
        for fw in FRAMEWORKS:
            b = session.breakdown(Job(model="gpt3-13b", n_gpus=g, framework=fw))
            pct = percent_of_peak(flops, b.total, g)
            row[fw] = f"{pct:.1f}%"
        rows.append(row)
    return render_table(
        rows, title="Table II: % of peak fp16 throughput, GPT-3 13B"
    )


def run_memory(args) -> str:
    from .core import samo_breakdown
    from .models import get_spec
    from .reporting import format_bytes, render_table

    rows = []
    for name in ("gpt3-xl", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b"):
        spec = get_spec(name)
        phi = spec.prunable_count
        dense = 20 * spec.param_count
        bd = samo_breakdown(phi, args.sparsity)
        samo_total = bd.total + 20 * (spec.param_count - phi)
        rows.append({
            "model": name,
            "dense state": format_bytes(dense),
            "SAMO state": format_bytes(samo_total),
            "saving": f"{100 * (1 - samo_total / dense):.0f}%",
        })
    return render_table(
        rows,
        title=f"Model-state memory at p={args.sparsity} (paper: 2.7B 80.16 -> 20.28 GB, -74%)",
    )


def run_plan(args) -> str:
    import json

    from .api import Job, Machine, Session

    if args.scenarios and args.scenario:
        raise SystemExit(
            "repro plan: error: --scenario and --scenarios are mutually "
            "exclusive (a distribution already names its scenarios)"
        )
    # --scenarios leaves an unset fidelity to robust_plan's own rule
    # (analytic for a neutral-only set, sim otherwise), and --overlap /
    # --placement best imply sim through resolve_fidelity; a bare single
    # --scenario keeps the historical contract of requiring an explicit
    # --fidelity sim (the conflict raises below otherwise).
    needs_engine = args.scenarios or args.overlap or args.placement == "best"
    fidelity = args.fidelity if needs_engine else (args.fidelity or "analytic")
    try:
        session = Session(Machine.summit(budget_gb=args.budget_gb))
        job = Job(
            model=args.model,
            n_gpus=args.gpus,
            sparsity=args.sparsity,
            fidelity=fidelity,
            overlap=args.overlap,
            placement=args.placement,
        )
        kwargs = dict(explore_no_checkpoint=not args.paper_protocol)
        if args.scenarios:
            result = session.robust_plan(job, args.scenarios, **kwargs)
        else:
            result = session.plan(job, scenario=args.scenario, **kwargs)
    except (KeyError, ValueError) as err:
        # unknown model / bad gpu count / bad budget: argparse-style exit
        msg = err.args[0] if err.args else str(err)
        raise SystemExit(f"repro plan: error: {msg}")
    if args.json:
        doc = result.to_dict()
        if args.metrics:
            doc["metrics"] = session.metrics()
        if args.compare_fidelities:
            doc["fidelity_drift"] = _fidelity_drift(session, args.model, result)
        return json.dumps(doc, indent=2)
    report = result.report(top=args.top)
    if args.compare_fidelities:
        report += "\n\n" + _fidelity_drift_table(session, args.model, result)
    if args.metrics:
        report += "\n\nMetrics:\n" + session.metrics_text().rstrip()
    return report


#: phase rows of the --compare-fidelities drift table
_DRIFT_PHASES = ("compute", "p2p", "bubble", "collective", "other", "total")


def _fidelity_drift(session, model: str, result) -> dict:
    """Price the plan winner under every fidelity, keyed per phase.

    ``analytic`` is the scalar reference
    (:meth:`~repro.autotune.AnalyticEstimator.evaluate`);
    ``analytic-batch`` goes through
    :meth:`~repro.autotune.CostEstimator.evaluate_batch`, auditing the
    array program that prices both closed-form fidelities in a plan;
    ``sim`` through the event engine, and ``measured`` through the
    executed proxy schedule. Values are seconds; drifts are relative to
    the analytic row.
    """
    from .autotune import make_estimator
    from .models import get_spec

    spec = get_spec(model)
    best = result.best.config
    cal = session.machine.cal
    breakdowns = {}
    breakdowns["analytic"] = make_estimator("analytic", spec, cal).evaluate(best)
    breakdowns["analytic-batch"] = (
        make_estimator("analytic-batch", spec, cal)
        .evaluate_batch([best])
        .evaluation(0, 0)
    )
    breakdowns["sim"] = make_estimator("sim", spec, cal).evaluate(best)
    breakdowns["measured"] = make_estimator("measured", spec, cal).evaluate(best)
    doc: dict = {"config": list(best.canonical_key()), "phases": {}}
    for phase in _DRIFT_PHASES:
        ref = getattr(breakdowns["analytic"].breakdown, phase)
        entry = {"analytic": ref}
        for fid in ("analytic-batch", "sim", "measured"):
            v = getattr(breakdowns[fid].breakdown, phase)
            drift = 0.0 if v == ref else abs(v - ref) / max(abs(ref), 1e-300)
            entry[fid] = v
            entry[f"{fid}_rel_drift"] = drift
        doc["phases"][phase] = entry
    return doc


def _fidelity_drift_table(session, model: str, result) -> str:
    from .reporting import render_table

    doc = _fidelity_drift(session, model, result)
    rows = []
    for phase in _DRIFT_PHASES:
        e = doc["phases"][phase]
        rows.append(
            {
                "phase": phase,
                "analytic (s)": f"{e['analytic']:.6f}",
                "analytic-batch (s)": f"{e['analytic-batch']:.6f}",
                "batch drift": f"{e['analytic-batch_rel_drift']:.1e}",
                "sim (s)": f"{e['sim']:.6f}",
                "sim drift": f"{e['sim_rel_drift']:.1e}",
                "measured (s)": f"{e['measured']:.6f}",
                "meas drift": f"{e['measured_rel_drift']:.1e}",
            }
        )
    title = (
        "Fidelity drift for the winning config "
        f"{tuple(doc['config'])} (relative to analytic)"
    )
    return render_table(rows, title=title)


def run_mc_plan(args) -> str:
    import json

    from .api import Job, Machine, Session

    try:
        session = Session(Machine.summit(budget_gb=args.budget_gb))
        job = Job(
            model=args.model,
            n_gpus=args.gpus,
            sparsity=args.sparsity,
            fidelity=args.fidelity,
        )
        result = session.mc_robust_plan(
            job,
            args.process,
            samples=args.samples,
            seed=args.seed,
            crn=not args.no_crn,
        )
        decision = None
        if args.replan:
            decision = session.replan(job, args.replan, at=args.replan_at)
    except (KeyError, ValueError) as err:
        msg = err.args[0] if err.args else str(err)
        raise SystemExit(f"repro mc-plan: error: {msg}")
    if args.json:
        # wall time is excluded from to_dict, so two same-seed runs emit
        # byte-identical JSON (the CI smoke pins this)
        doc = result.to_dict()
        if decision is not None:
            doc["replan"] = decision.to_dict()
        if args.metrics:
            doc["metrics"] = session.metrics()
        return json.dumps(doc, indent=2)
    report = result.report(top=args.top)
    if decision is not None:
        report += "\n\n" + decision.report()
    if args.metrics:
        report += "\n\nMetrics:\n" + session.metrics_text().rstrip()
    return report


def run_place(args) -> str:
    import json

    from .api import Job, Machine, Session
    from .reporting import render_table

    try:
        session = Session(Machine.summit())
        job = Job(
            model=args.model,
            n_gpus=args.gpus,
            framework=args.framework,
            sparsity=args.sparsity,
            mbs=args.mbs,
        )
        result = session.place(job, scenario=args.scenario, swap_sweeps=args.sweeps)
    except (KeyError, ValueError) as err:
        msg = err.args[0] if err.args else str(err)
        raise SystemExit(f"repro place: error: {msg}")
    if args.json:
        doc = result.to_dict()
        if args.metrics:
            doc["metrics"] = session.metrics()
        return json.dumps(doc, indent=2)

    scenario_label = args.scenario or "neutral"
    lines = [
        f"Replica placement for {job.describe()} under '{scenario_label}':",
        f"  {result.placement.n_replicas} replicas x {result.placement.g_inter} stages, "
        f"{result.evaluations} chain evaluations, {result.swaps} swaps applied",
    ]
    rows = [
        {
            "replica": r,
            "block chain (s)": round(d, 4),
            "placed chain (s)": round(t, 4),
            "ranks": ",".join(str(x) for x in chain),
        }
        for r, (d, t, chain) in enumerate(
            zip(result.default_chain_times, result.chain_times, result.placement.replicas)
        )
    ]
    lines.append(render_table(rows, title="Per-replica chain makespans"))
    lines += [
        f"slowest chain: block layout {result.default_makespan:.4f} s -> "
        f"optimized {result.makespan:.4f} s ({result.improvement_pct:+.2f}%)",
    ]
    if result.is_default:
        lines.append(
            "(the block layout is already optimal here; it is returned unchanged "
            "- the optimizer never does worse)"
        )
    if args.metrics:
        lines += ["", "Metrics:", session.metrics_text().rstrip()]
    return "\n".join(lines)


def run_trace(args) -> str:
    from .api import Job, Machine, Session
    from .autotune import EvaluationCache
    from .obs import Tracer

    try:
        # a fresh cache: a trace records the schedules of the cells it
        # prices, and a stored cell would price nothing
        if args.chrome:
            session = Session(Machine.summit(), EvaluationCache(), trace_to=args.chrome)
        else:
            # no export target: still collect spans for the summary
            session = Session(Machine.summit(), EvaluationCache())
            session.tracer = Tracer()
        job = Job(
            model=args.model,
            n_gpus=args.gpus,
            framework=args.framework,
            sparsity=args.sparsity,
            overlap=args.overlap,
        )
        b = session.breakdown(job, scenario=args.scenario)
    except (KeyError, ValueError) as err:
        msg = err.args[0] if err.args else str(err)
        raise SystemExit(f"repro trace: error: {msg}")

    scenario_label = args.scenario or "pristine"
    lines = [
        f"Traced {job.describe()} under '{scenario_label}'"
        + (" with allreduce/drain overlap" if args.overlap else ""),
        f"  batch total {b.total:.3f} s (compute {b.compute:.3f}, p2p {b.p2p:.3f}, "
        f"bubble {b.bubble:.3f}, collective {b.collective:.3f})",
        "",
        "Spans by category:",
    ]
    for category, count in session.tracer.by_category().items():
        lines.append(f"  {category or '(uncategorized)':24s} {count}")
    tracks = session.tracer.tracks()
    lines.append(f"{len(session.tracer)} spans over {len(tracks)} tracks")
    if args.chrome:
        from .obs import validate_chrome_trace
        import json

        with open(args.chrome) as fh:
            errors = validate_chrome_trace(json.load(fh))
        lines += [
            "",
            f"Chrome trace written to {args.chrome} "
            f"({'valid' if not errors else 'INVALID: ' + '; '.join(errors[:3])}) — "
            "open it at https://ui.perfetto.dev or chrome://tracing",
        ]
    if args.metrics:
        lines += ["", "Metrics:", session.metrics_text().rstrip()]
    return "\n".join(lines)


def run_simulate(args) -> str:
    from .models import get_spec
    from .obs import MetricsRegistry, observed
    from .parallel import compare_partition_modes, run_scenario
    from .reporting import render_table

    registry = MetricsRegistry()
    try:
        with observed(metrics=registry):
            trace, info = run_scenario(
                args.preset,
                g_inter=args.g_inter,
                n_microbatches=args.microbatches,
                t_f=args.t_f,
                t_b=args.t_b,
                msg_time=args.msg_time,
                prefer_backward=not args.fifo,
            )
    except ValueError as err:
        raise SystemExit(f"repro simulate: error: {err}")

    lines = [
        f"Scenario '{info['scenario']}': {info['description']}",
        f"G_inter={info['g_inter']}, m={info['n_microbatches']}, "
        f"uniform baseline t_f={args.t_f:g} t_b={args.t_b:g}",
        "stage t_f: " + " ".join(f"{t:.3g}" for t in info["t_f_stages"]),
        "stage t_b: " + " ".join(f"{t:.3g}" for t in info["t_b_stages"]),
    ]
    if info["link_times"]:
        lines.append("link msg : " + " ".join(f"{t:.3g}" for t in info["link_times"]))
    positive = [t for t in info["t_f_stages"] + info["t_b_stages"] if t > 0]
    if positive:
        unit = min(positive)
        if trace.makespan / unit <= 120:
            lines += ["", trace.ascii(unit), ""]
    rows = [
        {
            "GPU": g,
            "busy (s)": round(trace.busy_time(g), 3),
            "idle (s)": round(trace.idle_time(g), 3),
            "peak in-flight": trace.peak_in_flight[g],
        }
        for g in range(trace.g_inter)
    ]
    lines.append(render_table(rows, title="Per-GPU schedule accounting"))
    eq7 = info["eq7_bubble"]
    lines += [
        f"makespan: {trace.makespan:.3f} s",
        f"mean idle: {info['mean_idle']:.3f} s  (uniform-limit Eq. 6-7 bubble: {eq7:.3f} s)",
    ]
    if info["allreduce_slowdown"] != 1.0:
        lines.append(
            f"collective: reference 8-rank allreduce (100 MiB) slowed "
            f"{info['allreduce_slowdown']:.2f}x "
            f"({info['allreduce_ref']:.4f} s -> {info['allreduce_scenario']:.4f} s)"
        )
    # Scenario-aware partitioning: rebalance a real model's stage cuts
    # against time-under-scenario and compare against flops balancing.
    # Only meaningful when the scenario skews stage compute rates —
    # uniform rates make the two modes identical by construction.
    from .parallel import get_scenario

    rates = get_scenario(args.preset).scale_stage_times([1.0] * args.g_inter)
    if all(r == rates[0] for r in rates):
        lines.append(
            "(partition-mode comparison skipped: scenario leaves stage "
            "compute rates uniform, so mode='time' equals mode='flops')"
        )
        if args.metrics:
            lines += ["", "Metrics:", registry.render_prometheus().rstrip()]
        return "\n".join(lines)
    try:
        spec = get_spec(args.model)
        traces = compare_partition_modes(
            spec,
            args.preset,
            g_inter=args.g_inter,
            m=args.microbatches,
            t_f_model=args.t_f * args.g_inter,
            t_b_model=args.t_b * args.g_inter,
        )
    except (KeyError, ValueError) as err:
        lines.append(f"(partition-mode comparison skipped: {err})")
    else:
        flops_ms = traces["flops"].makespan
        time_ms = traces["time"].makespan
        gain = (1.0 - time_ms / flops_ms) * 100.0
        lines += [
            "",
            f"Partitioner comparison on {spec.name} (G_inter={args.g_inter}, "
            f"m={args.microbatches}):",
            f"  balanced_partition(mode='flops'): makespan {flops_ms:.3f} s",
            f"  balanced_partition(mode='time') : makespan {time_ms:.3f} s "
            f"({gain:+.1f}% makespan reduction)",
        ]
    if args.metrics:
        lines += ["", "Metrics:", registry.render_prometheus().rstrip()]
    return "\n".join(lines)


def run_serve(args) -> int:
    """Long-lived planning server (printing nothing of its own: stdout
    is the stdio transport's response stream)."""
    from .api import Machine
    from .serve import PersistentEvaluationStore, PlanningServer, serve_http, serve_stdio

    try:
        store = PersistentEvaluationStore(
            path=args.store,
            max_entries=args.max_entries,
            autosave_every=args.autosave_every,
        )
        server = PlanningServer(
            machine=Machine.summit(budget_gb=args.budget_gb),
            store=store,
        )
    except (KeyError, ValueError) as err:
        msg = err.args[0] if err.args else str(err)
        raise SystemExit(f"repro serve: error: {msg}")
    if store.quarantined:
        print(
            f"repro serve: warning: corrupt snapshot quarantined to "
            f"{store.quarantined} ({store.loaded} valid entries kept)",
            file=sys.stderr,
        )
    elif store.loaded:
        print(
            f"repro serve: warm-started {store.loaded} evaluations from {args.store}",
            file=sys.stderr,
        )
    if args.http is not None:
        print(
            f"repro serve: listening on http://{args.host}:{args.http} "
            "(POST JSON-RPC to /, GET /metrics, /healthz)",
            file=sys.stderr,
        )
        return serve_http(server, host=args.host, port=args.http)
    return serve_stdio(server, sys.stdin, sys.stdout, request_workers=args.workers)


def run_drift(args) -> str:
    """Cross-fidelity drift report (analytic vs sim vs measured).

    Exits nonzero when any measured phase drifts past its
    :data:`~repro.autotune.DRIFT_TOLERANCES` floor — the CI smoke runs
    ``repro drift --quick`` and relies on that exit code.
    """
    from .autotune.drift import drift_report, drift_report_json, render_drift_report

    report = drift_report(seed=args.seed, quick=args.quick)
    out = drift_report_json(report) if args.json else render_drift_report(report)
    if not report["ok"]:
        print(out)
        raise SystemExit(
            "repro drift: error: " + "; ".join(report["violations"])
        )
    return out


EXPERIMENTS = {
    "fig1": (run_fig1, "sparse libraries vs cuBLAS (FC layer microbenchmark)"),
    "fig2": (run_fig2, "analytical memory savings of SAMO vs sparsity"),
    "fig3": (run_fig3, "pipeline schedule illustration (G_inter=3, 5 microbatches)"),
    "fig4": (run_fig4, "statistical efficiency: dense vs SAMO perplexity (tiny run)"),
    "fig5": (run_fig5, "strong scaling: WideResnet-101 and VGG-19"),
    "fig6": (run_fig6, "strong scaling: GPT-3 XL and 2.7B"),
    "fig7": (run_fig7, "strong scaling: GPT-3 6.7B and 13B"),
    "fig8": (run_fig8, "batch-time breakdown, GPT-3 2.7B"),
    "table1": (run_table1, "model/hyperparameter inventory"),
    "table2": (run_table2, "% of peak fp16 throughput, GPT-3 13B"),
    "memory": (run_memory, "the Section I/VI memory-saving claim"),
    "plan": (run_plan, "autotune: best hybrid-parallel config (--scenarios for robust plans)"),
    "mc-plan": (run_mc_plan, "Monte-Carlo robust plan over a sampled failure process (CRN + 95% CIs)"),
    "simulate": (run_simulate, "cluster scenarios (straggler, slow-link, degraded-ring, ...)"),
    "place": (run_place, "optimize the data-parallel replica placement (vs the block layout)"),
    "trace": (run_trace, "span-trace one batch; --chrome exports a Perfetto-loadable timeline"),
    "serve": (run_serve, "planning server: JSON-RPC over stdio (or --http) on a persistent shared store"),
    "drift": (run_drift, "analytic-vs-sim-vs-measured drift over the Fig. 6-8 templates (nonzero exit past tolerance)"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures on the simulated cluster.",
    )
    sub = parser.add_subparsers(dest="cmd")
    sub.add_parser("list", help="list available experiments")
    for name, (_, help_text) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "fig4":
            p.add_argument("--steps", type=int, default=60, help="training steps per run")
        if name in ("fig6", "fig7"):
            p.add_argument("--model", default=None, help="restrict to one model name")
        if name == "memory":
            p.add_argument("--sparsity", type=float, default=0.9)
        if name == "plan":
            p.add_argument("--model", default="gpt3-2.7b", help="Table I model name")
            p.add_argument("--gpus", type=int, default=512, help="total GPU count")
            p.add_argument("--sparsity", type=float, default=0.9)
            p.add_argument(
                "--budget-gb", type=float, default=None, dest="budget_gb",
                help="per-GPU memory budget in GB (default: the 16 GB V100)",
            )
            p.add_argument(
                "--fidelity",
                choices=("analytic", "analytic-batch", "sim", "measured"),
                default=None,
                help="closed-form Eqs. 6-11 (analytic), the same equations "
                     "vectorized over the whole candidate grid "
                     "(analytic-batch), event-driven pipeline simulation "
                     "(sim), or executed-schedule pricing (measured) "
                     "(default: analytic; sim with --scenarios)",
            )
            p.add_argument("--top", type=int, default=8, help="rows in the summary")
            p.add_argument(
                "--paper-protocol", action="store_true",
                help="restrict to the paper's protocol (checkpointing always on)",
            )
            p.add_argument(
                "--scenario", default=None,
                help="rank configs under a degraded machine (requires "
                     "--fidelity sim): pipeline presets (straggler, "
                     "slow-link, skewed, contention) and collective "
                     "presets (degraded-ring, ring-straggler, "
                     "slow-ring-link, degraded); see 'repro simulate'",
            )
            from .api.scenario_set import SCENARIO_SETS

            p.add_argument(
                "--scenarios", default=None, choices=sorted(SCENARIO_SETS),
                help="robust plan: rank configs by expected cost over a "
                     "weighted scenario distribution (worst case "
                     "reported alongside)",
            )
            p.add_argument(
                "--json", action="store_true",
                help="emit the full plan as JSON (a diffable artifact) "
                     "instead of the report",
            )
            p.add_argument(
                "--overlap", action="store_true",
                help="overlap-aware costing: hide the bucketed "
                     "data-parallel allreduce behind the pipeline drain "
                     "on the event timeline (implies --fidelity sim)",
            )
            p.add_argument(
                "--placement", choices=("block", "best"), default="block",
                help="price candidates at the default block layout or at "
                     "the optimized replica placement (best implies "
                     "--fidelity sim; see 'repro place')",
            )
            p.add_argument(
                "--metrics", action="store_true",
                help="append the session metrics (cache hit/miss counts, "
                     "per-fidelity evaluation latency) to the output",
            )
            p.add_argument(
                "--compare-fidelities", action="store_true",
                dest="compare_fidelities",
                help="append a per-phase drift table of the winning config "
                     "priced under analytic, analytic-batch (the vectorized "
                     "array program), sim, and measured (the executed "
                     "schedule) — the from-the-CLI audit of every backend",
            )
        if name == "mc-plan":
            from .stochastic import PROCESSES

            p.add_argument("--model", default="gpt3-xl", help="Table I model name")
            p.add_argument("--gpus", type=int, default=16, help="total GPU count")
            p.add_argument("--sparsity", type=float, default=0.9)
            p.add_argument(
                "--budget-gb", type=float, default=None, dest="budget_gb",
                help="per-GPU memory budget in GB (default: the 16 GB V100)",
            )
            p.add_argument(
                "--process", default="flaky-links", choices=sorted(PROCESSES),
                help="failure process to sample degradation timelines from",
            )
            p.add_argument(
                "--samples", type=int, default=32,
                help="sampled timelines to price every candidate against",
            )
            p.add_argument(
                "--seed", type=int, default=0,
                help="seed of the SeedSequence the per-sample streams spawn from",
            )
            p.add_argument(
                "--no-crn", action="store_true", dest="no_crn",
                help="independent draws per candidate instead of common "
                     "random numbers (wider difference CIs; for comparison)",
            )
            p.add_argument(
                "--fidelity", choices=("analytic", "analytic-batch", "sim"),
                default=None,
                help="override the automatic choice (analytic for a "
                     "degenerate process, analytic-batch for collective-only "
                     "kinds, sim when any kind degrades the pipeline)",
            )
            p.add_argument("--top", type=int, default=8, help="rows in the summary")
            p.add_argument(
                "--replan", default=None, metavar="SCENARIO",
                help="also price the mid-job ride-vs-repair decision for "
                     "this failure scenario (any 'repro simulate' preset)",
            )
            p.add_argument(
                "--replan-at", type=float, default=0.5, dest="replan_at",
                help="normalised job progress at which the --replan failure arrives",
            )
            p.add_argument(
                "--json", action="store_true",
                help="emit the full result as JSON — byte-identical across "
                     "same-seed runs (a diffable artifact)",
            )
            p.add_argument(
                "--metrics", action="store_true",
                help="append the session metrics (mc.samples, "
                     "mc.replan_evaluations, per-sample histograms)",
            )
        if name == "place":
            p.add_argument("--model", default="gpt3-2.7b", help="Table I model name")
            p.add_argument("--gpus", type=int, default=16, help="total GPU count")
            p.add_argument(
                "--framework", default="axonn",
                help="framework whose decomposition is placed "
                     "(axonn, axonn+samo, deepspeed-3d, sputnik)",
            )
            p.add_argument("--sparsity", type=float, default=0.9)
            p.add_argument("--mbs", type=int, default=1, help="microbatch size")
            p.add_argument(
                "--scenario", default=None,
                help="optimize under a degraded machine (any 'repro simulate' preset)",
            )
            p.add_argument(
                "--sweeps", type=int, default=2,
                help="local-swap refinement passes after the greedy construction",
            )
            p.add_argument(
                "--json", action="store_true",
                help="emit the placement result as JSON instead of the report",
            )
            p.add_argument(
                "--metrics", action="store_true",
                help="append the session metrics to the output",
            )
        if name == "simulate":
            from .parallel.scenarios import SCENARIOS

            p.add_argument(
                "--preset", default="uniform", choices=sorted(SCENARIOS),
                help="heterogeneity scenario to simulate",
            )
            p.add_argument("--g-inter", type=int, default=4, dest="g_inter",
                           help="pipeline depth (stages == GPUs)")
            p.add_argument("--microbatches", type=int, default=8,
                           help="microbatches per batch shard")
            p.add_argument("--t-f", type=float, default=1.0, dest="t_f",
                           help="uniform per-stage forward time (s)")
            p.add_argument("--t-b", type=float, default=2.0, dest="t_b",
                           help="uniform per-stage backward time (s)")
            p.add_argument(
                "--msg-time", type=float, default=None, dest="msg_time",
                help="per-link message time (default: the preset's base)",
            )
            p.add_argument(
                "--fifo", action="store_true",
                help="arrival-order scheduling instead of 1F1B backward preference",
            )
            p.add_argument(
                "--model", default="gpt3-xl",
                help="Table I model whose flops partition feeds the "
                     "flops-vs-time partition-mode comparison",
            )
            p.add_argument(
                "--metrics", action="store_true",
                help="append engine metrics (events processed, overlap "
                     "bucket counts) to the output",
            )
        if name == "serve":
            p.add_argument(
                "--store", default=None, metavar="PATH",
                help="JSON-lines snapshot for the evaluation store: "
                     "warm-started at boot, flushed at shutdown",
            )
            p.add_argument(
                "--max-entries", type=int, default=0, dest="max_entries",
                help="evaluation-store capacity; least-recently-used "
                     "entries are evicted beyond it (0 = unbounded)",
            )
            p.add_argument(
                "--autosave-every", type=int, default=0, dest="autosave_every",
                help="snapshot the store to --store once N evaluations were "
                     "stored since the last snapshot (0 = only at shutdown / "
                     "on a 'save' request)",
            )
            p.add_argument(
                "--http", type=int, default=None, metavar="PORT",
                help="serve HTTP on this port instead of stdio JSON-RPC",
            )
            p.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
            p.add_argument(
                "--workers", type=int, default=8,
                help="concurrent stdio requests (identical in-flight "
                     "requests coalesce through the store)",
            )
            p.add_argument(
                "--budget-gb", type=float, default=None, dest="budget_gb",
                help="per-GPU memory budget in GB (default: the 16 GB V100)",
            )
        if name == "drift":
            p.add_argument(
                "--quick", action="store_true",
                help="first template only (the CI smoke)",
            )
            p.add_argument(
                "--seed", type=int, default=0,
                help="seed of the measured executions and the synthetic "
                     "calibration samples (same seed => byte-identical "
                     "--json output)",
            )
            p.add_argument(
                "--json", action="store_true",
                help="emit the full report as canonical JSON (sorted keys; "
                     "a diffable artifact) instead of the tables",
            )
        if name == "trace":
            p.add_argument("--model", default="gpt3-2.7b", help="Table I model name")
            p.add_argument("--gpus", type=int, default=128, help="total GPU count")
            p.add_argument(
                "--framework", default="axonn",
                help="framework whose batch is traced "
                     "(axonn, axonn+samo, deepspeed-3d, sputnik)",
            )
            p.add_argument("--sparsity", type=float, default=0.9)
            p.add_argument(
                "--scenario", default="degraded-ring",
                help="scenario to trace under (any 'repro simulate' preset; "
                     "default degraded-ring)",
            )
            p.add_argument(
                "--no-overlap", action="store_false", dest="overlap",
                help="additive collective costing instead of the default "
                     "overlapped allreduce (overlap makes the hidden vs "
                     "exposed bucket tracks interesting)",
            )
            p.add_argument(
                "--chrome", default=None, metavar="OUT.json",
                help="write the Chrome trace_event JSON here (open in "
                     "https://ui.perfetto.dev or chrome://tracing)",
            )
            p.add_argument(
                "--metrics", action="store_true",
                help="append the session metrics to the output",
            )

    args = parser.parse_args(argv)
    if args.cmd in (None, "list"):
        print("Available experiments:")
        for name, (_, help_text) in EXPERIMENTS.items():
            print(f"  {name:8s} {help_text}")
        return 0 if args.cmd == "list" else 2
    if args.cmd == "serve":
        # long-lived; stdout belongs to the stdio transport, not a report
        return run_serve(args)
    runner, _ = EXPERIMENTS[args.cmd]
    print(runner(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
