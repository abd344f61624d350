"""Command-line interface over the :mod:`repro.api` facade.

Five subcommands mirror the paper's workflow plus the multicore axis:

* ``run`` (alias ``campaign``) — run a measurement campaign for any
  registered workload/platform pair, optionally sharded across
  processes, and persist the complete campaign artifact (per-path
  samples, seeds, platform fingerprint) to JSON,
* ``analyse`` — run the MBPTA pipeline on a saved artifact/sample (or a
  fresh campaign) and print the report; per-path grouping is preserved
  through save/load,  ``--method`` picks the tail estimator from the
  registry (``auto`` selects per path via fit-quality diagnostics) and
  ``--ci``/``--bootstrap`` add vectorized bootstrap confidence bands;
  ``--out`` writes the artifact back with the analysis summary attached,
* ``compare`` — the Figure-3 comparison (DET/MBTA vs RAND/MBPTA),
* ``contend`` — sweep the same workload over contention scenarios
  (isolation vs co-runner opponents) and render the comparison panel,
* ``list`` — show the registered workloads, platforms (with their
  default core counts) and contention scenarios; ``--json`` emits the
  machine-readable registry document (schema ``repro.registry/1``, the
  same one the campaign service serves at ``GET /registry``),
* ``serve`` — run the campaign service daemon: an HTTP job API over a
  persistent, content-addressed campaign store (see
  :mod:`repro.service`); ``run``/``analyse`` accept ``--remote URL`` to
  submit their campaign to such a daemon instead of executing
  in-process — the artifact is bit-identical either way, and repeated
  submissions of the same campaign are served from the daemon's cache.

Every subcommand maps its flags onto the same frozen request objects
(:class:`repro.api.requests.CampaignRequest` /
:class:`~repro.api.requests.AnalysisRequest`) that the library facade
and the service API consume, so validation, digests and artifacts are
identical no matter which door a campaign comes in through.

``run``, ``analyse`` and ``compare`` accept ``--until-converged``: the
campaign then stops at the first run where the MBPTA convergence
criterion holds (``--runs`` becomes the cap) instead of always burning
the full budget — the paper's own stopping rule ("... which satisfied
the convergence criteria").  The decision is a pure function of the
observation sequence in run-index order, so ``--shards`` does not change
where an adaptive campaign stops.

They also accept ``--cores N`` (size of the modelled SoC) and
``--co-runner SCENARIO`` (a registered contention scenario): the
workload is then co-scheduled against that scenario's opponents on the
other cores, and per-run records carry the per-core/contention
breakdown.

Examples::

    python -m repro.cli run --workload tvca --runs 300 --shards 4 --out c.json
    python -m repro.cli run --runs 3000 --until-converged --out c.json
    python -m repro.cli run --workload matmul --cores 4 \\
        --co-runner opponent-memory-hammer --out hammer.json
    python -m repro.cli analyse --sample c.json
    python -m repro.cli analyse --runs 300 --cutoff 1e-12
    python -m repro.cli analyse --sample c.json --method auto --ci 0.95
    python -m repro.cli analyse --sample c.json --method pot-gpd --ci 0.9 \\
        --bootstrap 500 --bootstrap-kind block --out c-analysed.json
    python -m repro.cli compare --runs 200 --shards 4
    python -m repro.cli contend --workload matmul --runs 200 --cutoff 1e-9
    python -m repro.cli contend --runs 200 --cutoff 1e-9 --ci 0.95
    python -m repro.cli list
    python -m repro.cli list --json
    python -m repro.cli serve --port 8321 --store ~/.repro-store
    python -m repro.cli run --runs 300 --remote http://127.0.0.1:8321 --out c.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from .api import (
    AnalysisRequest,
    CampaignArtifact,
    CampaignRequest,
    create_platform,
    estimator_description,
    estimator_names,
    execute_request,
    load_measurements,
    platform_names,
    registry_schema,
    scenario_description,
    scenario_names,
    workload_names,
)
from .api.artifacts import atomic_write_text
from .core import (
    AnalysisPipeline,
    AnalysisResult,
    ConvergencePolicy,
    mbta_bound,
)
from .core.convergence import CampaignConvergenceSummary
from .harness import band_relation, compare_requests, compare_scenarios_request
from .viz import contention_csv, contention_panel, figure3_panel

__all__ = ["main", "build_parser"]


def _workload_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    if getattr(args, "workload", "tvca") == "tvca":
        return {"estimator_dim": args.estimator_dim, "aero_window": 32}
    return {}


def _platform_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "num_cores": getattr(args, "cores", 1),
        "cache_kb": args.cache_kb,
    }


def _analysis_request(args: argparse.Namespace) -> AnalysisRequest:
    """The analysis knobs requested on the command line, as a request.

    Constructing it validates every knob, so commands call this before
    running a campaign: a bad ``--ci`` exits 2 with no run burned.
    """
    return AnalysisRequest(
        method=args.method,
        ci=args.ci,
        bootstrap=args.bootstrap,
        bootstrap_kind=args.bootstrap_kind,
    )


def _campaign_request(
    args: argparse.Namespace,
    platform: str,
    workload: Optional[str] = None,
    with_analysis: bool = False,
) -> CampaignRequest:
    """Map the shared CLI flag groups onto a :class:`CampaignRequest`.

    One flag, one field — every subcommand (and the campaign service,
    which receives this exact object as JSON) resolves the same way.
    """
    if workload is None:
        workload = str(getattr(args, "workload", "tvca"))
    return CampaignRequest(
        workload=workload,
        platform=platform,
        runs=args.runs,
        base_seed=args.seed,
        scenario=getattr(args, "co_runner", None),
        shards=getattr(args, "shards", 1),
        backend=getattr(args, "backend", "auto"),
        workload_kwargs=_workload_kwargs(args),
        platform_kwargs=_platform_kwargs(args),
        convergence=_policy(args),
        analysis=_analysis_request(args) if with_analysis else None,
    )


def _print_band_summary(result: AnalysisResult) -> None:
    """Compact per-path band lines (run/compare output)."""
    for path, analysis in sorted(result.paths.items()):
        band = analysis.band
        if band is None:
            continue
        deepest = band.cutoffs[-1]
        lo, hi = band.interval(deepest)
        point = analysis.curve.quantile(deepest)
        print(
            f"  path {path} [{analysis.method}]: pWCET@{deepest:.0e} = "
            f"{point:.0f}, {band.level:.0%} CI [{lo:.0f}, {hi:.0f}]"
        )


def _policy(args: argparse.Namespace) -> Optional[ConvergencePolicy]:
    """The adaptive stopping policy requested on the command line."""
    if not getattr(args, "until_converged", False):
        return None
    return ConvergencePolicy(
        probability=args.conv_probability,
        tolerance=args.tolerance,
        step=args.conv_step,
        block_size=args.conv_block,
    )


def _print_convergence(summary: CampaignConvergenceSummary) -> None:
    """One-glance adaptive-campaign outcome for run/compare output."""
    status = "converged" if summary.converged else "cap reached, not converged"
    print(f"  adaptive: {summary.used}/{summary.requested} runs ({status})")
    for path, report in sorted(summary.paths.items()):
        if report.converged:
            print(f"    path {path}: stable after {report.runs_needed} runs")
        elif report.history:
            print(f"    path {path}: {len(report.history)} checkpoints, not stable")


def _print_artifact_headline(artifact: CampaignArtifact) -> None:
    """The ``run`` summary lines, from a (possibly remote) artifact."""
    sample = artifact.merged
    print(
        f"{artifact.label}: n={len(sample)} min={sample.minimum:.0f} "
        f"mean={sample.mean:.0f} hwm={sample.hwm:.0f} "
        f"backend={artifact.backend}"
    )
    for path, count in sorted(artifact.samples.counts().items()):
        print(f"  path {path}: {count} runs")
    if artifact.convergence is not None:
        _print_convergence(artifact.convergence)


def _remote_artifact_text(args: argparse.Namespace, request: CampaignRequest) -> str:
    """Submit ``request`` to the daemon at ``--remote`` and fetch the
    artifact as raw text (raw = the bit-identity contract holds end to
    end; a re-serialization here could mask a wire corruption)."""
    from .service import ServiceClient

    return ServiceClient(args.remote).run(request)


def cmd_run(args: argparse.Namespace) -> int:
    request = _campaign_request(
        args, args.platform, with_analysis=args.ci is not None
    )
    _analysis_request(args)  # validate analysis knobs before any run
    if getattr(args, "remote", None):
        text = _remote_artifact_text(args, request)
        artifact = CampaignArtifact.from_json(text)
        _print_artifact_headline(artifact)
        if args.out:
            atomic_write_text(Path(args.out), text)
            print(f"campaign artifact written to {args.out}")
        return 0
    execution = execute_request(request)
    result = execution.result
    sample = result.merged
    print(
        f"{result.label}: n={len(sample)} min={sample.minimum:.0f} "
        f"mean={sample.mean:.0f} hwm={sample.hwm:.0f} "
        f"backend={result.backend}"
    )
    for path, count in sorted(result.samples.counts().items()):
        print(f"  path {path}: {count} runs")
    if result.convergence is not None:
        _print_convergence(result.convergence)
    if execution.analysis is not None:
        _print_band_summary(execution.analysis)
    if args.out:
        execution.artifact().save(args.out)
        print(f"campaign artifact written to {args.out}")
    return 0


def cmd_analyse(args: argparse.Namespace) -> int:
    analysis_request = _analysis_request(args)  # validates before any run
    artifact = None
    if args.sample:
        loaded = load_measurements(args.sample)
        if isinstance(loaded, CampaignArtifact):
            artifact = loaded
            data = loaded.samples
            n = loaded.num_runs
        else:
            data = loaded
            n = (
                sum(data.counts().values())
                if hasattr(data, "counts")
                else len(data)
            )
        if artifact is not None and artifact.convergence is not None:
            print(f"{artifact.label}:")
            _print_convergence(artifact.convergence)
    elif getattr(args, "remote", None):
        # Measure on the daemon, analyse locally (the analysis is a
        # deterministic function of the fetched samples).
        request = _campaign_request(args, "rand")
        artifact = CampaignArtifact.from_json(
            _remote_artifact_text(args, request)
        )
        data = artifact.samples
        n = artifact.num_runs
        if artifact.convergence is not None:
            print(f"{artifact.label}:")
            _print_convergence(artifact.convergence)
    else:
        request = _campaign_request(args, "rand")
        execution = execute_request(request)
        result = execution.result
        data = result.samples
        n = result.num_runs
        if result.convergence is not None:
            print(f"{result.label}:")
            _print_convergence(result.convergence)
        if args.out:
            artifact = execution.artifact()
    analysis = AnalysisPipeline(analysis_request.analysis_config(n)).run(data)
    print(analysis.report())
    if args.cutoff:
        print(f"\npWCET@{args.cutoff:g} = {analysis.quantile(args.cutoff):.0f}")
        band = analysis.envelope.band(args.cutoff)
        if band is not None:
            level = analysis.config.ci
            print(
                f"{level:.0%} CI at {args.cutoff:g}: "
                f"[{band[0]:.0f}, {band[1]:.0f}]"
            )
    if args.out:
        if artifact is not None:
            artifact.attach_analysis(analysis)
            artifact.save(args.out)
            print(f"\ncampaign artifact (with analysis) written to {args.out}")
        else:
            print(
                "warning: --out ignored — the input is a bare sample file, "
                "not a campaign artifact; produce one with `run --out` to "
                "persist the analysis alongside the measurements",
                file=sys.stderr,
            )
    return 0 if analysis.iid_ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    analysis_request = _analysis_request(args)  # validates before any run
    det_request = _campaign_request(args, "det", workload="tvca")
    comparison = compare_requests(
        det_request, replace(det_request, platform="rand")
    )
    for name, result in (("DET", comparison.det), ("RAND", comparison.rand)):
        if result.convergence is not None:
            print(f"{name}:")
            _print_convergence(result.convergence)
    det = comparison.det_sample
    rand = comparison.rand_sample
    mbta = mbta_bound(det.values, engineering_factor=args.factor)
    analysis = comparison.analyse_rand(analysis_request)
    print(
        figure3_panel(
            det_mean=det.mean,
            rand_mean=rand.mean,
            det_hwm=mbta.hwm,
            mbta_bound=mbta.bound,
            pwcet_by_cutoff=analysis.pwcet_table(),
        )
    )
    print(f"\nRAND/DET average ratio: {comparison.average_ratio():.4f}")
    if args.ci is not None:
        _print_band_summary(analysis)
        cutoff = args.cutoff if getattr(args, "cutoff", None) else 1e-12
        verdict = comparison.mbta_vs_band(analysis, cutoff, mbta.bound)
        if verdict is not None:
            relation = {
                "above": "the whole pWCET band exceeds the MBTA bound",
                "below": "the whole pWCET band is below the MBTA bound",
                "overlap": "the pWCET band contains the MBTA bound",
            }[verdict["relation"]]
            print(
                f"MBTA bound {verdict['mbta']:.0f} vs pWCET@{cutoff:.0e} "
                f"CI [{verdict['lower']:.0f}, {verdict['upper']:.0f}]: "
                f"{relation}"
            )
    return 0


def cmd_contend(args: argparse.Namespace) -> int:
    analysis_request = _analysis_request(args)  # validates before any run
    scenarios = args.scenarios
    if args.co_runner is not None:
        # Shorthand: --co-runner X sweeps isolation against X.
        if scenarios is not None:
            raise ValueError(
                "pass either --scenarios or --co-runner, not both"
            )
        scenarios = ["isolation", args.co_runner]
    if scenarios is None:
        scenarios = ["isolation", "opponent-memory-hammer"]
    base_request = replace(
        _campaign_request(args, args.platform), scenario=None
    )
    comparison = compare_scenarios_request(base_request, scenarios=scenarios)
    summary = comparison.summary(cutoff=args.cutoff, analysis=analysis_request)
    print(contention_panel(summary))
    if args.cutoff:
        print(f"\n('pwcet' row = estimate at P(exceed) = {args.cutoff:g})")
    if args.ci is not None and "isolation" in summary:
        base = summary["isolation"]
        if "pwcet_lo" in base:
            for name, row in sorted(summary.items()):
                if name == "isolation" or "pwcet_lo" not in row:
                    continue
                relation = band_relation(
                    row["pwcet_lo"], row["pwcet_hi"],
                    base["pwcet_lo"], base["pwcet_hi"],
                )
                verdict = {
                    "above": "separated above isolation at this confidence",
                    "below": "separated below isolation at this confidence",
                    "overlap": "band overlaps isolation (gap not resolvable)",
                }[relation]
                print(f"{name}: pWCET {verdict}")
    for name, result in sorted(comparison.by_scenario.items()):
        if result.convergence is not None:
            print(f"{name}:")
            _print_convergence(result.convergence)
    if args.out:
        atomic_write_text(Path(args.out), contention_csv(summary) + "\n")
        print(f"contention comparison CSV written to {args.out}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        # Same document the service's GET /registry serves
        # (schema repro.registry/1), so scripts can target either.
        print(json.dumps(registry_schema(), indent=2, sort_keys=True))
        return 0
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print("platforms:")
    for name in platform_names():
        cores = create_platform(name).config.num_cores
        print(f"  {name} (default cores: {cores})")
    print("scenarios (--co-runner):")
    for name in scenario_names():
        description = scenario_description(name)
        suffix = f" — {description}" if description else ""
        print(f"  {name}{suffix}")
    print("estimators (--method):")
    for name in estimator_names():
        description = estimator_description(name)
        suffix = f" — {description}" if description else ""
        print(f"  {name}{suffix}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    server = serve(
        args.store, host=args.host, port=args.port, workers=args.workers
    )
    print(f"campaign service listening on {server.url} (store: {args.store})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MBPTA on time-randomized platforms (DATE 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Three shared flag groups, each mapping 1:1 onto a request object:
    # campaign flags -> CampaignRequest, analysis flags ->
    # AnalysisRequest, convergence flags -> ConvergencePolicy.  Defined
    # once; every campaign-running subcommand composes all three.

    def add_campaign_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--runs", type=int, default=300, help="measured executions")
        p.add_argument("--seed", type=int, default=2017, help="campaign base seed")
        p.add_argument(
            "--shards", type=int, default=1,
            help="parallel worker processes (results are shard-invariant)",
        )
        p.add_argument(
            "--backend", choices=("scalar", "batch", "auto"), default="auto",
            help="execution backend: the scalar interpreter, the "
            "vectorized batch engine, or auto-selection (batch where "
            "it pays; results are bit-identical either way)",
        )
        p.add_argument(
            "--cache-kb", type=int, default=4,
            help="L1 size in KB (16 = the paper's board; 4 = scaled pressure)",
        )
        p.add_argument(
            "--cores", type=int, default=1,
            help="cores of the modelled SoC (the paper's board has 4; "
            "co-runner scenarios need >= 2)",
        )
        p.add_argument(
            "--co-runner", choices=tuple(scenario_names()), default=None,
            help="co-schedule the workload against this contention "
            "scenario's opponents on the other cores (see `list`)",
        )
        p.add_argument(
            "--estimator-dim", type=int, default=20,
            help="TVCA estimator dimension (44 = full configuration)",
        )

    def add_analysis_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--method", choices=tuple(estimator_names()),
            default="block-maxima-gumbel",
            help="tail estimator (registry key; `auto` selects per path "
            "via fit-quality diagnostics — see `list`)",
        )
        p.add_argument(
            "--ci", type=float, default=None,
            help="confidence level for bootstrap pWCET bands "
            "(e.g. 0.95; off by default)",
        )
        p.add_argument(
            "--bootstrap", type=int, default=200,
            help="bootstrap replicates for the confidence bands",
        )
        p.add_argument(
            "--bootstrap-kind", choices=("parametric", "block"),
            default="parametric",
            help="bootstrap resampling: parametric (from the fitted "
            "tail) or block (resample the fitted maxima/excesses)",
        )

    def add_convergence_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--until-converged", action="store_true",
            help="stop once the MBPTA convergence criterion holds "
            "(--runs becomes the cap; needs runs >= 20 x the block size "
            "before the first estimate exists)",
        )
        p.add_argument(
            "--conv-probability", type=float, default=1e-9,
            help="adaptive stopping: exceedance probability the monitored "
            "pWCET estimate is taken at",
        )
        p.add_argument(
            "--tolerance", type=float, default=0.01,
            help="adaptive stopping: relative pWCET-change tolerance",
        )
        p.add_argument(
            "--conv-step", type=int, default=100,
            help="adaptive stopping: runs between convergence checkpoints",
        )
        p.add_argument(
            "--conv-block", type=int, default=20,
            help="adaptive stopping: block size of the monitored EVT fit",
        )

    def add_remote_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--remote", metavar="URL", default=None,
            help="submit the campaign to a running `repro serve` daemon "
            "at this base URL instead of executing in-process "
            "(identical artifact either way)",
        )

    def common(p: argparse.ArgumentParser) -> None:
        add_campaign_flags(p)
        add_analysis_flags(p)
        add_convergence_flags(p)

    for alias in ("run", "campaign"):
        p_run = sub.add_parser(
            alias,
            help="collect execution times"
            + ("" if alias == "run" else " (alias of run)"),
        )
        common(p_run)
        p_run.add_argument(
            "--workload", default="tvca",
            help="registered workload name (see `list`)",
        )
        p_run.add_argument(
            "--platform", choices=tuple(platform_names()), default="rand"
        )
        p_run.add_argument(
            "--out", help="write the full campaign artifact to this JSON file"
        )
        add_remote_flag(p_run)
        p_run.set_defaults(func=cmd_run)

    p_analyse = sub.add_parser("analyse", help="run the MBPTA pipeline")
    common(p_analyse)
    p_analyse.add_argument("--workload", default="tvca", help=argparse.SUPPRESS)
    p_analyse.add_argument(
        "--sample",
        help="analyse a saved campaign artifact or sample file instead",
    )
    p_analyse.add_argument(
        "--cutoff", type=float, help="also print the pWCET at this probability"
    )
    p_analyse.add_argument(
        "--out",
        help="write the campaign artifact with the analysis summary "
        "(estimator, fit quality, bands) attached to this JSON file",
    )
    add_remote_flag(p_analyse)
    p_analyse.set_defaults(func=cmd_analyse)

    p_compare = sub.add_parser("compare", help="Figure-3 DET/RAND comparison")
    common(p_compare)
    p_compare.add_argument(
        "--factor", type=float, default=0.5, help="MBTA engineering factor"
    )
    p_compare.set_defaults(func=cmd_compare)

    p_contend = sub.add_parser(
        "contend", help="contention-vs-isolation scenario comparison"
    )
    common(p_contend)
    p_contend.set_defaults(cores=4)
    p_contend.add_argument(
        "--workload", default="matmul",
        help="registered workload name (see `list`)",
    )
    p_contend.add_argument(
        "--platform", choices=tuple(platform_names()), default="rand"
    )
    p_contend.add_argument(
        "--scenarios", nargs="+", default=None,
        help="scenario names to sweep (isolation first for the baseline; "
        "default: isolation vs opponent-memory-hammer — or pass "
        "--co-runner X as shorthand for isolation vs X)",
    )
    p_contend.add_argument(
        "--cutoff", type=float,
        help="also estimate the per-scenario pWCET at this probability",
    )
    p_contend.add_argument(
        "--out", help="write the comparison as CSV to this file"
    )
    p_contend.set_defaults(func=cmd_contend)

    p_list = sub.add_parser(
        "list",
        help="list registered workloads, platforms and contention scenarios",
    )
    p_list.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (schema repro.registry/1 — the "
        "same document the campaign service serves at GET /registry)",
    )
    p_list.set_defaults(func=cmd_list)

    p_serve = sub.add_parser(
        "serve",
        help="run the campaign service daemon (HTTP job API over a "
        "persistent cross-process campaign store)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="TCP port (0 picks a free ephemeral port)",
    )
    p_serve.add_argument(
        "--store", default=".repro-store",
        help="persistent store directory (campaign cache keyed by "
        "execution digest; shared safely between daemons)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="job worker threads (1 = strict submission-order execution)",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        message = exc if isinstance(exc, OSError) else (
            exc.args[0] if exc.args else exc
        )
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
