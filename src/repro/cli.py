"""Command-line interface: run applications, protocols and experiments.

Examples::

    python -m repro list
    python -m repro run --app FFT --protocol GeNIMA
    python -m repro run --app Water-nsquared --protocol Base --nodes 8
    python -m repro run --app Water-spatial --faults loss=0.01,jitter=5
    python -m repro faultsweep --app Water-spatial
    python -m repro ladder --app Ocean-rowwise
    python -m repro figure 2
    python -m repro table 1
    python -m repro profile --app fft --variant base --variant genima
    python -m repro critpath --app fft --variant base --variant genima
    python -m repro scale --app KVStore --nodes 16 --nodes 256
    python -m repro calibrate
    python -m repro check --app Barnes-spatial
    python -m repro lint
"""

from __future__ import annotations

import argparse
import json
import sys

from . import PROTOCOL_LADDER, FaultConfig, MachineConfig
from .apps import APP_REGISTRY, PAPER_APPS
from .runtime import run_hwdsm, run_sequential, run_svm, speedup
from .svm import GENIMA_MC, GENIMA_PLUS, GENIMA_SG

PROTOCOLS = {f.name: f
             for f in (*PROTOCOL_LADDER, GENIMA_SG, GENIMA_MC, GENIMA_PLUS)}

#: default matrix for ``repro check``: the two fastest lock-using apps.
CHECK_APPS = ("Barnes-spatial", "Water-spatial")


def _make_cache(args, config=None):
    """Experiment cache from the shared grid options (see
    ``_grid_parent``): ``--jobs`` sizes the worker pool, ``--cache-dir``
    overrides the store root and ``--no-cache`` disables persistence.
    Processes sharing a store compute each cell once between them."""
    from .experiments import ExperimentCache
    from .runtime import ResultStore
    store = None if args.no_cache else ResultStore(args.cache_dir)
    return ExperimentCache(config=config, jobs=args.jobs, store=store,
                           jobs_force=args.jobs_force)


def _cmd_list(_args) -> int:
    from .apps import DATACENTER_APPS
    print("applications:")
    for name in PAPER_APPS:
        cls = APP_REGISTRY[name]
        print(f"  {name:18s} paper size: {cls.paper_params}")
    print("\ndatacenter workloads (repro scale):")
    for name in DATACENTER_APPS:
        print(f"  {name}")
    print("\nprotocols:")
    for name in PROTOCOLS:
        print(f"  {name}")
    return 0


def _make_app(args):
    cls = APP_REGISTRY[args.app]
    return cls(**cls.paper_params) if args.paper_size else cls()


def _parse_faults(args):
    """--faults SPEC -> FaultConfig (None when the flag is absent)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    try:
        return FaultConfig.parse(spec)
    except ValueError as err:
        raise SystemExit(f"error: --faults: {err}")


def _cmd_run(args) -> int:
    config = MachineConfig(nodes=args.nodes, faults=_parse_faults(args))
    seq = run_sequential(_make_app(args), config=config)
    if args.protocol == "Origin":
        from .hwdsm import HWDSMConfig
        result = run_hwdsm(_make_app(args),
                           config=HWDSMConfig(nprocs=config.total_procs))
    else:
        result = run_svm(_make_app(args), PROTOCOLS[args.protocol],
                         config=config, check=args.check)
    mean = result.mean_breakdown
    print(f"{args.app} on {result.system}, {result.nprocs} processors")
    print(f"  sequential time : {seq.time_us / 1000:.1f} ms")
    print(f"  parallel time   : {result.time_us / 1000:.1f} ms")
    print(f"  speedup         : {speedup(seq, result):.2f}")
    print(f"  breakdown (ms)  : compute={mean.compute / 1000:.1f} "
          f"data={mean.data / 1000:.1f} lock={mean.lock / 1000:.1f} "
          f"acqrel={mean.acqrel / 1000:.1f} "
          f"barrier={mean.barrier / 1000:.1f}")
    for key in ("interrupts", "messages", "page_fetches", "fetch_retries",
                "diffs_sent", "diff_runs_sent", "wn_messages",
                "packets_dropped", "packets_duplicated",
                "packets_reordered", "retransmits", "retx_timeouts",
                "dup_discards"):
        if key in result.stats:
            print(f"  {key:15s} : {result.stats[key]}")
    return 0


def _cmd_ladder(args) -> int:
    from .experiments import format_table
    cache = _make_cache(args)
    cache.warm([cache.spec_seq(args.app)]
               + [cache.spec_svm(args.app, feats)
                  for feats in PROTOCOL_LADDER])
    seq = cache.seq(args.app)
    rows = []
    for feats in PROTOCOL_LADDER:
        result = cache.svm(args.app, feats)
        rows.append((feats.name, speedup(seq, result),
                     result.stats["interrupts"],
                     result.stats["messages"]))
    print(format_table(["Protocol", "Speedup", "Interrupts", "Messages"],
                       rows, title=f"{args.app}: protocol ladder"))
    return 0


def _cmd_figure(args) -> int:
    from . import experiments as ex
    fns = {
        "1": (ex.compute_figure1, ex.render_figure1),
        "2": (ex.compute_figure2, ex.render_figure2),
        "3": (ex.compute_figure3, ex.render_figure3),
        "4": (ex.compute_figure4, ex.render_figure4),
    }
    compute, render = fns[args.number]
    print(render(compute(_make_cache(args))))
    return 0


def _cmd_table(args) -> int:
    from . import experiments as ex
    cache = _make_cache(args)
    if args.number == "1":
        print(ex.render_table1(ex.compute_table1(cache)))
    elif args.number == "2":
        print(ex.render_table2(ex.compute_table2(cache)))
    elif args.number in ("3", "4"):
        data = ex.compute_table34(cache)
        print(ex.render_table34(
            data, "small" if args.number == "3" else "large"))
    elif args.number == "5":
        print(ex.render_table5(ex.compute_table5(cache)))
    return 0


def _cmd_traffic(args) -> int:
    from .experiments import render_traffic, traffic_profile
    from .svm import BASE, GENIMA
    profiles = {}
    for feats in (BASE, GENIMA):
        profiles[feats.name] = traffic_profile(args.app, feats)
    print(render_traffic(profiles, args.app))
    return 0


def _cmd_faultsweep(args) -> int:
    """Completion time vs. injected loss rate for one app/protocol."""
    from .experiments import (DEFAULT_LOSS_RATES, compute_faultsweep,
                              render_faultsweep)
    feats = PROTOCOLS[args.protocol]
    rows = compute_faultsweep(args.app, feats,
                              loss_rates=args.loss or DEFAULT_LOSS_RATES,
                              seed=args.seed, jitter_us=args.jitter,
                              cache=_make_cache(args))
    print(render_faultsweep(rows, args.app, feats.name))
    return 0


def _resolve_name(value: str, names, what: str) -> str:
    """Case-insensitive lookup of ``value`` among ``names``."""
    matches = [n for n in names if n.lower() == value.lower()]
    if not matches:
        raise SystemExit(
            f"error: unknown {what} {value!r} (choose from "
            f"{', '.join(sorted(names))})")
    return matches[0]


def _cmd_profile(args) -> int:
    from .experiments import collect_profiles_grid
    from .obs import (PROFILE_SCHEMA, render_profiles, render_profiles_html,
                      render_timeline, render_utilization)
    app_name = _resolve_name(args.app, APP_REGISTRY, "application")
    variant_names = [_resolve_name(v, PROTOCOLS, "protocol variant")
                     for v in (args.variant or ["GeNIMA"])]
    cls = APP_REGISTRY[app_name]
    config = MachineConfig(nodes=args.nodes)
    profiles = collect_profiles_grid(
        app_name, [PROTOCOLS[n] for n in variant_names],
        cache=_make_cache(args, config=config), config=config,
        slice_us=args.slice_us,
        params=cls.paper_params if args.paper_size else None)
    payload = {"schema": PROFILE_SCHEMA,
               "profiles": [p.to_dict() for p in profiles]}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_profiles_html(profiles))
        print(f"wrote {args.html}")
    print()
    print(render_profiles(profiles))
    print()
    print(render_timeline(profiles[-1]))
    print()
    print(render_utilization(profiles[-1]))
    bad = [p for p in profiles if not p.accounting_ok]
    for p in bad:
        print(f"TIME ACCOUNTING VIOLATED: {p.app}/{p.system} max "
              f"residual {p.max_residual_us:.3e} us", file=sys.stderr)
    return 1 if bad else 0


def _cmd_critpath(args) -> int:
    """Spanned runs -> critical paths, ladder diff and Perfetto export.

    Exits non-zero whenever any extracted path fails to reconcile with
    the timed-section wall time (the extractor's telescoping
    invariant), independent of ``--check``.
    """
    from .analysis import (CRITPATH_SCHEMA, Sanitizer, render_ladder_diff,
                           render_path)
    from .obs import TIME_TOLERANCE_US
    from .experiments import collect_critpath, collect_critpaths_grid
    app_name = _resolve_name(args.app, APP_REGISTRY, "application")
    variant_names = [_resolve_name(v, PROTOCOLS, "protocol variant")
                     for v in (args.variant
                               or [f.name for f in PROTOCOL_LADDER])]
    cls = APP_REGISTRY[app_name]
    config = MachineConfig(nodes=args.nodes)
    if args.perfetto or args.check:
        # Perfetto export and the sanitizer consume the live span
        # stream, which the store does not keep: run serial and fresh.
        runs = []
        for name in variant_names:
            app = cls(**cls.paper_params) if args.paper_size else cls()
            runs.append(collect_critpath(app, PROTOCOLS[name],
                                         config=config, check=args.check))
    else:
        runs = collect_critpaths_grid(
            app_name, [PROTOCOLS[n] for n in variant_names],
            cache=_make_cache(args, config=config), config=config,
            params=cls.paper_params if args.paper_size else None)
    for run in runs:
        print(render_path(run.path, name=f"{app_name}/{run.variant}",
                          max_steps=args.max_steps))
        print()
    if len(runs) > 1:
        print(render_ladder_diff({r.variant: r.path for r in runs}))
        print()
    if args.out:
        payload = {"schema": CRITPATH_SCHEMA, "app": app_name,
                   "nodes": args.nodes,
                   "paths": {r.variant: r.path.to_dict() for r in runs}}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.perfetto:
        for run in runs:
            path = _variant_path(args.perfetto, run.variant,
                                 many=len(runs) > 1)
            with open(path, "w") as fh:
                json.dump(run.tracer.to_chrome_trace(), fh)
                fh.write("\n")
            print(f"wrote {path}")
    status = 0
    if args.check:
        for run in runs:
            findings = Sanitizer().run(run.tracer.events)
            for finding in findings:
                print(finding, file=sys.stderr)
            if findings:
                status = 1
    bad = [r for r in runs if not r.path.ok(TIME_TOLERANCE_US)]
    for r in bad:
        print(f"CRITICAL PATH DOES NOT RECONCILE: {app_name}/{r.variant} "
              f"total {r.path.total_us} us vs wall {r.path.wall_us} us "
              f"(residual {r.path.residual_us:+.3e} us)", file=sys.stderr)
    return 1 if bad else status


def _variant_path(base: str, variant: str, many: bool) -> str:
    """Per-variant output filename: insert the variant before the
    extension when several variants share one ``--perfetto`` base."""
    if not many:
        return base
    slug = variant.replace("+", "-")
    stem, dot, ext = base.rpartition(".")
    return f"{stem}-{slug}.{ext}" if dot else f"{base}-{slug}"


def _cmd_scale(args) -> int:
    """Datacenter scaling curves: speedup vs nodes x topology x rung."""
    from .experiments import (SCALE_NODES, SCALE_TOPOLOGIES,
                              compute_scale, render_scale)
    feature_sets = [PROTOCOLS[p] for p in (args.protocol
                                           or ["Base", "GeNIMA"])]
    rows = compute_scale(
        app_name=args.app,
        node_counts=tuple(args.nodes or SCALE_NODES),
        topologies=tuple(args.topology or SCALE_TOPOLOGIES),
        feature_sets=feature_sets,
        procs_per_node=args.procs_per_node,
        cache=_make_cache(args), seed=args.seed)
    print(render_scale(rows, args.app))
    if args.out:
        payload = {"app": args.app, "rows": rows}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _make_telemetry_config(args) -> MachineConfig:
    """Machine config for the telemetry subcommands: ``--nodes`` plus
    optional topology / SMP-width overrides."""
    config = MachineConfig(nodes=args.nodes)
    overrides = {}
    if args.topology:
        overrides["topology"] = args.topology
    if args.procs_per_node:
        overrides["procs_per_node"] = args.procs_per_node
    return config.scaled(**overrides) if overrides else config


def _make_telemetry_app(args, config: MachineConfig):
    """The app instance for a telemetry run; ``--scale`` applies the
    fixed-total-work sizing of ``repro scale``."""
    cls = APP_REGISTRY[args.app]
    if getattr(args, "scale", False):
        from .experiments import scale_params
        try:
            params = scale_params(args.app, config.total_procs,
                                  seed=args.seed)
        except ValueError as err:
            raise SystemExit(f"error: --scale: {err}")
        return cls(**params)
    if getattr(args, "paper_size", False):
        return cls(**cls.paper_params)
    return cls()


def _run_sampled(args, with_profile: bool, with_tracer: bool):
    """One sampled run shared by ``repro metrics`` / ``repro dash``:
    returns ``(sampler, profiler, tracer, result)``."""
    from .obs import PhaseProfiler, TimeSeriesSampler
    from .sim import Tracer
    config = _make_telemetry_config(args)
    app = _make_telemetry_app(args, config)
    tracer = Tracer() if with_tracer else None
    sampler = TimeSeriesSampler(cadence_us=args.cadence_us,
                                top_k=args.top_k, tracer=tracer)
    profiler = (PhaseProfiler(slice_us=args.slice_us)
                if with_profile else None)
    result = run_svm(app, PROTOCOLS[args.protocol], config=config,
                     tracer=tracer, profiler=profiler,
                     telemetry=sampler)
    return sampler, profiler, tracer, result


def _cmd_metrics(args) -> int:
    """Sampled run -> registry snapshot + telemetry summary, as an
    OpenMetrics exposition or a JSON document."""
    from .obs import render_openmetrics
    sampler, _, _, result = _run_sampled(args, with_profile=False,
                                         with_tracer=False)
    snapshot = sampler.machine.metrics.snapshot()
    if args.openmetrics:
        text = render_openmetrics(snapshot=snapshot,
                                  telemetry=result.telemetry)
    else:
        text = json.dumps({"app": args.app, "protocol": args.protocol,
                           "nodes": args.nodes,
                           "time_us": result.time_us,
                           "snapshot": snapshot,
                           "telemetry": result.telemetry},
                          indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_dash(args) -> int:
    """Sampled + profiled run -> ASCII/HTML dashboard (and optionally
    a Perfetto trace with telemetry counter tracks merged in)."""
    from .obs import render_dash, render_dash_html
    sampler, profiler, tracer, result = _run_sampled(
        args, with_profile=True, with_tracer=bool(args.perfetto))
    profile = profiler.build_profile(result)
    title = (f"{args.app}/{args.protocol} {args.nodes} nodes "
             f"({result.time_us / 1000:.1f} ms)")
    print(render_dash(sampler, profile=profile, title=title,
                      top_k=args.top_k, width=args.width))
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_dash_html(sampler, profile=profile,
                                      title=title, top_k=args.top_k))
        print(f"\nwrote {args.html}")
    if args.perfetto:
        events = sampler.merge_chrome_trace(tracer.to_chrome_trace())
        with open(args.perfetto, "w") as fh:
            json.dump(events, fh)
            fh.write("\n")
        print(f"wrote {args.perfetto}")
    return 0


def _cmd_calibrate(_args) -> int:
    from .experiments import (measure_comm_layer, measure_page_fetch,
                              render_calibration)
    print(render_calibration(measure_comm_layer(), measure_page_fetch()))
    return 0


def _cmd_check(args) -> int:
    """Trace-sanitize (and invariant-check) an app x protocol matrix."""
    from .analysis import sanitize_run
    apps = args.app or list(CHECK_APPS)
    protocols = ([PROTOCOLS[p] for p in args.protocol]
                 if args.protocol else list(PROTOCOL_LADDER))
    faults = _parse_faults(args)
    config = MachineConfig(faults=faults) if faults is not None else None
    total = 0
    for app_name in apps:
        for feats in protocols:
            result, findings = sanitize_run(
                APP_REGISTRY[app_name](), feats, config=config,
                check_invariants=not args.no_invariants)
            status = "ok" if not findings else f"{len(findings)} finding(s)"
            print(f"{app_name:18s} {feats.name:10s} "
                  f"{result.time_us / 1000:8.1f} ms  {status}")
            for finding in findings:
                print(finding)
            total += len(findings)
    if total:
        print(f"\n{total} sanitizer finding(s)")
        return 1
    print("\nall checks passed")
    return 0


def _cmd_lint(args) -> int:
    """Static lint: local determinism rules plus whole-program passes.

    Exit codes: 0 clean (modulo baseline), 1 new findings, 2 usage or
    parse error.
    """
    import json
    from pathlib import Path

    from .analysis import RULES, default_target
    from .analysis.static import (PROJECT_RULES, Baseline, analyze_paths,
                                  analyze_project, describe_rule, to_sarif)

    if args.list_rules:
        print("local rules (single-file):")
        for name in sorted(RULES):
            print(f"  {name:18s} {RULES[name].description}")
        print("cross-module families (whole-program):")
        for name in sorted(PROJECT_RULES):
            cls = PROJECT_RULES[name]
            print(f"  {name:18s} [{cls.family}] {cls.description}")
        return 0

    rules = args.rule or None
    try:
        if args.path and args.package_root:
            print("error: paths and --package-root are mutually "
                  "exclusive")
            return 2
        if args.path:
            # loose paths (tests/, scripts/): local rules only — the
            # cross-module families need a package root.
            root = Path.cwd()
            report = analyze_paths([Path(p) for p in args.path],
                                   rules=rules)
            baseline_applies = False
        else:
            root = (Path(args.package_root) if args.package_root
                    else default_target())
            if not root.is_dir():
                print(f"error: package root {root} is not a directory")
                return 2
            report = analyze_project(root, package=root.name,
                                     rules=rules,
                                     local_only=args.local_only)
            # the default baseline file only describes the default
            # target; for an explicit root it must be named explicitly.
            baseline_applies = (args.package_root is None
                                or args.baseline is not None)
    except ValueError as err:
        print(f"error: {err} (see --list-rules)")
        return 2
    except OSError as err:
        print(f"error: {err}")
        return 2

    if report.syntax_errors:
        for v in report.syntax_errors:
            print(f"{v.path}:{v.line}:{v.col}: parse error: {v.message}")
        print(f"\n{len(report.syntax_errors)} file(s) failed to parse")
        return 2

    baseline = Baseline()
    baseline_path = Path(args.baseline) if args.baseline \
        else Path("lint-baseline.json")
    if baseline_applies and not args.no_baseline:
        if baseline_path.is_file():
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, KeyError, json.JSONDecodeError) as err:
                print(f"error: bad baseline: {err}")
                return 2
        elif args.baseline and not args.update_baseline:
            print(f"error: baseline {baseline_path} not found")
            return 2

    if args.update_baseline:
        if not baseline_applies:
            print("error: --update-baseline applies to the default "
                  "whole-program run, not to explicit paths")
            return 2
        stale = baseline.stale_keys(report.violations, root)
        updated = baseline.updated(report.violations, root)
        updated.dump(baseline_path)
        print(f"baseline {baseline_path}: {len(updated.entries)} "
              f"entr{'y' if len(updated.entries) == 1 else 'ies'}, "
              f"{len(stale)} expired")
        for key in stale:
            print(f"  expired: [{key[0]}] {key[1]} {key[2]}".rstrip())
        return 0

    new, accepted = baseline.split(report.violations, root)

    if args.sarif:
        descriptions = {v.rule: describe_rule(v.rule)
                        for v in [*new, *accepted]}
        sarif = to_sarif(new, accepted, root, descriptions)
        Path(args.sarif).write_text(json.dumps(sarif, indent=2) + "\n",
                                    encoding="utf-8")
        print(f"sarif report written to {args.sarif}")

    for violation in new:
        print(violation)
    if new:
        suffix = (f" ({len(accepted)} baselined)" if accepted else "")
        print(f"\n{len(new)} lint violation(s){suffix}")
        return 1
    nrules = len(RULES)
    if not args.path and not args.local_only:
        nrules += len(PROJECT_RULES)
    suffix = (f", {len(accepted)} baselined finding(s)"
              if accepted else "")
    print(f"lint clean ({nrules} rules{suffix})")
    return 0


def _cmd_cache(args) -> int:
    """Inspect or wipe the persistent run store."""
    from .runtime import ResultStore
    from .runtime.parallel import STORE_SCHEMA
    store = ResultStore(args.cache_dir)
    if args.wipe:
        n = len(store)
        store.wipe()
        print(f"wiped {n} entr{'y' if n == 1 else 'ies'} from "
              f"{store.version_dir}")
        return 0
    print(f"cache root : {store.root}")
    print(f"schema     : v{STORE_SCHEMA}")
    print(f"entries    : {len(store)}")
    if args.verbose:
        for digest, envelope in store.entries():
            cell = envelope.get("cell", {})
            print(f"  {digest[:16]}  {cell.get('kind', '?'):8s} "
                  f"{cell.get('app', '?')}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _grid_parent() -> argparse.ArgumentParser:
    """Shared options for every grid-driven subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    grid = parent.add_argument_group("grid execution and caching")
    grid.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                      help="evaluate missing grid cells on N worker "
                           "processes (default: 1, in-process; results "
                           "are byte-identical for any N)")
    grid.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="persistent run-cache root (default: "
                           "$REPRO_CACHE_DIR or ~/.cache/repro)")
    grid.add_argument("--jobs-force", action="store_true",
                      help="allow --jobs above the CPU count (by "
                           "default jobs is clamped: oversubscribed "
                           "spawn pools only add overhead)")
    grid.add_argument("--no-cache", action="store_true",
                      help="do not read or write the persistent cache")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GeNIMA reproduction (Bilas, Liao & Singh, ISCA 1999)")
    sub = parser.add_subparsers(dest="command", required=True)
    grid_parent = _grid_parent()

    sub.add_parser("list", help="list applications and protocols") \
        .set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="run one app on one system")
    run.add_argument("--app", required=True, choices=sorted(APP_REGISTRY))
    run.add_argument("--protocol", default="GeNIMA",
                     choices=sorted(PROTOCOLS) + ["Origin"])
    run.add_argument("--nodes", type=int, default=4,
                     help="SMP nodes (4 procs each)")
    run.add_argument("--paper-size", action="store_true",
                     help="use the paper's problem size (slow)")
    run.add_argument("--check", action="store_true",
                     help="assert protocol invariants while running")
    run.add_argument("--faults", metavar="SPEC",
                     help="inject deterministic network faults, e.g. "
                          "loss=0.01,jitter=5 (arms the drop-tolerant "
                          "transport)")
    run.set_defaults(fn=_cmd_run)

    ladder = sub.add_parser("ladder", parents=[grid_parent],
                            help="one app across the protocol ladder")
    ladder.add_argument("--app", required=True,
                        choices=sorted(APP_REGISTRY))
    ladder.set_defaults(fn=_cmd_ladder)

    fig = sub.add_parser("figure", parents=[grid_parent],
                         help="regenerate a paper figure")
    fig.add_argument("number", choices=["1", "2", "3", "4"])
    fig.set_defaults(fn=_cmd_figure)

    tab = sub.add_parser("table", parents=[grid_parent],
                         help="regenerate a paper table")
    tab.add_argument("number", choices=["1", "2", "3", "4", "5"])
    tab.set_defaults(fn=_cmd_table)

    traffic = sub.add_parser(
        "traffic", help="traffic profile by message kind, Base vs GeNIMA")
    traffic.add_argument("--app", required=True,
                         choices=sorted(APP_REGISTRY))
    traffic.set_defaults(fn=_cmd_traffic)

    sweep = sub.add_parser(
        "faultsweep", parents=[grid_parent],
        help="completion time vs. injected packet loss")
    sweep.add_argument("--app", required=True,
                       choices=sorted(APP_REGISTRY))
    sweep.add_argument("--protocol", default="GeNIMA",
                       choices=sorted(PROTOCOLS))
    sweep.add_argument("--loss", type=float, action="append",
                       help="loss rate(s) to sweep (default: "
                            "0 0.01 0.02 0.05 0.1)")
    sweep.add_argument("--jitter", type=float, default=0.0,
                       help="per-packet latency jitter bound in us")
    sweep.add_argument("--seed", type=int, default=1,
                       help="fault-injector seed")
    sweep.set_defaults(fn=_cmd_faultsweep)

    prof = sub.add_parser(
        "profile", parents=[grid_parent],
        help="profiled run: phase timelines, utilization "
             "and a JSON profile (Figure 3 style)")
    prof.add_argument("--app", required=True,
                      help="application (case-insensitive)")
    prof.add_argument("--variant", action="append",
                      help="protocol variant(s), case-insensitive; "
                           "repeatable (default: GeNIMA; pass Base "
                           "first for the paper's normalization)")
    prof.add_argument("--nodes", type=int, default=4,
                      help="SMP nodes (4 procs each)")
    prof.add_argument("--slice-us", type=float, default=1000.0,
                      help="profiler slice width in microseconds")
    prof.add_argument("--out", default="profile.json",
                      help="JSON profile output path")
    prof.add_argument("--html", metavar="PATH",
                      help="also write an HTML report")
    prof.add_argument("--paper-size", action="store_true",
                      help="use the paper's problem size (slow)")
    prof.set_defaults(fn=_cmd_profile)

    crit = sub.add_parser(
        "critpath", parents=[grid_parent],
        help="spanned run: critical-path chain, Figure-3 "
             "bucket split, ladder diff and Perfetto export")
    crit.add_argument("--app", required=True,
                      help="application (case-insensitive)")
    crit.add_argument("--variant", action="append",
                      help="protocol variant(s), case-insensitive; "
                           "repeatable (default: the whole ladder, "
                           "Base first)")
    crit.add_argument("--nodes", type=int, default=4,
                      help="SMP nodes (4 procs each)")
    crit.add_argument("--max-steps", type=int, default=30,
                      help="chain steps to print (longest kept)")
    crit.add_argument("--out", metavar="PATH",
                      help="write critical paths as JSON")
    crit.add_argument("--perfetto", metavar="PATH",
                      help="write the span stream as a Chrome/Perfetto "
                           "trace (per-variant suffix when several)")
    crit.add_argument("--check", action="store_true",
                      help="also run the runtime invariant checker and "
                           "the offline trace sanitizer")
    crit.add_argument("--paper-size", action="store_true",
                      help="use the paper's problem size (slow)")
    crit.set_defaults(fn=_cmd_critpath)

    scale = sub.add_parser(
        "scale", parents=[grid_parent],
        help="datacenter scaling curves: speedup vs node count "
             "across fabric topologies and protocol rungs")
    scale.add_argument("--app", default="KVStore",
                       choices=["KVStore", "ParamServer", "OpenLoop"],
                       help="datacenter workload (default: KVStore)")
    scale.add_argument("--nodes", type=int, action="append",
                       help="node count(s) to sweep (default: "
                            "4 16 64 256 1024)")
    scale.add_argument("--topology", action="append",
                       choices=["crossbar", "fat-tree", "dragonfly"],
                       help="fabric model(s) (default: crossbar and "
                            "fat-tree)")
    scale.add_argument("--protocol", action="append",
                       choices=sorted(PROTOCOLS),
                       help="protocol rung(s) (default: Base and "
                            "GeNIMA)")
    scale.add_argument("--procs-per-node", type=int, default=1,
                       help="SMP width per node (default: 1 at scale)")
    scale.add_argument("--seed", type=int, default=0,
                       help="workload seed")
    scale.add_argument("--out", metavar="PATH",
                       help="also write the rows as JSON")
    scale.set_defaults(fn=_cmd_scale)

    telemetry_parent = argparse.ArgumentParser(add_help=False)
    tele = telemetry_parent.add_argument_group("sampled run")
    tele.add_argument("--app", required=True,
                      choices=sorted(APP_REGISTRY))
    tele.add_argument("--protocol", default="GeNIMA",
                      choices=sorted(PROTOCOLS))
    tele.add_argument("--nodes", type=int, default=4,
                      help="node count (default: 4)")
    tele.add_argument("--topology", default=None,
                      choices=["crossbar", "fat-tree", "dragonfly"],
                      help="fabric model (default: machine default)")
    tele.add_argument("--procs-per-node", type=int, default=None,
                      help="SMP width per node (default: machine "
                           "default)")
    tele.add_argument("--cadence-us", type=float, default=1000.0,
                      help="telemetry sampling slice width in us of "
                           "sim time (default: 1000)")
    tele.add_argument("--top-k", type=int, default=8,
                      help="hot nodes per metric (default: 8)")
    tele.add_argument("--scale", action="store_true",
                      help="size the workload with the fixed-total-"
                           "work recipe of `repro scale` (KVStore, "
                           "ParamServer, OpenLoop)")
    tele.add_argument("--paper-size", action="store_true",
                      help="use the paper's problem size (slow)")
    tele.add_argument("--seed", type=int, default=0,
                      help="workload seed (with --scale)")

    metrics = sub.add_parser(
        "metrics", parents=[telemetry_parent],
        help="sampled run: registry snapshot + telemetry summary "
             "as OpenMetrics or JSON")
    metrics.add_argument("--openmetrics", action="store_true",
                         help="emit the OpenMetrics text exposition "
                              "instead of JSON")
    metrics.add_argument("--out", metavar="PATH",
                         help="write to PATH instead of stdout")
    metrics.set_defaults(fn=_cmd_metrics)

    dash = sub.add_parser(
        "dash", parents=[telemetry_parent],
        help="sampled run: ASCII/HTML telemetry dashboard with "
             "sparklines, hot-node tables and phase overlay")
    dash.add_argument("--slice-us", type=float, default=1000.0,
                      help="phase-profiler slice width in us "
                           "(default: 1000)")
    dash.add_argument("--width", type=int, default=64,
                      help="sparkline width in columns (default: 64)")
    dash.add_argument("--html", metavar="PATH",
                      help="also write an HTML dashboard")
    dash.add_argument("--perfetto", metavar="PATH",
                      help="write a Chrome/Perfetto trace with the "
                           "telemetry counter tracks merged in")
    dash.set_defaults(fn=_cmd_dash)

    sub.add_parser("calibrate",
                   help="communication-layer microbenchmarks") \
        .set_defaults(fn=_cmd_calibrate)

    cache = sub.add_parser(
        "cache", help="inspect or wipe the persistent run cache")
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    cache.add_argument("--wipe", action="store_true",
                       help="delete every entry of the current schema")
    cache.add_argument("-v", "--verbose", action="store_true",
                       help="list entries (digest, kind, app)")
    cache.set_defaults(fn=_cmd_cache)

    check = sub.add_parser(
        "check", help="trace-sanitize app x protocol runs")
    check.add_argument("--app", action="append",
                       choices=sorted(APP_REGISTRY),
                       help="app(s) to check (default: "
                            + ", ".join(CHECK_APPS) + ")")
    check.add_argument("--protocol", action="append",
                       choices=sorted(PROTOCOLS),
                       help="protocol(s) to check (default: the ladder)")
    check.add_argument("--no-invariants", action="store_true",
                       help="skip the runtime invariant checker")
    check.add_argument("--faults", metavar="SPEC",
                       help="sanitize runs under injected faults, "
                            "e.g. loss=0.05")
    check.set_defaults(fn=_cmd_check)

    lint = sub.add_parser(
        "lint", help="static lint: determinism rules + whole-program "
                     "protocol/trace/cache/race passes")
    lint.add_argument("path", nargs="*",
                      help="files/directories to lint with local rules "
                           "only (default: whole-program analysis of "
                           "the repro package)")
    lint.add_argument("--rule", action="append",
                      help="run only the named rule(s) / famil(ies)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list available rules and exit")
    lint.add_argument("--local-only", action="store_true",
                      help="skip the cross-module rule families")
    lint.add_argument("--package-root", metavar="DIR",
                      help="run the whole-program analysis on this "
                           "package directory instead of repro")
    lint.add_argument("--sarif", metavar="FILE",
                      help="write a SARIF 2.1.0 report to FILE")
    lint.add_argument("--baseline", metavar="FILE",
                      help="baseline of accepted findings (default: "
                           "lint-baseline.json if present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from current findings "
                           "(keeps justifications, expires stale keys)")
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
