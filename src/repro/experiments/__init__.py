"""Experiment drivers: one module per paper figure/table, plus
calibration microbenchmarks and ablations."""

from typing import Any, List

__all__ = [
    "CACHE",
    "ExperimentCache",
    "collect_profile", "collect_profiles_grid",
    "CritpathRun", "collect_critpath", "collect_critpaths_grid",
    "format_table",
    "measure_comm_layer",
    "measure_page_fetch",
    "render_calibration",
    "compute_figure1", "render_figure1",
    "compute_figure2", "render_figure2",
    "compute_figure3", "render_figure3",
    "compute_figure4", "render_figure4",
    "compute_table1", "render_table1",
    "compute_table2", "render_table2",
    "compute_table34", "render_table34",
    "compute_table5", "render_table5",
    "DEFAULT_LOSS_RATES", "compute_faultsweep", "render_faultsweep",
    "ablate_hol_blocking", "ablate_post_queue",
    "ablate_diff_scatter", "ablate_eager_wn", "render_ablation",
    "interrupt_cost_sensitivity", "render_sensitivity",
    "scaling_study", "render_scaling",
    "SCALE_NODES", "SCALE_TELEMETRY_US", "SCALE_TOPOLOGIES",
    "scale_params",
    "compute_scale", "render_scale",
    "traffic_profile", "render_traffic",
]


def __getattr__(name: str) -> Any:
    # PEP 562: an export loads its module on first use; each branch is
    # a literal import so the static import graph keeps the edge.
    if name in ("ablate_diff_scatter", "ablate_eager_wn",
                "ablate_hol_blocking", "ablate_post_queue", "render_ablation"):
        from .ablations import (ablate_diff_scatter, ablate_eager_wn,
                                ablate_hol_blocking, ablate_post_queue,
                                render_ablation)
    elif name in ("CACHE", "ExperimentCache"):
        from .cache import CACHE, ExperimentCache
    elif name in ("measure_comm_layer", "measure_page_fetch",
                  "render_calibration"):
        from .calibration import (measure_comm_layer, measure_page_fetch,
                                  render_calibration)
    elif name in ("CritpathRun", "collect_critpath",
                  "collect_critpaths_grid"):
        from .critpath import (CritpathRun, collect_critpath,
                               collect_critpaths_grid)
    elif name in ("DEFAULT_LOSS_RATES", "compute_faultsweep",
                  "render_faultsweep"):
        from .faultsweep import (DEFAULT_LOSS_RATES, compute_faultsweep,
                                 render_faultsweep)
    elif name in ("compute_figure1", "compute_figure2", "compute_figure3",
                  "compute_figure4", "render_figure1", "render_figure2",
                  "render_figure3", "render_figure4"):
        from .figures import (compute_figure1, compute_figure2,
                              compute_figure3, compute_figure4,
                              render_figure1, render_figure2,
                              render_figure3, render_figure4)
    elif name in ("collect_profile", "collect_profiles_grid"):
        from .profile import collect_profile, collect_profiles_grid
    elif name == "format_table":
        from .reporting import format_table
    elif name in ("SCALE_NODES", "SCALE_TELEMETRY_US", "SCALE_TOPOLOGIES",
                  "compute_scale", "render_scale", "scale_params"):
        from .scale import (SCALE_NODES, SCALE_TELEMETRY_US, SCALE_TOPOLOGIES,
                            compute_scale, render_scale, scale_params)
    elif name in ("interrupt_cost_sensitivity", "render_scaling",
                  "render_sensitivity", "scaling_study"):
        from .sensitivity import (interrupt_cost_sensitivity, render_scaling,
                                  render_sensitivity, scaling_study)
    elif name in ("render_traffic", "traffic_profile"):
        from .traffic import render_traffic, traffic_profile
    elif name in ("compute_table1", "compute_table2", "compute_table34",
                  "compute_table5", "render_table1", "render_table2",
                  "render_table34", "render_table5"):
        from .tables import (compute_table1, compute_table2, compute_table34,
                             compute_table5, render_table1, render_table2,
                             render_table34, render_table5)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = {key: value for key, value in locals().items() if key != "name"}
    globals().update(loaded)
    return loaded[name]


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
