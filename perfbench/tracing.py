"""Per-layer spans and counters, put on oscgrid from outside.

`Tracer.install()` replaces each traced function, in every oscgrid module
that binds it, by a wrapper that records a span: modules import functions
by name, so the wrapper must sit on the name the caller looks up (for
example `oscgrid.ainfty.gr_epsilon` as well as
`oscgrid.oscillation.gr_epsilon`).  Spans nest; a span's self time is its
duration minus the time of the spans it encloses.  The wrappers assume one
thread, which holds for every workload (`--threads 1`).

`Tracer.metrics(report_bytes)` turns one round's spans and counts into the
per-layer metrics named in BENCHMARK.json, except that it gives the cubes
handed to scan kernels as "scan.cubes": run.py divides the cubes the checked
reports answered by it for `oscillation.useful_cube_ratio`.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.reset()
        self.missing: list[str] = []

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.active = Counter()
        self._children: list[float] = []

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            self.active[name] += 1
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dur
                self.active[name] -= 1
                self.total[name] += dur
                self.self_time[name] += dur - child
                self.calls[name] += 1
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "oscgrid" or name.startswith("oscgrid.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)

    def install(self) -> "Tracer":
        import oscgrid.cli  # noqa: F401  (loads every module that binds a traced name)

        def span(module, attr, name, before=None, after=None):
            self._rebind(module, attr, lambda fn: self.wrap(name, fn, before, after))

        def add(key, amount):
            self.counts[key] += amount

        def file_bytes(tr, args, kwargs):
            add("wgrid_io.bytes_read", os.path.getsize(args[0]))

        def gathered(tr, args, kwargs):
            wg, side, origins = args[:3]
            add("scan.cells_gathered", int(origins.shape[0]) * int(side) ** wg.grid.dim)

        def box_sums(tr, args, kwargs):
            if tr.active["covering.build"]:
                add("covering.box_sums", 1)

        def gr_call(tr, args, kwargs):
            if tr.active["ainfty.verify_fwd"]:
                add("ainfty.gr_rescans", 1)

        span("oscgrid.wgrid_io", "load_wgrid", "wgrid_io.load", before=file_bytes)
        span("oscgrid.wgrid_io", "file_digest", "wgrid_io.digest", before=file_bytes)
        span("oscgrid.grids", "validate", "grids.validate")
        span("oscgrid.grids", "_prefix_table", "grids.prefix",
             after=lambda tr, table, args: add("grids.prefix_cells", int(table.size)))
        span("oscgrid.grids", "box_sums", "grids.box_sums", before=box_sums)
        span("oscgrid.scan", "batch_osc_level", "scan.osc_level", before=gathered)
        span("oscgrid.scan", "batch_mass_mean", "scan.mass_mean")
        span("oscgrid.scan", "first_extremum", "scan.reduce")
        span("oscgrid.scan", "merge_candidates", "scan.reduce")
        span("oscgrid.oscillation", "gr_epsilon", "oscillation.gr", before=gr_call,
             after=lambda tr, res, args: add("oscillation.cubes_scanned", res.cubes_scanned))
        span("oscgrid.oscillation", "oscillation", "oscillation.scalar")
        span("oscgrid.ainfty", "alpha_profile", "ainfty.alpha_profile")
        span("oscgrid.ainfty", "verify_gr_to_ainfty", "ainfty.verify_fwd")
        span("oscgrid.ainfty", "verify_ainfty_to_gr", "ainfty.verify_rev")
        span("oscgrid.rearrangement", "rearrangement", "rearrangement.build")
        span("oscgrid.covering", "build_covering", "covering.build",
             after=lambda tr, res, args: add("covering.cubes_emitted", len(res.cubes)))
        span("oscgrid.holder", "verify_rearrangement_bound", "holder.verify_tail")
        span("oscgrid.holder", "optimize_rh_exponent", "holder.optimize")
        span("oscgrid.holder", "rh_constant", "holder.rh_constant")
        span("oscgrid.cli", "main", "cli.main")

        def batches(original):
            def counted(*args, **kwargs):
                for batch in original(*args, **kwargs):
                    add("grids.batches", 1)
                    yield batch
            return counted

        self._rebind("oscgrid.grids", "iter_origin_batches", batches)

        def map_batches(original):
            def mapped(grid, mode, fn, *rest, **kwargs):
                def kernel(side, origins, seq_start):
                    add("scan.cubes", int(origins.shape[0]))
                    return fn(side, origins, seq_start)
                return original(grid, mode, self.wrap("scan.kernel", kernel), *rest, **kwargs)
            return self.wrap("scan.map_batches", mapped)

        self._rebind("oscgrid.scan", "map_batches", map_batches)
        return self

    def metrics(self, report_bytes: int) -> dict:
        t, c, n = self.total, self.calls, self.counts
        emitted = n["covering.cubes_emitted"]
        return {
            "wgrid_io.load_s": t["wgrid_io.load"],
            "wgrid_io.digest_s": t["wgrid_io.digest"],
            "wgrid_io.bytes_read": n["wgrid_io.bytes_read"],
            "grids.validate_s": t["grids.validate"],
            "grids.prefix_s": t["grids.prefix"],
            "grids.prefix_cells": n["grids.prefix_cells"],
            "grids.box_sums_calls": c["grids.box_sums"],
            "grids.box_sums_s": t["grids.box_sums"],
            "grids.batches": n["grids.batches"],
            "scan.osc_level_s": t["scan.osc_level"],
            "scan.osc_level_calls": c["scan.osc_level"],
            "scan.cells_gathered": n["scan.cells_gathered"],
            "scan.mass_mean_s": t["scan.mass_mean"],
            "scan.reduce_s": t["scan.reduce"],
            "scan.map_self_s": self.self_time["scan.map_batches"],
            "oscillation.gr_calls": c["oscillation.gr"],
            "oscillation.gr_s": t["oscillation.gr"],
            "oscillation.cubes_scanned": n["oscillation.cubes_scanned"],
            "scan.cubes": n["scan.cubes"],
            "oscillation.scalar_calls": c["oscillation.scalar"],
            "oscillation.scalar_s": t["oscillation.scalar"],
            "ainfty.alpha_profile_s": t["ainfty.alpha_profile"],
            "ainfty.verify_fwd_s": t["ainfty.verify_fwd"],
            "ainfty.verify_rev_s": t["ainfty.verify_rev"],
            "ainfty.gr_rescans": n["ainfty.gr_rescans"],
            "rearrangement.build_s": t["rearrangement.build"],
            "covering.build_s": t["covering.build"],
            "covering.calls": c["covering.build"],
            "covering.cubes_emitted": emitted,
            "covering.box_sums_per_cube": n["covering.box_sums"] / emitted if emitted else 0.0,
            "holder.verify_tail_s": t["holder.verify_tail"],
            "holder.optimize_s": t["holder.optimize"],
            "holder.rh_constant_s": t["holder.rh_constant"],
            "cli.main_s": t["cli.main"],
            "cli.self_s": self.self_time["cli.main"],
            "cli.report_bytes": report_bytes,
        }

