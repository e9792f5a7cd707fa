"""Per-layer metrics from a cProfile pass over one computation.

A layer is a module of loopchain.  Its self time is the time the profiler
charges to that module's functions, plus the time of every builtin call
made from them (a builtin is charged to the module that called it).  The
counts are call counts of single functions, located through their code
objects so that they survive edits that move lines.  Two numbers cannot
come from the profile alone and are recorded around the calls into the
layer: the size of every matrix handed to smith_normal_form, and the
collector's pauses, taken from gc.callbacks.
"""

import gc
import os
import time


def _nested(fn, name):
    """The code object of the closure called name defined inside fn."""
    todo = [fn.__code__]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                if const.co_name == name:
                    return const
                todo.append(const)
    raise LookupError("%s defines no function %s" % (fn.__qualname__, name))


class LayerProbe:
    """Wraps smith_normal_form and listens to the collector while active."""

    def __init__(self):
        import loopchain.snf as snf
        self._snf = snf
        self._original = snf.smith_normal_form
        self.snf_cells = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    def _wrapped(self, matrix, rows=None, cols=None):
        r = len(matrix) if rows is None else rows
        c = (len(matrix[0]) if matrix else 0) if cols is None else cols
        self.snf_cells += r * c
        return self._original(matrix, rows, cols)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def __enter__(self):
        self._snf.smith_normal_form = self._wrapped
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        self._snf.smith_normal_form = self._original
        return False


def total_calls(prof):
    """Every Python and builtin call a cProfile.Profile recorded.

    Read from the raw entries: pstats keys functions by (file, line, name),
    which two comprehensions on one line share, so summing pstats counts
    keeps only one of them, whichever the profiler's table lists last.
    """
    return sum(e.callcount for e in prof.getstats())


def layer_metrics(prof, probe):
    """Per-layer metrics from a finished cProfile.Profile and LayerProbe."""
    import loopchain
    from loopchain import chains, dg, hochschild, perturbation, snf

    package = os.path.dirname(os.path.abspath(loopchain.__file__))

    def module_of(code):
        if isinstance(code, str):  # a builtin
            return None
        if os.path.dirname(os.path.abspath(code.co_filename)) == package:
            return os.path.splitext(os.path.basename(code.co_filename))[0]
        return None

    entries = {}
    self_s = {}
    abs_calls = 0
    for e in prof.getstats():
        entries[e.code] = e
        mod = module_of(e.code)
        if mod is None:
            continue
        builtins = [sub for sub in e.calls or () if isinstance(sub.code, str)]
        self_s[mod] = self_s.get(mod, 0.0) + e.inlinetime + sum(b.inlinetime for b in builtins)
        if mod == "snf":
            abs_calls += sum(b.callcount for b in builtins
                             if b.code == "<built-in method builtins.abs>")

    def calls(*codes):
        return sum(entries[c].callcount for c in codes if c in entries)

    def cumulative(*codes):
        return sum(entries[c].totaltime for c in codes if c in entries)

    image = chains.LinearMap._image.__code__
    map_calls = calls(image)
    # images computed: the calls _image makes into Python code, leaving out
    # special methods such as __hash__ that its dict lookups invoke
    map_images = sum(sub.callcount for sub in entries[image].calls or ()
                     if not isinstance(sub.code, str) and not sub.code.co_name.startswith("__")) \
        if image in entries else 0
    return {
        "chains.self_s": self_s.get("chains", 0.0),
        "chains.token_init": calls(chains.Token.__init__.__code__),
        "chains.token_eq": calls(chains.Token.__eq__.__code__),
        "chains.accumulate": calls(chains.Element._accumulate.__code__),
        "chains.map_calls": map_calls,
        "chains.map_images": map_images,
        "chains.map_hit_ratio": 1.0 - map_images / map_calls if map_calls else 0.0,
        "dg.self_s": self_s.get("dg", 0.0),
        "dg.comult_calls": calls(dg.DGCoalgebra.comult.__code__,
                                 dg.DGCoalgebra.reduced_comult.__code__,
                                 dg.HopfAlgebra.comult.__code__),
        "dg.psi_calls": calls(dg.HirschCoalgebra.psi.__code__),
        "dg.multiply_calls": calls(dg.DGAlgebra.multiply.__code__),
        "perturbation.self_s": self_s.get("perturbation", 0.0),
        "perturbation.fk_calls": calls(_nested(perturbation.transferred_twisting, "F_k")),
        "perturbation.split_calls": calls(perturbation._reduced_of_element.__code__),
        "perturbation.h_images": calls(_nested(perturbation.bar_em_homotopy, "fn")),
        "hochschild.self_s": self_s.get("hochschild", 0.0),
        "hochschild.d_images": calls(_nested(hochschild.hochschild_general, "differential")),
        "hochschild.power_images": calls(_nested(hochschild.power_map, "fn")),
        "hochschild.check_s": cumulative(hochschild.check_power_hypotheses.__code__),
        "snf.self_s": self_s.get("snf", 0.0),
        "snf.snf_calls": calls(snf.smith_normal_form.__code__),
        "snf.snf_cells": probe.snf_cells,
        "snf.snf_s": cumulative(snf.smith_normal_form.__code__),
        "snf.abs_calls": abs_calls,
        "snf.modp_s": cumulative(snf.modp_rank.__code__, snf._modp_kernel.__code__,
                                 snf._modp_column_space.__code__),
        "snf.basis_s": cumulative(snf.HomologyBasis.__init__.__code__,
                                  snf.HomologyBasis.coordinates.__code__),
        "fixtures.self_s": self_s.get("fixtures", 0.0),
        "runtime.gc_s": probe.gc_s,
        "runtime.gc_collections": probe.gc_collections,
    }
