"""Spans around epichaos' public functions, recorded from outside the package.

``Tracer.install`` replaces each boundary function listed in ``BOUNDARIES``
by a wrapper, in every ``epichaos`` module that holds it (``cli`` imports
most of them by name), and ``uninstall`` puts every original back.  A span
is ``(id, name, start, end, parent, pid, extra)``: ``perf_counter`` seconds
(CLOCK_MONOTONIC, so times from pool workers line up), the id of the
enclosing span, and a small dict of counts read from the call's arguments
or from the ``Counters`` it returns.

Spans stay in memory.  Pool workers return theirs with each task result
through ``TracedTask``; the wrapper around ``cli._pool_map`` strips them off
and files them under the pool span, so ``epichaos`` sees its usual results.
"""

import functools
import itertools
import os
import pickle
import sys
import time

_ACTIVE = None  # the tracer installed in this process, reached by TracedTask


def _counters(result):
    c = result.final.counters
    return {"velocity_jumps": c.velocity_jumps, "recoveries": c.recoveries,
            "proposals": c.infection_proposals, "infections": c.infections}


def _coupled(args, kwargs, result):
    return {"n": int(args[0].n), **_counters(result)}


def _solve_steps(args, kwargs, result):
    grid, t_max = args[2], args[3]
    return {"steps": int(round(t_max / grid.dt))}


def _points(args, kwargs, result):
    return {"points": int(result.size)}


def _field_bytes(args, kwargs, result):
    return {"bytes": 32 + int(args[1].values.nbytes)}


def _csv_rows(args, kwargs, result):
    rows = args[2]
    return {"rows": len(rows) if hasattr(rows, "__len__") else -1}


def _ignore(args, kwargs, result):
    return None


#: (span name, module, attribute path, extra) of every traced boundary.
BOUNDARIES = (
    ("core.seed_rng", "epichaos.core", "SeedSpec.rng", _ignore),
    ("core.block_draws", "epichaos.core", "BlockDraws.__init__", _ignore),
    ("initial.sample", "epichaos.initial", "InitialCondition.sample", _ignore),
    ("particle.run", "epichaos.particle", "run", lambda a, k, r: _counters(r)),
    ("coupling.run_coupled", "epichaos.coupling", "run_coupled", _coupled),
    ("meanfield.run_ensemble", "epichaos.meanfield", "run_ensemble",
     lambda a, k, r: _counters(r)),
    ("meanfield.nf_at", "epichaos.meanfield", "FieldOracle.nf_at", _points),
    ("kinetic.solve", "epichaos.kinetic", "solve", _solve_steps),
    ("kinetic.transport_step", "epichaos.kinetic", "transport_step", _ignore),
    ("kinetic.scattering_step", "epichaos.kinetic", "scattering_step", _ignore),
    ("kinetic.reaction_step", "epichaos.kinetic", "reaction_step", _ignore),
    ("kinetic.convolution", "epichaos.kinetic", "DiscKernel.spectral", _ignore),
    ("kinetic.convolution", "epichaos.kinetic", "DiscKernel.direct", _ignore),
    ("kinetic.save_field", "epichaos.kinetic", "save_field", _field_bytes),
    ("observables.empirical_marginal", "epichaos.observables", "empirical_marginal",
     _ignore),
    ("cli.parse_config", "epichaos.cli", "parse_config", _ignore),
    ("cli.solve_oracle", "epichaos.cli", "_solve_oracle", _ignore),
    ("cli.write_csv", "epichaos.cli", "_write_csv", _csv_rows),
)


class Tracer:
    """Records spans at the boundaries of ``epichaos`` modules."""

    def __init__(self):
        self.spans = []
        self.pid = os.getpid()
        self.home_pid = self.pid
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs, extra=_ignore):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.pid,
                           extra(args, kwargs, result)))
        return result

    def wrap(self, name, fn, extra=_ignore):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)
        return traced

    def adopt(self, spans, parent):
        """File spans returned by a worker under ``parent`` with fresh ids."""
        ids = {}
        for sid, name, start, end, par, pid, extra in spans:
            ids[sid] = next(self._ids)
        for sid, name, start, end, par, pid, extra in spans:
            self.spans.append((ids[sid], name, start, end,
                               ids.get(par, parent), pid, extra))

    def enter_worker(self):
        """Called first in a pool worker: drop spans copied from the parent."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []
            self._stack = []

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        global _ACTIVE
        import epichaos.cli  # noqa: F401  (loads every epichaos module)
        modules = [m for k, m in sys.modules.items()
                   if k == "epichaos" or k.startswith("epichaos.")]
        for name, module, path, extra in BOUNDARIES:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._set(owner, attr, self.wrap(name, owner.__dict__[attr], extra))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        meanfield = sys.modules["epichaos.meanfield"]
        self._set(meanfield.FieldOracle, "scalar_probe",
                  self._probe_factory(meanfield.FieldOracle.scalar_probe))
        cli = sys.modules["epichaos.cli"]
        self._set(cli, "_pool_map", self._pool_map(cli._pool_map))
        _ACTIVE = self
        return self

    def uninstall(self):
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _probe_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def scalar_probe(oracle):
            probe = factory(oracle)
            return tracer.wrap("meanfield.scalar_probe", probe)
        return scalar_probe

    def _pool_map(self, pool_map):
        tracer = self

        @functools.wraps(pool_map)
        def traced_pool_map(task, jobs, threads):
            # jobs of one call differ only in their ids, so one job's size stands
            # for all; inline pools (one worker) pickle nothing
            extra = {"threads": int(threads), "jobs": len(jobs), "busy": 0.0,
                     "job_bytes": len(pickle.dumps(jobs[0])) if threads > 1 and jobs else 0}

            def run_pool():
                pool_id = tracer._stack[-1]
                results = []
                for result, spans, busy in pool_map(TracedTask(task), jobs, threads):
                    results.append(result)
                    extra["busy"] += busy
                    if spans:
                        tracer.adopt(spans, pool_id)
                return results
            return tracer.call("cli.pool_map", run_pool, (), {}, lambda a, k, r: extra)
        return traced_pool_map


class TracedTask:
    """Picklable wrapper of a pool task that sends the worker's spans back.

    Returns ``(result, spans, busy seconds)``.  Run in the tracer's own
    process (a one-worker pool runs tasks inline) it returns no spans,
    since they are already in place.
    """

    def __init__(self, task):
        self.task = task

    def __call__(self, job):
        tracer = _ACTIVE
        if tracer is None:  # a worker started by spawn: trace it afresh
            tracer = Tracer().install()
            tracer.home_pid = -1
        inline = tracer.home_pid == os.getpid()
        if not inline:
            tracer.enter_worker()
        start = time.perf_counter()
        result = tracer.call("cli.pool_task", self.task, (job,), {})
        busy = time.perf_counter() - start
        spans = []
        if not inline:
            spans, tracer.spans = tracer.spans, []
        return result, spans, busy
