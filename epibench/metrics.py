"""End-to-end and per-layer metrics from the operations of one run.

A run repeats whole rounds of its workload's experiments.  End-to-end
figures are medians over untraced rounds (set-up over every operation).
Per-layer figures come from the spans of traced rounds: ``*_per_call`` and
``*.ms`` of ``cli.parse_config`` / ``cli.solve_oracle`` are medians per
call, the other ``*.ms``, ``*.calls``, ``*.rows``, ``cache_hits`` and
``job_kb`` are medians of per-round totals, and rates and ratios pool every
call of the run.  A
``.p90`` is given where the layer makes at least ``TAIL_CALLS`` calls per
operation; otherwise, and for layers the workload never reaches, the
value is 0.
"""

import statistics

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

STUDY_N = (100, 200, 400, 800)
TAIL_CALLS = 100

#: (metric, unit, better) for every per-layer metric, in print order.
PER_LAYER = (
    ("core.seed_rng.us_per_call", "us", "lower"),
    ("core.seed_rng.us_per_call.p90", "us", "lower"),
    ("core.block_draws.us_per_call", "us", "lower"),
    ("core.block_draws.us_per_call.p90", "us", "lower"),
    ("initial.sample.us_per_call", "us", "lower"),
    ("initial.sample.us_per_call.p90", "us", "lower"),
    ("particle.run.ms_per_call", "ms", "lower"),
    ("particle.run.ms_per_call.p90", "ms", "lower"),
    ("particle.run.events_per_s", "1/s", "higher"),
    ("particle.run.calls", "count", "lower"),
    ("particle.run.infections_per_proposal", "ratio", "higher"),
    *((f"coupling.run_coupled.ms_per_call.n{n}", "ms", "lower") for n in STUDY_N),
    ("coupling.run_coupled.events_per_s", "1/s", "higher"),
    ("coupling.run_coupled.infections_per_proposal", "ratio", "higher"),
    ("meanfield.scalar_probe.calls", "count", "lower"),
    ("meanfield.scalar_probe.us_per_call", "us", "lower"),
    ("meanfield.scalar_probe.us_per_call.p90", "us", "lower"),
    ("meanfield.run_ensemble.ms_per_call", "ms", "lower"),
    ("meanfield.run_ensemble.ms_per_call.p90", "ms", "lower"),
    ("meanfield.run_ensemble.events_per_s", "1/s", "higher"),
    ("meanfield.nf_at.points_per_s", "1/s", "higher"),
    ("kinetic.solve.ms_per_step", "ms", "lower"),
    *((f"kinetic.{step}.ms_per_step{tail}", "ms", "lower")
      for step in ("transport_step", "scattering_step", "reaction_step", "convolution")
      for tail in ("", ".p90")),
    ("kinetic.convolution.calls_per_step", "count", "lower"),
    ("kinetic.save_field.ms_per_call", "ms", "lower"),
    ("kinetic.save_field.mb_per_s", "MB/s", "higher"),
    ("cli.parse_config.ms", "ms", "lower"),
    ("cli.solve_oracle.ms", "ms", "lower"),
    ("cli.solve_oracle.cache_hits", "count", "higher"),
    ("cli.pool_map.ms", "ms", "lower"),
    ("cli.pool_map.busy_ratio", "ratio", "higher"),
    ("cli.pool_map.job_kb", "KB", "lower"),
    ("cli.write_csv.ms", "ms", "lower"),
    ("cli.write_csv.rows", "count", "lower"),
    ("observables.empirical_marginal.ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else 0.0


def end_to_end(rounds):
    """Metrics of untraced rounds, each a list of per-operation stats dicts."""
    return {
        "setup_s": _median([op["setup_s"] for r in rounds for op in r]),
        "wall_s": _median([sum(op["wall_s"] for op in r) for r in rounds]),
        "cpu_s": _median([sum(op["cpu_s"] for op in r) for r in rounds]),
        "peak_rss_mb": _median([max(op["peak_rss_mb"] for op in r) for r in rounds]),
    }


class _Spans:
    """Spans of the traced rounds, indexed by name."""

    def __init__(self, rounds, ops):
        self.rounds = rounds
        self.ops = ops
        self.by_name = {}
        for spans in rounds:
            for span in spans:
                self.by_name.setdefault(span[1], []).append(span)

    def get(self, name):
        return self.by_name.get(name, [])

    def durations(self, name, scale=1.0):
        return [(s[3] - s[2]) * scale for s in self.get(name)]

    def total(self, name, key):
        return sum(s[6][key] for s in self.get(name))

    def round_total(self, name, value):
        """Median over rounds of the sum of ``value(span)`` over ``name`` spans."""
        return _median([sum(value(s) for s in spans if s[1] == name)
                        for spans in self.rounds])

    def many_calls(self, name):
        return len(self.get(name)) >= TAIL_CALLS * self.ops


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _ms(span):
    return (span[3] - span[2]) * 1e3


def _events(span):
    e = span[6]
    return e["velocity_jumps"] + e["recoveries"] + e["proposals"]


def layer_metrics(traced_rounds, ops, overhead_s):
    """Per-layer metrics from the spans of each traced round.

    ``ops`` is the number of traced operations over all rounds.
    """
    sp = _Spans(traced_rounds, ops)
    out = {}

    def timing(metric, name, scale, per_step=1.0):
        d = sp.durations(name, scale)
        out[metric] = _median(d) * per_step
        out[metric + ".p90"] = _p90(d) * per_step if sp.many_calls(name) else 0.0

    timing("core.seed_rng.us_per_call", "core.seed_rng", 1e6)
    timing("core.block_draws.us_per_call", "core.block_draws", 1e6)
    timing("initial.sample.us_per_call", "initial.sample", 1e6)

    runs = sp.get("particle.run")
    timing("particle.run.ms_per_call", "particle.run", 1e3)
    out["particle.run.events_per_s"] = _rate(sum(map(_events, runs)),
                                             sum(s[3] - s[2] for s in runs))
    out["particle.run.calls"] = sp.round_total("particle.run", lambda s: 1)
    out["particle.run.infections_per_proposal"] = _rate(
        sp.total("particle.run", "infections"), sp.total("particle.run", "proposals"))

    coupled = sp.get("coupling.run_coupled")
    for n in STUDY_N:
        out[f"coupling.run_coupled.ms_per_call.n{n}"] = _median(
            [_ms(s) for s in coupled if s[6]["n"] == n])
    out["coupling.run_coupled.events_per_s"] = _rate(
        sum(map(_events, coupled)), sum(s[3] - s[2] for s in coupled))
    out["coupling.run_coupled.infections_per_proposal"] = _rate(
        sp.total("coupling.run_coupled", "infections"),
        sp.total("coupling.run_coupled", "proposals"))

    out["meanfield.scalar_probe.calls"] = sp.round_total("meanfield.scalar_probe", lambda s: 1)
    timing("meanfield.scalar_probe.us_per_call", "meanfield.scalar_probe", 1e6)
    ensembles = sp.get("meanfield.run_ensemble")
    timing("meanfield.run_ensemble.ms_per_call", "meanfield.run_ensemble", 1e3)
    out["meanfield.run_ensemble.events_per_s"] = _rate(
        sum(map(_events, ensembles)), sum(s[3] - s[2] for s in ensembles))
    out["meanfield.nf_at.points_per_s"] = _rate(
        sp.total("meanfield.nf_at", "points"), sum(sp.durations("meanfield.nf_at")))

    steps = sp.total("kinetic.solve", "steps")
    out["kinetic.solve.ms_per_step"] = _median(
        [(s[3] - s[2]) * 1e3 / s[6]["steps"] for s in sp.get("kinetic.solve")
         if s[6]["steps"]])
    for step in ("transport_step", "scattering_step", "reaction_step", "convolution"):
        name = f"kinetic.{step}"
        calls_per_step = _rate(len(sp.get(name)), steps)
        timing(f"{name}.ms_per_step", name, 1e3, calls_per_step)
    out["kinetic.convolution.calls_per_step"] = _rate(len(sp.get("kinetic.convolution")),
                                                      steps)
    out["kinetic.save_field.ms_per_call"] = _median(sp.durations("kinetic.save_field", 1e3))
    out["kinetic.save_field.mb_per_s"] = _rate(sp.total("kinetic.save_field", "bytes") / 1e6,
                                               sum(sp.durations("kinetic.save_field")))

    out["cli.parse_config.ms"] = _median(sp.durations("cli.parse_config", 1e3))
    out["cli.solve_oracle.ms"] = _median(sp.durations("cli.solve_oracle", 1e3))
    solved = {s[4] for s in sp.get("kinetic.solve")}
    out["cli.solve_oracle.cache_hits"] = sp.round_total(
        "cli.solve_oracle", lambda s: s[0] not in solved)
    pools = sp.get("cli.pool_map")
    out["cli.pool_map.ms"] = sp.round_total("cli.pool_map", _ms)
    out["cli.pool_map.busy_ratio"] = _rate(
        sum(s[6]["busy"] for s in pools),
        sum((s[3] - s[2]) * s[6]["threads"] for s in pools))
    out["cli.pool_map.job_kb"] = sp.round_total(
        "cli.pool_map", lambda s: s[6]["job_bytes"] * s[6]["jobs"] / 1024)
    out["cli.write_csv.ms"] = sp.round_total("cli.write_csv", _ms)
    out["cli.write_csv.rows"] = sp.round_total("cli.write_csv", lambda s: s[6]["rows"])
    out["observables.empirical_marginal.ms"] = sp.round_total(
        "observables.empirical_marginal", _ms)
    out["trace.overhead_s"] = overhead_s
    return out
