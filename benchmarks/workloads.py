"""Seeded inputs for the three benchmark workloads.

A workload is a list of jobs.  A job is one scenario config (as the text a
user would hand to ``hybridwigner run``) and an operation is one
(config, time point) pair of a job.  The ``crosscheck`` workload also runs
acceptance criteria 1-11; each criterion is one more operation.

Inputs come from the seed alone.  Seed 0 reproduces the shipped figure
parameters; every seed maps onto one of ``VARIANTS`` parameter sets, for
which reference outputs are recorded in ``references/``.  The variants move
time offsets, the placement of the accumulated phase spread kappa, the
atom's s_z and the field amplitude r0 (within {1, 10}) while keeping the
work of a pass about the same, so that wall time does not depend on which
seed a run draws.

Only the standard library is imported here: the set-up timer builds these
texts before it starts the clock.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

VARIANTS = 4
WORKLOADS = ("phase_nested", "closed_sweep", "crosscheck")

SQRT3 = math.sqrt(3.0)
FIG3_QUADRATURE = "relative_tolerance = 1e-8\nabsolute_tolerance = 1e-10\n"
# Acceptance criterion 12 reruns the five figure configs, which the two
# sweep workloads already time; it is left out of crosscheck.
CROSSCHECK_CRITERIA = tuple(range(1, 12))
QUAD_DIST_POINTS = 25


@dataclass(frozen=True)
class Job:
    """One scenario config of a workload.

    ``times`` are the time points the config asks for, and ``rows_per_time``
    the number of CSV rows the scenario writes per time point.
    """

    name: str
    times: tuple[float, ...]
    rows_per_time: int
    template: str
    ops: tuple[int, ...] = ()

    @property
    def text(self) -> str:
        return self.template.replace("{times}", _times_text(self.times))

    @property
    def op_indices(self) -> tuple[int, ...]:
        """Index of each time point in the full job (the self-test keeps a subset)."""
        return self.ops or tuple(range(len(self.times)))


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    jobs: tuple[Job, ...]
    criteria: tuple[int, ...] = ()


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _times_text(times) -> str:
    return ", ".join(repr(float(t)) for t in times)


def _range_times(start: float, stop: float, steps: int) -> tuple[float, ...]:
    # Same arithmetic as the config parser's range(start, stop, steps).
    step = (stop - start) / (steps - 1)
    return tuple(start + k * step for k in range(steps))


def _config(scenario, atom, field, quadrature="") -> str:
    text = (
        f"[scenario]\nname = {scenario}\nchi = 1.0\ntimes = {{times}}\n\n"
        f"[atom]\n{atom}\n\n[field]\n{field}\n"
    )
    if quadrature:
        text += f"\n[quadrature]\n{quadrature}"
    return text


def _bloch_atom(sz: float, transverse: bool) -> str:
    # Pure state with the requested s_z; the transverse part points along +x.
    sx = math.sqrt(max(0.0, 1.0 - sz * sz)) if transverse else 0.0
    return f"kind = bloch\ns = {sx!r}, 0.0, {sz!r}"


def _gaussian(r0: float) -> str:
    return f"kind = gaussian\nr0 = {r0!r}\nsigma = 1.0"


def _delta(r0: float) -> str:
    return f"kind = delta\nr0 = {r0!r}\nphi0 = 0.0"


def _pure_z_atom(rng: random.Random) -> str:
    # Integrand evaluations fall by a fifth from |s_z| = 1 to s_z = 0 but do
    # not depend on its sign, so the phase-law workloads draw s_z = +-1.
    return rng.choice(("kind = ground", _bloch_atom(1.0, transverse=False)))


def _phase_nested(variant: int, rng: random.Random) -> list[Job]:
    # kappa = 0 keeps fig3's initial panel.  Evaluations grow by about 2.2 M
    # per unit kappa near kappa = 1 and 1.75 M near kappa = 3, so moving the
    # first evolved panel by d and the second by -1.25 d keeps the work of a
    # pass within about one percent.
    if variant == 0:
        kappas, atom = (0.0, 1.0, 3.0), "kind = ground"
    else:
        d = rng.uniform(-0.15, 0.15)
        kappas = (0.0, 1.0 + d, 3.0 - 1.25 * d)
        atom = _pure_z_atom(rng)
    times = tuple(k / SQRT3 for k in kappas)
    if variant == 0:
        # fig3.cfg's own literal for its evolved panel
        times = (0.0, 0.57735026918962576, times[2])
    template = _config("phase-dist", atom, _gaussian(10.0), FIG3_QUADRATURE)
    return [Job("phase_dist_r0_10", times, 201, template)]


def _closed_sweep(variant: int, rng: random.Random) -> list[Job]:
    def offset() -> float:
        return 0.0 if variant == 0 else rng.uniform(0.0, 1.0)

    def amplitude() -> float:
        return 1.0 if variant == 0 else rng.choice((1.0, 10.0))

    def atom(kind: str) -> str:
        if variant == 0:
            return f"kind = {kind}"
        return _bloch_atom(rng.uniform(-1.0, 1.0), transverse=True)

    jobs = []
    for name, scenario, kind, field, span, steps in (
        ("fig1", "correlations", "ground", _delta, 15.0, 301),
        ("fig2", "moments", "ground", _delta, 15.0, 301),
        ("fig4", "moments", "phase", _gaussian, 10.0, 201),
    ):
        t0 = offset()
        times = _range_times(t0, t0 + span, steps)
        template = _config(scenario, atom(kind), field(amplitude()))
        jobs.append(Job(name, times, 1, template))
    # compare needs a pure ground or phase atom and a unit-width Gaussian;
    # r0 stays at 1 and 10 because the quantum basis grows as r0^2.
    for name, r0 in (("fig5", 1.0), ("fig5_r0_10", 10.0)):
        t0 = offset()
        times = _range_times(t0, t0 + 15.0, 301)
        kind = "phase" if variant == 0 else rng.choice(("phase", "ground"))
        template = _config("compare", f"kind = {kind}", _gaussian(r0))
        jobs.append(Job(name, times, 1, template))
    return jobs


def _crosscheck(variant: int, rng: random.Random) -> list[Job]:
    # kappa from 0 to 4 pi; interior points are jittered by less than half a
    # spacing, so the spike count summed over the sweep stays about the same.
    n = QUAD_DIST_POINTS
    spacing = 4.0 * math.pi / (n - 1)
    kappas = [k * spacing for k in range(n)]
    atom = "kind = ground"
    if variant != 0:
        for k in range(1, n - 1):
            kappas[k] += rng.uniform(-0.4, 0.4) * spacing
        atom = _pure_z_atom(rng)
    times = tuple(k / SQRT3 for k in kappas)
    template = _config("quad-dist", atom, _gaussian(10.0), FIG3_QUADRATURE)
    return [Job("quad_dist_r0_10", times, 201, template)]


_BUILDERS = {
    "phase_nested": _phase_nested,
    "closed_sweep": _closed_sweep,
    "crosscheck": _crosscheck,
}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs for this seed."""
    variant = variant_of(seed)
    jobs = _BUILDERS[name](variant, random.Random(f"{name}:{variant}"))
    criteria = CROSSCHECK_CRITERIA if name == "crosscheck" else ()
    return Workload(name, variant, tuple(jobs), criteria)


def tiny(workload: Workload) -> Workload:
    """A small slice of the workload for the self-test: the first and the
    last time point of each job (only the kappa = 0 point for phase_nested,
    whose evolved points take seconds each) and two quick criteria."""
    jobs = []
    for job in workload.jobs:
        keep = (0,) if workload.name == "phase_nested" else (0, len(job.times) - 1)
        times = tuple(job.times[i] for i in keep)
        jobs.append(Job(job.name, times, job.rows_per_time, job.template, keep))
    criteria = (1, 8) if workload.criteria else ()
    return Workload(workload.name, workload.variant, tuple(jobs), criteria)
