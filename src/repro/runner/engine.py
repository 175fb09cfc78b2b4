"""Deterministic scenario/job engine behind the experiment grids.

Every table and sweep of the reproduction is a grid of independent cells:
one (host count, density) workload per Table VII row, one (noise, seed)
perturbation per sensitivity cell, and so on.  This module gives those
drivers a single execution engine:

* a :class:`Job` names one cell — a picklable top-level callable, its
  keyword arguments, and the cell's key in the result table;
* :func:`derive_seed` derives a stable per-job seed from a base seed and
  the job key, so a grid re-run (serial or parallel, any worker count)
  always evaluates the same randomness per cell;
* :func:`run_jobs` executes a job list serially or over a
  ``ProcessPoolExecutor`` and returns ``{job.key: result}`` in job order —
  results never depend on completion order, which is what makes serial and
  parallel runs produce identical tables.

The pool is a best-effort accelerator: when process pools are unavailable
(restricted sandboxes, missing semaphores) or a job does not pickle,
:func:`run_jobs` falls back to the serial path with a warning instead of
failing, so ``--workers`` can default to "use them if you can".
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional

from repro import obs

__all__ = ["Job", "derive_seed", "resolve_workers", "run_jobs"]

#: Seeds are reduced into this range so they fit every consumer
#: (``random.Random``, ``numpy.random.default_rng``, C RNGs).
_SEED_SPACE = 2**31


def derive_seed(base_seed: int, key: Hashable) -> int:
    """A stable per-cell seed from a base seed and a job key.

    Uses SHA-256 over the repr of ``(base_seed, key)`` — stable across
    processes and Python runs (unlike ``hash()``, which is salted), and
    well-spread so neighbouring grid cells don't get correlated streams.

    >>> derive_seed(11, ("table7", 100)) == derive_seed(11, ("table7", 100))
    True
    >>> derive_seed(11, ("table7", 100)) != derive_seed(12, ("table7", 100))
    True
    """
    digest = hashlib.sha256(repr((base_seed, key)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class Job:
    """One grid cell: ``fn(**kwargs)`` identified by ``key``.

    ``fn`` must be a module-level callable and ``kwargs`` values picklable,
    or the job can only run on the serial path.  When ``seed`` is set it is
    passed to ``fn`` as the ``seed`` keyword (unless ``kwargs`` already
    pins one) — the hook :func:`derive_seed` plugs into.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def run(self) -> Any:
        """Execute the job's callable (its seed injected into kwargs)."""
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs.setdefault("seed", self.seed)
        return self.fn(**kwargs)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value to a concrete worker count.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per CPU;
    any other positive integer is taken literally.

    When ``workers`` is ``None`` (the caller expressed no preference) the
    ``REPRO_WORKERS`` environment variable supplies the value instead —
    the CI/sandbox override: export ``REPRO_WORKERS=1`` to force every
    unpinned grid serial in a pool-hostile sandbox, or ``REPRO_WORKERS=-1``
    to parallelise a whole benchmark session without touching call sites.
    Explicit ``workers`` arguments always win over the environment.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
    if workers is None or workers == 0:
        return 1
    if workers == -1:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= -1, got {workers}")
    return workers


def _run_chunk(jobs: List[Job]) -> List[Any]:
    """Top-level trampoline so a chunk of jobs traverses the process pool."""
    return [job.run() for job in jobs]


@dataclass(frozen=True)
class _TracedResult:
    """A worker's job result bundled with the spans captured while it ran.

    Produced by :func:`_traced_job` when the parent dispatched under an
    active trace; the parent unwraps it and merges ``events`` into its
    own :class:`repro.obs.Trace` (events keep the worker's pid/tid, so
    the merged timeline shows them in their own lanes).
    """

    value: Any
    events: List[Dict[str, Any]]


def _traced_job(job: Job) -> _TracedResult:
    """Run one job under a worker-local span capture (cross-process
    tracing; see :mod:`repro.obs`)."""
    token = obs.begin_capture()
    try:
        value = job.run()
    finally:
        events = obs.end_capture(token)
    return _TracedResult(value=value, events=events)


def run_jobs(
    jobs: Iterable[Job],
    workers: Optional[int] = None,
) -> Dict[Hashable, Any]:
    """Execute ``jobs`` and collect ``{job.key: result}`` in job order.

    Args:
        jobs: the grid cells; keys must be unique (a duplicate key would
            silently drop a result, so it raises instead).
        workers: parallelism per :func:`resolve_workers`.  Worker processes
            each execute whole jobs; per-job randomness must come from the
            job's own seed, which is what keeps serial and parallel runs
            identical.

    A pool run dispatches about four chunks of jobs per worker (chunk size
    ``max(1, len(jobs) // (4 * workers))``), so big grids of short cells
    amortise pool round-trips; results never depend on the chunking.

    Raises:
        ValueError: on duplicate job keys.

    Any exception raised by a job propagates; from the pool it is the first
    failing job in job order, with the worker traceback chained as its
    ``__cause__``.  Pool *infrastructure* failures — no process support,
    unpicklable jobs, a dead worker — degrade to the serial path with a
    warning.

    >>> def cell(n, seed=None):
    ...     return n * n
    >>> jobs = [Job(key=n, fn=cell, kwargs={"n": n}) for n in range(4)]
    >>> run_jobs(jobs, workers=1)
    {0: 0, 1: 1, 2: 4, 3: 9}
    """
    job_list: List[Job] = list(jobs)
    seen = set()
    for job in job_list:
        if job.key in seen:
            raise ValueError(f"duplicate job key {job.key!r}")
        seen.add(job.key)

    count = min(resolve_workers(workers), len(job_list))
    if count > 1:
        # Pre-flight: a job that cannot traverse the pool (lambda fn,
        # unpicklable kwargs) must degrade to serial, not crash mid-map.
        try:
            pickle.dumps(job_list)
        except Exception as exc:  # pickle raises many concrete types
            warnings.warn(
                f"jobs are not picklable ({exc!r}); running "
                f"{len(job_list)} job(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            count = 1

    results: List[Any]
    if count <= 1:
        # Serial jobs record straight into the active trace (if any);
        # no capture indirection needed.
        results = [job.run() for job in job_list]
    else:
        # Under an active trace, wrap each job so workers capture their
        # spans and ship them back with the result (pool workers cannot
        # reach the parent's Trace object).
        dispatch = job_list
        if obs.enabled():
            dispatch = [
                Job(key=job.key, fn=_traced_job, kwargs={"job": job})
                for job in job_list
            ]
        size = max(1, len(dispatch) // (4 * count))
        chunks = [
            dispatch[start : start + size]
            for start in range(0, len(dispatch), size)
        ]
        started = False
        try:
            with ProcessPoolExecutor(max_workers=count) as pool:
                # map() submits every chunk, which starts the workers.
                outputs = pool.map(_run_chunk, chunks)
                started = True
                results = [result for chunk in outputs for result in chunk]
        except (OSError, BrokenProcessPool) as exc:
            if started and not isinstance(exc, BrokenProcessPool):
                raise  # a job's own OSError, not the pool's
            warnings.warn(
                f"process pool unavailable ({exc!r}); running "
                f"{len(job_list)} job(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            results = [job.run() for job in job_list]
        # Merge captured worker spans into the parent trace.
        trace = obs.current_trace()
        for index, result in enumerate(results):
            if type(result) is _TracedResult:
                if trace is not None:
                    trace.extend(result.events)
                results[index] = result.value
    return {job.key: result for job, result in zip(job_list, results)}
