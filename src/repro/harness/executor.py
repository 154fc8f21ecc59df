"""Parallel corpus execution: fan decode work out across workers.

A corpus run is embarrassingly parallel — every (method, utterance) decode
is independent, deterministic, and carries its own :class:`SimClock` — so
the only requirements on a parallel runner are **deterministic result
ordering** (results must come back keyed by (method, utterance index), not
by completion order) and **per-worker model state** (each process builds its
own decoders once and keeps its oracle caches warm across tasks).

Grid order is utterance-major: corpus index outer, method inner.  The
methods share models that keep a bounded LRU of per-utterance oracles and
tries (``DEFAULT_ORACLE_CACHE``), so a process builds each (model,
utterance) oracle once per grid however large the corpus.  ``run_methods``
decodes through :meth:`CorpusExecutor.map_decode`: the one grid loop.

Backends:

* ``serial``  — plain in-process loop (the reference behaviour);
* ``thread``  — a thread pool sharing the caller's decoder objects.  Decoders
  are reentrant (all decode state is per-call), so this is safe, but the
  simulation is pure Python and the GIL limits real speedup;
* ``process`` — a process pool.  The methods (or a zero-argument factory
  building them) and the dataset are shipped once per worker via the pool
  initializer; tasks then reference them by name, so each worker's oracle
  caches persist across its tasks;
* ``auto``    — ``process`` when the work can be pickled, else ``thread``.

Transcripts, traces and SimClock totals are bit-identical to the serial
runner for every backend: decodes share only caches whose entries are pure
functions of (model, utterance, prefix), and aggregation happens in the
parent in corpus order.

Two consumption styles:

* :meth:`CorpusExecutor.map_decode` materialises the full grid (small
  corpora, figure reports);
* :meth:`CorpusExecutor.iter_results` streams ``(method, index, result)``
  triples in deterministic grid order while keeping only a bounded window
  of tasks in flight — very large corpora never hold every DecodeResult in
  the parent at once.

:meth:`CorpusExecutor.map_jobs` is the generic worker-pool plumbing under
non-decode workloads (e.g. serve-simulation QPS sweeps): any picklable
module-level function over a list of job arguments, results in job order.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.data.corpus import Dataset
from repro.decoding.base import DecodeResult

BACKENDS = ("serial", "thread", "process", "auto")

#: Worker-process globals installed by :func:`_init_worker`.
_WORKER_METHODS: dict[str, object] | None = None
_WORKER_DATASET: Dataset | None = None


def _init_worker(methods_or_factory, dataset: Dataset) -> None:
    """Build this worker's decoders once; tasks reference them by name."""
    global _WORKER_METHODS, _WORKER_DATASET
    if callable(methods_or_factory):
        _WORKER_METHODS = methods_or_factory()
    else:
        _WORKER_METHODS = methods_or_factory
    _WORKER_DATASET = dataset


def _decode_task(method: str, index: int) -> DecodeResult:
    assert _WORKER_METHODS is not None and _WORKER_DATASET is not None
    return _WORKER_METHODS[method].decode(_WORKER_DATASET[index])


@dataclass(frozen=True)
class ExecutorStats:
    """How the last run was executed (for benches and reports)."""

    backend: str
    workers: int
    tasks: int


class CorpusExecutor:
    """Runs (method × utterance) decode grids with deterministic ordering.

    ``methods`` may be a mapping of live decoders or a zero-argument factory
    returning one.  A factory is preferred for the process backend: it is
    cheap to pickle and each worker builds fresh models, so nothing shared
    needs to cross process boundaries.
    """

    def __init__(self, workers: int = 1, backend: str = "auto") -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.backend = backend
        self.last_stats: ExecutorStats | None = None

    # -- public API ----------------------------------------------------------
    def map_decode(
        self,
        methods: Mapping[str, object] | Callable[[], Mapping[str, object]],
        dataset: Dataset,
        method_order: Sequence[str] | None = None,
    ) -> dict[str, list[DecodeResult]]:
        """Decode every utterance with every method.

        Returns ``{method: [result per utterance, in corpus order]}`` with
        the same content regardless of backend or worker count.
        """
        if len(dataset) == 0:
            # Empty corpus: no tasks to stream, but callers still expect one
            # (empty) row per method.
            live = methods() if callable(methods) else methods
            names = list(method_order) if method_order is not None else list(live)
            self.last_stats = ExecutorStats("serial", self.workers, 0)
            return {name: [] for name in names}
        # The grid fills lazily from the stream so a callable ``methods``
        # factory is resolved exactly once (inside iter_results), never here.
        grid: dict[str, list[DecodeResult | None]] = {}
        for name, index, result in self.iter_results(methods, dataset, method_order):
            row = grid.get(name)
            if row is None:
                row = grid[name] = [None] * len(dataset)
            row[index] = result
        complete = {name: list(results) for name, results in grid.items()}
        return complete  # type: ignore[return-value]

    def iter_results(
        self,
        methods: Mapping[str, object] | Callable[[], Mapping[str, object]],
        dataset: Dataset,
        method_order: Sequence[str] | None = None,
        window: int | None = None,
    ) -> Iterator[tuple[str, int, DecodeResult]]:
        """Stream ``(method, index, result)`` in utterance-major grid order.

        Unlike :meth:`map_decode`, results are yielded as soon as the next
        triple *in grid order* is ready, and at most ``window`` tasks
        (default ``4 × workers``) are in flight at once — a very large
        corpus is never materialised in the parent.  Content is identical
        to the serial loop for every backend.

        The pool lives inside the generator: abandoning it mid-iteration
        shuts the pool down when the generator is garbage collected.
        """
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        live = methods() if callable(methods) else methods
        names = list(method_order) if method_order is not None else list(live)
        tasks = [(name, index) for index in range(len(dataset)) for name in names]
        backend = self._effective_backend(methods, live, dataset)
        self.last_stats = ExecutorStats(backend, self.workers, len(tasks))

        if backend == "serial":
            for name, index in tasks:
                yield name, index, live[name].decode(dataset[index])
            return
        window = window if window is not None else max(4 * self.workers, 4)
        if backend == "thread":
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                def submit(name: str, index: int):
                    return pool.submit(live[name].decode, dataset[index])

                yield from _stream_ordered(tasks, submit, window)
        else:  # process
            payload = methods if callable(methods) else live
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(payload, dataset),
            ) as pool:
                def submit(name: str, index: int):
                    return pool.submit(_decode_task, name, index)

                yield from _stream_ordered(tasks, submit, window)

    def map_jobs(self, fn: Callable, jobs: Sequence) -> list:
        """Run ``fn(job)`` for every job; results come back in job order.

        Generic worker-pool plumbing shared by non-decode workloads (serve
        QPS sweeps, calibration grids).  For the process backend ``fn`` must
        be a picklable module-level callable; ``auto`` falls back to a
        thread pool when pickling fails and to the serial loop for a single
        worker.
        """
        jobs = list(jobs)
        backend = self._job_backend(fn, jobs)
        self.last_stats = ExecutorStats(backend, self.workers, len(jobs))
        if backend == "serial":
            return [fn(job) for job in jobs]
        pool_cls = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=self.workers) as pool:
            futures = [pool.submit(fn, job) for job in jobs]
            return [future.result() for future in futures]

    # -- helpers -------------------------------------------------------------
    def _effective_backend(self, methods, live, dataset) -> str:
        if self.workers <= 1:
            return "serial"
        if self.backend != "auto":
            return self.backend
        if (os.cpu_count() or 1) <= 1:
            # Pools are pure overhead on a single core; the fastest plan for
            # this hardware is the serial loop (results are identical).
            return "serial"
        if callable(methods):
            return "process"
        try:
            # Probe with one decoder and one utterance — representative of
            # the full payload without serializing the whole corpus twice.
            # Which decoder gets probed is irrelevant (they share a class
            # shape), so the arbitrary selection is deliberately fine here.
            probe = next(iter(live.values()), None)  # repro: ignore[DET004]
            pickle.dumps(probe)
            if len(dataset):
                pickle.dumps(dataset[0])
        except Exception:
            return "thread"
        return "process"

    def _job_backend(self, fn, jobs) -> str:
        if self.workers <= 1 or not jobs:
            return "serial"
        if self.backend != "auto":
            return self.backend
        if (os.cpu_count() or 1) <= 1:
            return "serial"
        try:
            pickle.dumps(fn)
            pickle.dumps(jobs[0])
        except Exception:
            return "thread"
        return "process"


def _stream_ordered(
    tasks: Sequence[tuple[str, int]],
    submit: Callable,
    window: int,
) -> Iterator[tuple[str, int, DecodeResult]]:
    """Yield task results in task order with at most ``window`` in flight."""
    pending: deque = deque()
    task_iter = iter(tasks)
    for task in tasks[:window]:
        pending.append((task, submit(*task)))
        next(task_iter)
    while pending:
        (name, index), future = pending.popleft()
        result = future.result()
        refill = next(task_iter, None)
        if refill is not None:
            pending.append((refill, submit(*refill)))
        yield name, index, result
