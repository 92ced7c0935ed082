"""Event-driven Monte-Carlo realization of the two-type BRW.

Each particle sojourn is one record [type, x, t1, t2] closed by a fate:
death, branching into (k, l) offspring at the same site, a jump to x + v,
type-1 -> type-2 conversion, or censoring at the horizon T.  A particle
waits an exponential time with total rate

    rho_i = kappa_i + mu_i + sum_{k+l>=2} beta_i(k, l) + r * [i = 1]

and the fate is drawn with the step probabilities mu_i/rho_i,
beta_i(k,l)/rho_i, kappa_i a_i(z)/rho_i and r/rho_1; the jump displacement
is drawn from the normalized kernel after the category (an equivalent
factorization of the per-z probabilities).  Particles never interact, so
lineages are processed depth-first off a stack: any processing order
yields the same law, and the stack keeps memory at O(live set).

Randomness comes from a counter-based Philox generator keyed by
(seed, replica_id), which makes replica streams provably non-overlapping
and every run bit-reproducible; only raw uniforms are consumed from the
generator so the draw sequence is independent of library version details.
Each record takes, in this order, its sojourn uniform (t2 = t1 - log(1 - u)
/ rho_i), then, unless t2 reaches T and the record is censored, its fate
uniform and, for a jump, its jump-index uniform.  Records are numbered in
the order they leave a LIFO stack, onto which a branching record pushes its
k type-1 children and then its l type-2 children.

A jumped particle is always the next record, so a jump chain runs in
place, without a trip through the stack, and every record of a chain but
its last is a jump.  The loop keeps only what the draw order depends on.
Per record it appends t2 and nothing else.  Per chain, that is per popped
stack entry, it appends the head's index, the head's parent and the end
row: the decode-table row (type and outcome in one index) of the chain's
last record, censored or a slot.  It checks the event cap once per chain.
A fate uniform is a jump exactly when it is at least the last slot bound,
so the common case costs one float comparison, and a jump's index uniform
is drawn and dropped.  The loop and decode tables are compiled once per
model (``_tables``; the model is immutable) and shared by all its runs.

After the loop, numpy decodes the eager columns: parents (the record before,
except at a chain head), t1 as the parent's t2 (0.0 at a root) and the types,
one per chain, repeated over its length.  The fate and aux columns are
lazy.  On their first read the replica's stream is regenerated
(``_decode_rows``): a censored record took 1 draw, any other chain end 2 and
a jump 3, so a jump's index uniform sits at its record's first draw + 2,
and decodes by the same search of the kernel's cumulative weights.
Positions are lazy too: a record's position is its root's initial site plus
the jump offsets of its ancestors, summed along runs of consecutive records
and by pointer doubling over the run heads (``_ancestor_sums``).  So the
count-only sweeps, which read types, t1 and t2, never decode a row.  A
completed ``SimulationRun`` holds its records as columns (no per-record
objects) and is immutable.

Replicas are embarrassingly parallel: ``map_replicas`` is the one loop over
them, used by ``ensemble``, the survival and conditional sweeps and the
CLI, and it fans out over BRW2_THREADS processes with picklable reducers
without changing results.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .branching import TwoTypeModel

__all__ = [
    "FATE_DIED",
    "FATE_BRANCHED",
    "FATE_JUMPED",
    "FATE_CONVERTED",
    "FATE_CENSORED",
    "FATE_NAMES",
    "SimulationRun",
    "EnsembleResult",
    "SiteStat",
    "EventCapExceeded",
    "run",
    "snapshot",
    "ensemble",
    "map_replicas",
    "default_workers",
]

FATE_DIED, FATE_BRANCHED, FATE_JUMPED, FATE_CONVERTED, FATE_CENSORED = range(5)
FATE_NAMES = ("died", "branched", "jumped", "converted", "censored")

DEFAULT_EVENT_CAP = 10_000_000

_MASK64 = (1 << 64) - 1


class EventCapExceeded(RuntimeError):
    """A replica produced more records than the configured event cap.

    This is the loud-failure signal for supercritical blow-up at the chosen
    horizon; raise the cap deliberately rather than catching this broadly.
    """

    def __init__(self, cap: int, replica_id: int):
        self.cap = cap
        self.replica_id = replica_id
        super().__init__(
            f"replica {replica_id} exceeded the event cap of {cap} records; "
            "the population is likely blowing up at this horizon")


def replica_rng(seed: int, replica_id: int) -> np.random.Generator:
    """Philox generator keyed injectively by (seed, replica_id).

    Distinct keys select independent Philox permutations, so replica
    streams cannot overlap by construction.  The derivation is stable API:
    key = [seed mod 2^64, replica_id mod 2^64].
    """
    key = np.array([seed & _MASK64, replica_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_chunks(rng: np.random.Generator) -> Iterator[list[float]]:
    """The generator's uniforms in [0, 1) as lists of Python floats.

    Chunks grow from 64 to 8192 draws, so a short replica draws little more
    than it uses; the chunk sizes never change the sequence.
    """
    for size in (64, 512, 4096):
        yield rng.random(size).tolist()
    while True:
        yield rng.random(8192).tolist()


def _ancestor_sums(parents: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[i] = values[i] + out[parents[i]], summed up to a root (parent -1).

    ``parents`` may be any forest.  Records whose parent is the record before
    them extend a run, and a run's sums are one segmented ``cumsum`` on top
    of its head's parent's sum.  Only the run heads are then summed by
    pointer doubling, over their own tree: each pass adds the partial sum of
    the run a head points at and then points it at that run's ancestor, so a
    run of depth k is done after ceil(log2(k + 1)) passes over the unfinished
    runs.  ``values`` must be integers: a run's sums are differences of one
    running total, which is exact only in integer arithmetic.
    """
    n = len(parents)
    head = parents != np.arange(-1, n - 1)
    head[:1] = True
    heads = np.flatnonzero(head)
    run_of = np.cumsum(head) - 1
    total = np.cumsum(values, axis=0)
    before = np.zeros_like(values[heads])
    before[1:] = total[heads[1:] - 1]
    out = total - before[run_of]
    # each run adds its head's parent's sum; the heads form their own forest
    up = parents[heads]
    ptr = np.where(up >= 0, run_of[up], -1)
    add = out[up]
    add[up < 0] = 0
    todo = np.flatnonzero(ptr >= 0)
    while todo.size:
        nxt = ptr[todo]
        add[todo] += add[nxt]
        ptr[todo] = ptr[nxt]
        todo = todo[ptr[todo] >= 0]
    return out + add[run_of]


@dataclass(frozen=True)
class SimulationRun:
    """Complete replay-deterministic history of one replica.

    Columnar storage, one row per record: a jump's displacement is
    ``model.kernel(type).offsets[aux_a]``.  Every non-initial record's t1
    equals its parent's t2, and censored records (t2 == T) count as alive
    on the closed interval [t1, T].

    The event loop keeps per record only its t2, and per chain its head's
    index and parent and its end row (``chain_bounds``, ``ends``); every other
    column is decoded from those.  ``types``, ``t1`` and ``parents`` are
    decoded with the run.  ``fates``, ``aux_a`` and ``aux_b`` are decoded
    together on the first read of any of them, from the replica's
    regenerated stream, and ``positions`` on its first read, from the
    parents and jump offsets; a reducer that only counts pays for neither.
    """

    model: TwoTypeModel
    horizon: float
    seed: int
    replica_id: int
    initial: tuple[tuple[int, tuple[int, ...]], ...]
    types: np.ndarray = field(repr=False)        # (n,) int8, values 1 | 2
    t1: np.ndarray = field(repr=False)
    t2: np.ndarray = field(repr=False)
    parents: np.ndarray = field(repr=False)      # (n,) int64, -1 for initial records
    chain_bounds: np.ndarray = field(repr=False)  # (chains + 1,) int32: chain c holds
    #                                   records chain_bounds[c] to chain_bounds[c + 1] - 1
    ends: np.ndarray = field(repr=False)         # (chains,) int32 last record's table row

    @property
    def n_records(self) -> int:
        return len(self.types)

    @cached_property
    def _outcomes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        tables = _tables(self.model)
        rows = _decode_rows(self)
        return tables.fates[rows], tables.aux_a[rows], tables.aux_b[rows]

    @property
    def fates(self) -> np.ndarray:
        """(n,) int8 fate codes."""
        return self._outcomes[0]

    @property
    def aux_a(self) -> np.ndarray:
        """(n,) int32: k for a branching, the jump index for a jump, else -1."""
        return self._outcomes[1]

    @property
    def aux_b(self) -> np.ndarray:
        """(n,) int32: l for a branching, else -1."""
        return self._outcomes[2]

    @cached_property
    def positions(self) -> np.ndarray:
        """(n, d) int64 sites: a root holds its initial site, and every other
        record its parent's site plus the parent's jump offset, if any."""
        tables = _tables(self.model)
        parents = self.parents
        jump = np.where(self.fates == FATE_JUMPED,
                        self.aux_a + (self.types == 2) * tables.type2_offset, -1)
        steps = tables.offsets[jump[parents]]
        steps[parents < 0] = [x for _, x in self.initial]
        return _ancestor_sums(parents, steps)

    def alive_mask(self, t: float) -> np.ndarray:
        """Records alive at t: t1 <= t < t2, or t1 <= t == t2 when censored,
        which is exactly when t2 == T."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return (self.t1 <= t) & ((t < self.t2) | (self.t2 == self.horizon))

    def root_of(self) -> np.ndarray:
        """Initial-ancestor record index per record: only a root contributes
        its own index to the sum along its descendants' ancestry."""
        parents = self.parents
        own = np.where(parents < 0, np.arange(len(parents), dtype=np.int64), 0)
        return _ancestor_sums(parents, own)


def _decode_rows(sim: SimulationRun) -> np.ndarray:
    """Every record's decode-table row, from the chains and the replica's
    regenerated stream.

    A chain's last record has its end row.  Every other record is a jump,
    and took 3 draws (sojourn, fate, jump index); a chain's last record took
    1 if censored and 2 otherwise.  So a jump's index uniform is its
    record's last draw, and its index is the number of the kernel's
    cumulative weights, all but the last, at or below that uniform: the
    search the loop would have made.
    """
    tables = _tables(sim.model)
    types = sim.types
    last = sim.chain_bounds[1:] - 1
    draws = np.full(len(types), 3, dtype=np.int8)
    draws[last] = tables.end_draws[sim.ends]
    jumps = (draws == 3).nonzero()[0]
    at = draws.cumsum(dtype=np.int64)[jumps] - 1
    u = _stream_at(replica_rng(sim.seed, sim.replica_id), at)
    rows = tables.jump_row[types]
    jump_types = types[jumps]
    for ptype in (1, 2):
        sel = jump_types == ptype
        rows[jumps[sel]] += tables.jump_cum[ptype].searchsorted(u[sel], "right")
    rows[last] = sim.ends
    return rows


def _stream_at(rng: np.random.Generator, at: np.ndarray, block: int = 1 << 16):
    """The generator's uniforms at the increasing stream positions ``at``.

    The stream is drawn in blocks, so memory stays O(block + len(at)) however
    long the stream is (a fig-z1 history draws about 2.8 uniforms per
    record); block sizes never change the sequence.
    """
    out = np.empty(len(at))
    size = int(at[-1]) + 1 if len(at) else 0
    done = 0
    for start in range(0, size, block):
        u = rng.random(min(block, size - start))
        stop = int(at.searchsorted(start + block))
        out[done:stop] = u[at[done:stop] - start]
        done = stop
    return out


class _CompiledType:
    """Per-type sampling and decode tables for the event loop.

    A record's outcome is censoring, a slot in ``bounds`` (death, each
    branching event in order, conversion) or a jump index.  ``decode`` holds
    one (fate, aux_a, aux_b) row per outcome, in that order: censored, then
    the slots, then the jumps.
    """

    __slots__ = ("rho", "inv_rho", "bounds", "children", "jump_cum", "decode")

    def __init__(self, model: TwoTypeModel, ptype: int):
        law = model.law
        kappa = model.kappa(ptype)
        kernel = model.kernel(ptype)
        mu = law.mu1 if ptype == 1 else law.mu2
        branches = law.beta1 if ptype == 1 else law.beta2
        conv = law.conversion_rate if ptype == 1 else 0.0
        rho = kappa + mu + sum(r for _, _, r in branches) + conv
        if rho <= 0:
            raise ValueError(f"type {ptype} has zero total rate; the model is inert")
        self.rho = rho
        self.inv_rho = 1.0 / rho
        bounds = []
        acc = mu / rho
        bounds.append(acc)                     # death
        for _, _, r in branches:
            acc += r / rho
            bounds.append(acc)
        acc += conv / rho
        bounds.append(acc)                     # conversion (zero-width for type 2)
        self.bounds = bounds                   # jump fills the remainder to 1
        # child types per slot, in push order: k type-1 then l type-2
        self.children = ([()] + [(1,) * k + (2,) * l for k, l, _ in branches]
                         + [(2,)])
        self.jump_cum = np.cumsum(kernel.weights)[:-1]   # a jump index's search table
        self.decode = ([(FATE_CENSORED, -1, -1), (FATE_DIED, -1, -1)]
                       + [(FATE_BRANCHED, k, l) for k, l, _ in branches]
                       + [(FATE_CONVERTED, -1, -1)]
                       + [(FATE_JUMPED, zi, -1) for zi in range(len(kernel.weights))])


class _Tables(NamedTuple):
    """Everything ``run`` and the lazy columns read of a model."""

    loop: dict          # type -> (1/rho, bounds, last bound, children, censored row,
    #                              slot-row base)
    types: np.ndarray   # decode columns by row: type-1 rows, then type-2 rows
    fates: np.ndarray
    aux_a: np.ndarray
    aux_b: np.ndarray
    end_draws: np.ndarray   # draws of a chain's last record by row: 1 if censored, else 2
    jump_row: np.ndarray    # first jump row by type (index 0 unused)
    jump_cum: dict          # type -> cumulative kernel weights but the last
    offsets: np.ndarray     # type-1 then type-2 jump offsets, then a zero row
    type2_offset: int       # first type-2 offset


@lru_cache(maxsize=16)
def _tables(model: TwoTypeModel) -> _Tables:
    """The model's loop and decode tables, compiled once per model.

    The model is immutable, so the tables are shared by all its runs.  A
    loop table carries its type's decode rows, so the loop appends a chain's
    end row directly: the censored row, or slot-row base + slot.  Its
    children entry for a slot lists the children's own loop tables.
    """
    comp = {1: _CompiledType(model, 1), 2: _CompiledType(model, 2)}
    base = {1: 0, 2: len(comp[1].decode)}
    loop = {p: [c.inv_rho, c.bounds, c.bounds[-1], None, base[p], base[p] + 1]
            for p, c in comp.items()}
    for p, c in comp.items():
        loop[p][3] = [tuple(loop[q] for q in kids) for kids in c.children]
    decode = np.array(comp[1].decode + comp[2].decode, dtype=np.int64)
    fates = decode[:, 0].astype(np.int8)
    offsets = np.concatenate([model.kernel1.offsets, model.kernel2.offsets,
                              np.zeros((1, model.dim), dtype=np.int64)])
    return _Tables(
        loop=loop,
        types=np.repeat(np.array([1, 2], dtype=np.int8), [base[2], len(comp[2].decode)]),
        fates=fates, aux_a=decode[:, 1].astype(np.int32),
        aux_b=decode[:, 2].astype(np.int32),
        end_draws=np.where(fates == FATE_CENSORED, 1, 2).astype(np.int8),
        jump_row=np.array([0] + [base[p] + 1 + len(comp[p].bounds) for p in (1, 2)]),
        jump_cum={p: c.jump_cum for p, c in comp.items()},
        offsets=offsets, type2_offset=len(model.kernel1.offsets))


def run(model: TwoTypeModel, horizon: float, initial, seed: int,
        event_cap: int = DEFAULT_EVENT_CAP, replica_id: int = 0) -> SimulationRun:
    """Simulate one replica to the horizon; deterministic in all arguments.

    ``initial`` is a sequence of (type, position) pairs.  Raises
    ``EventCapExceeded`` when more than ``event_cap`` records are produced;
    the cap is checked at the end of each jump chain.  The loop records t2
    per record and the chains' heads, head parents and end rows; the run
    decodes types, parents and t1 from them, and leaves the fate, aux and
    position columns to their first read.
    """
    T = float(horizon)
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    init = [(int(p), _pos_tuple(x, model.dim)) for p, x in initial]
    if not init:
        raise ValueError("initial configuration must not be empty")
    tables = _tables(model)
    nextu = chain.from_iterable(_uniform_chunks(replica_rng(seed, replica_id))).__next__
    log = math.log

    t2s: list[float] = []
    heads: list[int] = []
    head_parents: list[int] = []
    ends: list[int] = []
    add_t2, add_head, add_parent, add_end = (t2s.append, heads.append,
                                             head_parents.append, ends.append)

    stack = [(tables.loop[p], 0.0, -1) for p, _ in reversed(init)]
    pop, push = stack.pop, stack.append
    while stack:
        tab, t, parent = pop()
        inv_rho, bounds, last_bound, children, censored_row, slot_row = tab
        add_head(len(t2s))
        add_parent(parent)
        # a jump's continuation is the next record, so a jump chain stays here
        while True:
            t -= log(1.0 - nextu()) * inv_rho
            if t >= T:
                add_t2(T)
                add_end(censored_row)
                break
            add_t2(t)
            u = nextu()
            if u >= last_bound:
                nextu()     # the jump index, decoded from its stream position
                continue
            slot = bisect_right(bounds, u)
            add_end(slot_row + slot)
            rid = len(t2s) - 1
            for kid in children[slot]:
                push((kid, t, rid))
            break
        # once per chain: a chain passes the cap by at most its own length
        if len(t2s) > event_cap:
            raise EventCapExceeded(event_cap, replica_id)

    # chain c holds records bounds[c] to bounds[c + 1] - 1, and a record's
    # parent is the record before it, unless it heads a chain
    n = len(t2s)
    heads.append(n)
    bounds = np.array(heads, dtype=np.int32)
    ends = np.array(ends, dtype=np.int32)
    parents = np.arange(-1, n - 1, dtype=np.int64)
    parents[bounds[:-1]] = head_parents
    t2s.append(0.0)             # the t1 of a root, read through its parent -1
    t2 = np.array(t2s)
    t1 = t2[parents]
    types = tables.types[ends].repeat(bounds[1:] - bounds[:-1])
    return SimulationRun(
        model=model, horizon=T, seed=seed, replica_id=replica_id,
        initial=tuple(init), types=types, t1=t1, t2=t2[:n], parents=parents,
        chain_bounds=bounds, ends=ends)


def _pos_tuple(x, dim: int) -> tuple[int, ...]:
    xv = (x,) if isinstance(x, (int, np.integer)) else tuple(x)
    if len(xv) != dim:
        raise ValueError(f"initial position {x} does not have dimension {dim}")
    return tuple(int(c) for c in xv)


def snapshot(sim: SimulationRun, t: float) -> dict[tuple[int, tuple[int, ...]], int]:
    """Counts of particles alive at t: records with t1 <= t < t2, censored
    ones counting on the closed interval [t1, T]."""
    mask = sim.alive_mask(t)
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    sel_types = sim.types[mask]
    sel_pos = sim.positions[mask]
    if len(sel_types) == 0:
        return out
    stacked = np.column_stack([sel_types.astype(np.int64), sel_pos])
    uniq, counts = np.unique(stacked, axis=0, return_counts=True)
    for row, cnt in zip(uniq, counts):
        out[(int(row[0]), tuple(int(c) for c in row[1:]))] = int(cnt)
    return out


@dataclass(frozen=True)
class SiteStat:
    mean: float
    variance: float
    se: float
    n: int


@dataclass
class EnsembleResult:
    n_replicas: int
    base_seed: int
    runs: list[SimulationRun] | None
    site_stats: dict[float, dict[tuple[int, tuple[int, ...]], SiteStat]]
    failures: list[tuple[int, str]]


def default_workers() -> int:
    """Worker count from BRW2_THREADS (default 1); it must be an integer >= 1."""
    raw = os.environ.get("BRW2_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"BRW2_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _replica_job(args):
    (model, horizon, initial, base_seed, replica_id, event_cap, reducer) = args
    try:
        sim = run(model, horizon, initial, base_seed, event_cap=event_cap,
                  replica_id=replica_id)
    except EventCapExceeded as exc:
        return replica_id, None, str(exc)
    return replica_id, reducer(sim), None


def map_replicas(model: TwoTypeModel, horizon: float, initial, n_replicas: int,
                 base_seed: int, reducer: Callable[[SimulationRun], object],
                 event_cap: int = DEFAULT_EVENT_CAP,
                 n_workers: int | None = None) -> tuple[list, list[tuple[int, str]]]:
    """Apply ``reducer`` to each replica; results kept in replica order.

    This is the one loop over replicas in the package.  Replica k uses the
    stream keyed by (base_seed, k); a replica that hits the event cap
    leaves None in its slot and a (k, message) entry in the failures,
    without aborting the rest.  With more than one worker (BRW2_THREADS by
    default) replicas run in at most min(workers, n_replicas) processes, so
    ``reducer`` must be picklable: a module-level function, or a
    ``functools.partial`` of one.  Workers change wall time, not results.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    workers = default_workers() if n_workers is None else max(1, n_workers)
    workers = min(workers, n_replicas)
    jobs = [(model, horizon, initial, base_seed, k, event_cap, reducer)
            for k in range(n_replicas)]
    if workers == 1:
        done = list(map(_replica_job, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_replica_job, jobs,
                                 chunksize=max(1, n_replicas // (8 * workers))))
    failures = [(rid, err) for rid, _, err in done if err is not None]
    return [value for _, value, _ in done], failures


def _snapshots(sim: SimulationRun, times, keep_runs: bool):
    return (sim if keep_runs else None, [snapshot(sim, t) for t in times])


def ensemble(model: TwoTypeModel, horizon: float, initial, n_replicas: int,
             base_seed: int, snapshot_times=(), keep_runs: bool = True,
             event_cap: int = DEFAULT_EVENT_CAP,
             n_workers: int | None = None) -> EnsembleResult:
    """Independent replicas plus per-site mean/variance at requested times.

    Sites a replica never occupies contribute zero counts to the averages.
    With ``keep_runs=False`` histories are discarded after aggregation,
    which is the sane mode for large replica counts.
    """
    times = [float(t) for t in snapshot_times]
    pairs, failures = map_replicas(model, horizon, initial, n_replicas, base_seed,
                                   partial(_snapshots, times=times, keep_runs=keep_runs),
                                   event_cap=event_cap, n_workers=n_workers)
    runs = [] if keep_runs else None
    sums: list[dict] = [{} for _ in times]
    sumsq: list[dict] = [{} for _ in times]
    n_ok = 0
    for pair in pairs:
        if pair is None:
            continue
        n_ok += 1
        sim, snaps = pair
        if keep_runs:
            runs.append(sim)
        for acc, acc2, snap in zip(sums, sumsq, snaps):
            for key, cnt in snap.items():
                acc[key] = acc.get(key, 0) + cnt
                acc2[key] = acc2.get(key, 0) + cnt * cnt
    site_stats: dict[float, dict] = {}
    for t, acc, acc2 in zip(times, sums, sumsq):
        stats = {}
        for key in sorted(acc) if n_ok else ():
            s, s2 = acc[key], acc2[key]
            mean = s / n_ok
            var = (s2 - s * s / n_ok) / (n_ok - 1) if n_ok > 1 else 0.0
            var = max(var, 0.0)
            stats[key] = SiteStat(mean=mean, variance=var,
                                  se=math.sqrt(var / n_ok), n=n_ok)
        site_stats[t] = stats
    return EnsembleResult(n_replicas=n_replicas, base_seed=base_seed, runs=runs,
                          site_stats=site_stats, failures=failures)
