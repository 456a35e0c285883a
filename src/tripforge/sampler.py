"""Annealed Metropolis-Hastings over per-demand route choices.

Each proposal changes one demand's route, drawn from its candidate weights
restricted to the non-current candidates.  Acceptance compares objective
values on a log scale with the temperature exponent, so improving moves are
always accepted and the exponent 1/L never overflows.  The temperature decays
once per sweep (one sweep = one proposal per demand on average), keeping
schedules comparable across demand sizes.  The proposals read a PCG64 stream
spawned off the seed and turn its words, a block at a time, into exactly the
integers and doubles numpy's `Generator` would draw from that seed, call for
call.

`run` draws its proposals in blocks of arrays, each with a table of
per-proposal temperatures, and loops over them with local tables.  Only a
checkpoint or the block cap ends a block; cooling does not.  The public step
functions `propose`, `delta_error`, `acceptance_probability` and
`apply_delta`, drawing from a `Generator`, define each step, and are the
reference the tests check the loop against, draw for draw and bit for bit.
A proposal on the benchmark's chain-long instance takes about 1.15 µs on a
2-core x86 VM, against 1.8 µs when each draw was one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import _RESYNC_EVERY, ChainState, MismatchSpec


# The most proposals `run` draws in one block.
_BLOCK = 4096


class FrozenChainError(RuntimeError):
    """Every candidate set is a singleton: no move can ever be proposed."""


@dataclass(frozen=True)
class SamplerConfig:
    """The chain's settings: length, seed, trace period, schedule and
    objective stabilizer.

    The temperature starts at `l0` and is multiplied by `decay` once per
    sweep, down to `l_min`.  These defaults cool hard within a few sweeps:
    per-move error changes scale like 1/n, so on large demands the schedule
    must reach very low temperatures quickly for the chain to settle.
    """

    iterations: int = 100_000
    checkpoint_every: int = 25_000
    seed: int = 7
    l0: float = 1.0
    decay: float = 0.05
    l_min: float = 1e-6
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {self.decay}")
        if not (math.isfinite(self.l_min) and self.l_min > 0.0):
            raise ValueError(f"l_min must be finite and positive, got {self.l_min}")
        if not (math.isfinite(self.l0) and self.l0 >= self.l_min):
            raise ValueError(f"l0 must be finite and at least l_min, got {self.l0}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


@dataclass(frozen=True)
class Checkpoint:
    iteration: int
    error: float
    best_error: float
    acceptance_rate: float
    temperature: float


@dataclass(frozen=True)
class RunTrace:
    checkpoints: tuple[Checkpoint, ...]
    initial_assignment: np.ndarray  # the assignment the chain started from
    final_state: ChainState
    best_state: ChainState

    @property
    def initial_error(self) -> float:
        return self.checkpoints[0].error

    @property
    def best_error(self) -> float:
        return self.best_state.cached_error


def draw_assignment(candidate_sets, seed: int) -> np.ndarray:
    """One candidate index per demand, drawn independently from the candidate
    weights; the seed fixes the draw."""
    draws = np.random.default_rng(seed).random(len(candidate_sets)).tolist()
    return np.array(
        [_weighted_draw(cs.weights, u) for cs, u in zip(candidate_sets, draws)], dtype=np.int64
    )


def initialize(candidate_sets, spec: MismatchSpec, seed: int) -> ChainState:
    """Draw each demand's route independently from its candidate weights and
    build the chain state with caches computed from scratch."""
    candidate_sets = list(candidate_sets)
    return ChainState(candidate_sets, spec, draw_assignment(candidate_sets, seed))


def _weighted_draw(weights, u: float, skip: int = -1) -> int:
    """First index whose cumulative weight exceeds u, leaving out index
    `skip`; the last index drawn from if none does."""
    acc = 0.0
    pick = -1
    for i, w in enumerate(weights):
        if i == skip:
            continue
        acc += w
        pick = i
        if u < acc:
            break
    return pick


def propose(state: ChainState, rng) -> tuple[int, int, float]:
    """One single-variable proposal.

    `rng` is a numpy `Generator`; `run` draws the same values from its own
    stream.

    Picks a demand uniformly among those with >= 2 candidates, then a
    candidate different from the current one, drawn from the set's weights
    renormalized over the non-current candidates.  Returns (demand index,
    candidate index, q(current | candidate) / q(candidate | current)): the
    exact correction for this restricted kernel, which with weights w is
    w_cur (1 - w_cur) / (w_new (1 - w_new)).
    """
    eligible = state.eligible
    if not eligible:
        raise FrozenChainError("all candidate sets are singletons; chain cannot move")
    j = eligible[rng.integers(0, len(eligible))]
    weights = state.weights[j]
    cur = state.assignment.item(j)
    w_cur = weights[cur]
    cand = _weighted_draw(weights, rng.random() * (1.0 - w_cur), cur)
    w_new = weights[cand]
    return j, cand, (w_cur * (1.0 - w_cur)) / (w_new * (1.0 - w_new))


class _ProposalStream:
    """Rounds of the draws `integers(0, m)`, `random()`, `random()` that
    `np.random.default_rng(seed)` makes, value for value, many at a time.

    Words come from `PCG64.random_raw` into one buffer.  A double is the top
    53 bits of a word times 2**-53.  An integer uses Lemire's multiply-and-
    reject method on 32-bit draws, which take a fresh word's low half first
    and keep its high half for the next 32-bit draw, as PCG64 does; a range
    of 1 draws nothing.  Ranges above 2**32, which numpy serves from 64-bit
    draws, are not supported.
    """

    def __init__(self, seed: np.random.SeedSequence) -> None:
        self._bitgen = np.random.PCG64(seed)
        self._buf, self._pos = np.empty(0, dtype=np.uint64), 0  # words, first unread
        self._high = None  # the unused high half of the last word split

    def _words(self, count: int) -> np.ndarray:
        """The next `count` words, left unread: the caller advances `_pos`."""
        if self._pos + count > len(self._buf):
            fresh = self._bitgen.random_raw(max(count, 1024))
            self._buf, self._pos = np.concatenate((self._buf[self._pos:], fresh)), 0
        return self._buf[self._pos:self._pos + count]

    def block(self, m: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`count` rounds of `(integers(0, m), random(), random())` as three
        arrays, equal to what those calls would return in turn.

        With m > 1 the rounds alternately split a fresh word and take the
        high half the round before left, so their words sit at known offsets.
        A vectorized pass keeps the rounds before Lemire's first rejection and
        drops the rejected 32-bit draw; that round draws again in the next
        pass.  A pass after a rejection covers 1 round, doubling while clean.
        """
        if not 1 <= m <= 1 << 32:
            raise ValueError(f"m must lie in [1, 2**32], got {m}")
        parts = [np.empty((3, 0), np.uint64)]  # (integers, first words, second words)
        if m == 1:  # integers(0, 1) reads no word
            words = self._words(2 * count)
            self._pos += 2 * count
            parts.append((np.zeros(count, np.uint64), words[0::2], words[1::2]))
            count = 0
        threshold = ((1 << 32) - m) % m
        window = count  # rounds in the next pass
        while count:
            n = min(count, window)
            saved = int(self._high is not None)
            r = np.arange(n + 1)
            fresh = (r + saved) % 2 == 0  # the rounds that split a fresh word
            start = 2 * r + (r + 1 - saved) // 2  # the words read before each round
            words = self._words(int(start[n]))
            split = words[start[:n][fresh[:n]]]
            halves = np.empty(2 * len(split) + saved, np.uint64)  # the 32-bit draws
            halves[:saved] = self._high or 0  # the saved high half, if any
            halves[saved::2], halves[saved + 1::2] = split & 0xFFFFFFFF, split >> 32
            products = halves[:n] * np.uint64(m)  # below 2**64
            rejected = np.flatnonzero(products & 0xFFFFFFFF < threshold)
            k = int(rejected[0]) if len(rejected) else n
            first = start[:k] + fresh[:k]
            parts.append((products[:k] >> 32, words[first], words[first + 1]))
            # The kept rounds read two doubles each, and the 32-bit draws
            # used, a rejected one included, split one fresh word per two
            # past the saved half; a high half is left after a low half.
            used = k + (k < n)
            self._pos += 2 * k + (used + 1 - saved) // 2
            self._high = halves.item(used) if (used - saved) % 2 else None
            window = 1 if k < n else 2 * window
            count -= k
        picks, firsts, seconds = map(np.concatenate, zip(*parts))
        return picks.astype(np.int64), (firsts >> 11) * 2.0**-53, (seconds >> 11) * 2.0**-53


def acceptance_probability(
    err_curr: float,
    err_cand: float,
    weight_ratio: float,
    temperature: float,
    epsilon: float = 1e-9,
) -> float:
    """min{1, weight_ratio * ((err_curr + eps)/(err_cand + eps))^(1/L)}.

    weight_ratio is the proposal correction q(current | candidate) /
    q(candidate | current).  Evaluated in log space: the exponent is only
    exponentiated when the log is <= 0, so large 1/L cannot overflow.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if weight_ratio <= 0.0:
        raise ValueError("weight_ratio must be positive")
    log_alpha = math.log(weight_ratio) + (
        math.log(err_curr + epsilon) - math.log(err_cand + epsilon)
    ) / temperature
    if log_alpha >= 0.0:
        return 1.0
    return math.exp(log_alpha)


def run(candidate_sets, spec: MismatchSpec, config: SamplerConfig) -> RunTrace:
    """Execute the annealed sampling loop and return the full trace.

    Deterministic for fixed inputs and seed.  best_state tracks the lowest
    error seen anywhere along the chain.
    """
    candidate_sets = list(candidate_sets)
    state = initialize(candidate_sets, spec, config.seed)
    initial_assignment = state.assignment.copy()
    # The proposal stream is spawned off the seed so it never replays the
    # initialization draws.
    rng = _ProposalStream(np.random.SeedSequence(config.seed, spawn_key=(1,)))

    iterations, every, n = config.iterations, config.checkpoint_every, state.n
    temperature, decay, l_min, eps = config.l0, config.decay, config.l_min, config.epsilon
    eligible = state.eligible
    if iterations and not eligible:
        raise FrozenChainError("all candidate sets are singletons; chain cannot move")
    n_eligible, eligible = len(eligible), np.array(eligible, dtype=np.int64)

    all_weights, offsets = state.weights, state._offsets
    assignment, current = state.assignment, state.assignment.tolist()
    # One (index, scale, bins, counts, scaled target) row per characteristic.
    tables = list(zip(range(len(spec.entries)), state._scales, state._flat_bins, state.counts,
                      state._scaled_targets))
    dev_sums = state._dev_sums
    trial = list(dev_sums)  # the deviation sums the proposed move would leave
    error = state.cached_error
    log_error = math.log(error + eps)  # recomputed only when the state changes
    applies = state._applies
    log, exp = math.log, math.exp

    best_error = error
    best_assignment = assignment.copy()
    checkpoints = [Checkpoint(0, error, best_error, 0.0, temperature)]
    accepted = last = 0  # accepted moves since, and iteration of, the last checkpoint
    done = 0  # proposals made
    while done < iterations:
        # A segment ends at the next checkpoint or the block cap, and draws
        # all its proposals in one block; the temperature of each proposal
        # cools once per sweep.
        end = min(done + _BLOCK, (done // every + 1) * every, iterations)
        picks, us, vs = rng.block(n_eligible, end - done)
        temps = []
        while done < end:
            sweep_end = min(end, (done // n + 1) * n)
            temps += [temperature] * (sweep_end - done)
            done = sweep_end
            if done % n == 0:
                temperature = max(l_min, temperature * decay)
        for j, u, v, temp in zip(eligible[picks].tolist(), us.tolist(), vs.tolist(), temps):
            # propose: a candidate from the weights renormalized over the
            # non-current ones
            weights = all_weights[j]
            cur = current[j]
            w_cur = weights[cur]
            u *= 1.0 - w_cur
            acc = 0.0
            for i, w in enumerate(weights):
                if i != cur:
                    acc += w
                    cand = i
                    if u < acc:
                        break
            w_new = weights[cand]
            q_ratio = (w_cur * (1.0 - w_cur)) / (w_new * (1.0 - w_new))
            # delta_error, keeping each characteristic's deviation sum in `trial`
            old = offsets[j] + cur
            new = old - cur + cand
            err_cand = 0.0
            for ki, scale, rows, counts, nz in tables:
                b_old, b_new = rows[old], rows[new]
                dev = dev_sums[ki]
                if b_old != b_new:
                    c_old, t_old = counts[b_old], nz[b_old]
                    c_new, t_new = counts[b_new], nz[b_new]
                    dev += (abs(c_old - 1 - t_old) - abs(c_old - t_old)
                            + abs(c_new + 1 - t_new) - abs(c_new - t_new))
                trial[ki] = dev
                err_cand += scale * dev
            # acceptance_probability against the acceptance draw v
            log_alpha = log(q_ratio) + (log_error - log(err_cand + eps)) / temp
            if log_alpha >= 0.0 or v < exp(log_alpha):
                # apply_delta, with the deviation sums already in `trial`
                for _, _, rows, counts, _ in tables:
                    b_old, b_new = rows[old], rows[new]
                    if b_old != b_new:
                        counts[b_old] -= 1
                        counts[b_new] += 1
                dev_sums[:] = trial
                current[j] = assignment[j] = cand
                state.cached_error = error = err_cand
                applies += 1
                if applies >= _RESYNC_EVERY:
                    state._resync()
                    applies, dev_sums, error = 0, state._dev_sums, state.cached_error
                log_error = log(error + eps)
                accepted += 1
                if error < best_error:
                    best_error = error
                    best_assignment[:] = assignment
        if done % every == 0 or done == iterations:
            rate = accepted / (done - last)
            checkpoints.append(Checkpoint(done, error, best_error, rate, temperature))
            accepted, last = 0, done
    state._applies = applies

    best_state = ChainState(candidate_sets, spec, best_assignment)
    # The checkpoints taken since the best move report the best error as
    # rebuilt, the value RunTrace.best_error gives, not the one carried
    # incrementally, which can differ in the last bits.
    rebuilt = best_state.cached_error
    checkpoints = [
        replace(c, best_error=rebuilt) if c.best_error == best_error else c for c in checkpoints
    ]
    return RunTrace(
        checkpoints=tuple(checkpoints),
        initial_assignment=initial_assignment,
        final_state=state,
        best_state=best_state,
    )
