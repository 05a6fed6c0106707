"""Full verification suite: one test per criterion, each printing its
pass/fail line with the measured values and pinned tolerance.

The report lines bypass pytest's capture so that a plain `pytest -v` log
carries one line per criterion; the same checks run via the CLI:
`sievesim verify --suite all --seed 20260811`.  The criteria run on every
core; their results do not depend on the number of jobs, which the tests
after them check at a small scale.
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest

from sievesim import acceptance, chains, runner, sieve, stats
from sievesim.randkit import RngStream

SEED = acceptance.DEFAULT_SEED


@pytest.mark.parametrize("number", sorted(acceptance.SUITES["all"]))
def test_criterion(number):
    result = acceptance.run_criterion(number, seed=SEED, jobs=os.cpu_count() or 1)
    print(result.report_line(), file=sys.__stdout__)
    assert result.number == number
    assert result.passed, result.report_line()


def test_each_criterion_is_registered_under_one_number():
    assert sorted(acceptance._CRITERIA) == list(acceptance.SUITES["all"])
    names = [name for name, _ in acceptance._CRITERIA.values()]
    assert len(set(names)) == len(names)
    with pytest.raises(ValueError, match="no criterion 16"):
        acceptance.run_criterion(16, jobs=1)


# ----------------------------------------------------------------------
# chunk-addressed samples

SMALL = 2 * runner.CHUNK + 5  # three chunks, the last one partial
PAIRS = sorted(name for name in acceptance.SAMPLES if isinstance(name, tuple))
SIEVES = [name for name, (_, _, worker, _, _) in acceptance.SAMPLES.items()
          if worker is acceptance._chunk_sieve_empty]
COUNTED = [name for name, row in acceptance.SAMPLES.items()
           if row[4] is acceptance._value_counts]


def _sample_id(name) -> str:
    return "-".join(map(str, name)) if isinstance(name, tuple) else str(name)


def _process_keyed_chunk_z(rng, count, *payload):
    """A faulty worker: where it draws on its chunk's stream depends on the
    process that runs it, and so on how many jobs the chunks are spread over."""
    rng.bit_generator.advance(os.getpid())
    return runner.chunk_sample_z(rng, count, *payload)


def _record_streams(monkeypatch):
    """The stream ids of every chunk the runner builds from now on."""
    used = []

    def recording_stream(seed, stream_id):
        used.append(stream_id)
        return RngStream(seed, stream_id)

    monkeypatch.setattr(runner, "RngStream", recording_stream)
    return used


def _small_payload(worker, payload):
    """A payload of ``worker`` that draws the same kind of sample fast: the
    limit-law pairs at grid 1e-2, the sieve cases at 1000 balls at most and
    the subordinator marginals at eps 1e-2."""
    if worker is runner.chunk_sample_z:
        params, sampler, _, eps = payload
        return params, sampler, 1e-2, eps
    if worker is acceptance._chunk_sieve_empty:
        cases, method = payload
        return tuple((wlaw, min(balls, 1000)) for wlaw, balls in cases), method
    if worker is acceptance._chunk_subordinator:
        return payload[0], 1e-2
    return payload


@pytest.fixture
def small_samples(monkeypatch):
    """Every row of SAMPLES at SMALL replicates and a small payload."""
    for name, (stream, _, worker, payload, reduce) in list(acceptance.SAMPLES.items()):
        monkeypatch.setitem(acceptance.SAMPLES, name,
                            (stream, SMALL, worker, _small_payload(worker, payload), reduce))
    monkeypatch.setattr(acceptance, "_Z_CACHE", {})
    assert len(runner._chunk_plan(SMALL)) >= 3


def _raw(name):
    """The sample ``SAMPLES[name]`` at jobs 1 unreduced: its chunk arrays
    joined (a sieve chunk's table without its truncation count)."""
    stream, total, worker, payload, _ = acceptance.SAMPLES[name]
    parts = runner.run_chunks(worker, SEED, total, 1, payload, stream)
    return np.concatenate([p[0] if isinstance(p, tuple) else p for p in parts])


def _canonical(value):
    """``value`` as nested tuples, each array as its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(map(_canonical, value))
    return value


def _by_jobs(sample):
    """``sample(jobs)`` at jobs 1, 2 and 3, each drawn afresh, in canonical
    form; a joined sample must hold SMALL replicates."""
    out = []
    for jobs in (1, 2, 3):
        acceptance._Z_CACHE.clear()
        result = sample(jobs)
        assert not isinstance(result, np.ndarray) or len(result) == SMALL
        out.append(_canonical(result))
    return out


class TestChunkedSamples:
    @pytest.mark.parametrize("name", list(acceptance.SAMPLES), ids=_sample_id)
    def test_sample_does_not_depend_on_jobs(self, name, small_samples):
        first, *rest = _by_jobs(lambda jobs: acceptance._sample(name, SEED, jobs))
        assert all(other == first for other in rest)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_z_draws_do_not_depend_on_jobs(self, pair, small_samples):
        # through the per-process memo that criteria 3, 4, 5, 12 and 13 share
        first, *rest = _by_jobs(lambda jobs: acceptance._z_draws(*pair, SEED, jobs))
        assert all(other == first for other in rest)

    @pytest.mark.parametrize("number", SIEVES)
    def test_sieve_samples_do_not_depend_on_jobs(self, number, small_samples):
        # the truncation counts are summed over the chunks at every jobs
        counts = [acceptance._column_counts(number, SEED, jobs)[1] for jobs in (1, 2, 3)]
        assert counts == [0, 0, 0]

    @pytest.mark.parametrize("number", COUNTED)
    def test_value_counts_are_those_of_the_joined_sample(self, number, small_samples):
        columns, _ = acceptance._column_counts(number, SEED, 2)
        raw = _raw(number)
        assert len(columns) == raw.shape[1]
        for counts, column in zip(columns, raw.T):
            pooled = chains.counts_pmf(counts).masses
            assert pooled.tobytes() == chains.empirical_pmf(column).masses.tobytes()

    def test_laplace_estimates_cover_every_replicate(self, small_samples):
        parts = acceptance._sample(6, SEED, 2)
        raw = _raw(6)
        for k, column in enumerate(raw.T):
            for j, x in enumerate(acceptance._LAPLACE_X):
                est = stats.mc_merge(part[k][j] for part in parts)
                assert est.count == SMALL
                assert est.mean == pytest.approx(np.exp(-x * column).mean(), rel=1e-12)

    @pytest.mark.parametrize("number,calls", [(8, 25 * 6), (14, 25)])
    def test_truncated_replicates_fail_the_criterion(self, number, calls, monkeypatch):
        # every sieve call reports one truncated replicate and draws as before,
        # so the criterion's other checks still pass at its canonical size
        sample_occupancy = sieve.sample_occupancy

        def one_truncated(*args, **kwargs):
            batch = sample_occupancy(*args, **kwargs)
            batch.truncated += 1
            return batch

        monkeypatch.setattr(sieve, "sample_occupancy", one_truncated)
        result = acceptance.run_criterion(number, seed=SEED, jobs=1)
        assert not result.passed
        assert result.metrics["truncated"] == calls
        assert f"{calls} " in result.details and "replicates truncated" in result.details

    def test_worker_keyed_on_jobs_is_caught(self, small_samples, monkeypatch):
        stream, total, _, payload, reduce = acceptance.SAMPLES[(0.5, 0.0)]
        monkeypatch.setitem(acceptance.SAMPLES, (0.5, 0.0),
                            (stream, total, _process_keyed_chunk_z, payload, reduce))
        first, *rest = _by_jobs(lambda jobs: acceptance._z_draws(0.5, 0.0, SEED, jobs))
        assert all(other != first for other in rest)

    def test_clearing_the_memo_draws_again(self, small_samples, monkeypatch):
        # the benchmark clears acceptance._Z_CACHE by that name before every
        # operation, so each one draws the limit-law pairs afresh
        used = _record_streams(monkeypatch)
        for _ in range(2):
            acceptance._z_draws(0.5, 0.0, SEED, 1)
        assert len(used) == 3
        acceptance._Z_CACHE.clear()
        acceptance._z_draws(0.5, 0.0, SEED, 1)
        assert len(used) == 6
        # only the limit-law draws are memoised
        for _ in range(2):
            acceptance._sample(8, SEED, 1)
        assert len(used) == 12
        assert list(acceptance._Z_CACHE) == [(0.5, 0.0, SEED)]

    def test_pairs_and_chunks_draw_from_distinct_streams(self, small_samples, monkeypatch):
        used = _record_streams(monkeypatch)
        for name in acceptance.SAMPLES:
            acceptance._sample(name, SEED, 1)
        assert len(set(used)) == len(used) == 3 * len(acceptance.SAMPLES)
        # a chunk address never collides with a plain per-criterion stream id
        assert min(used) >= 1 << 32

    def test_canonical_chunk_addresses_are_distinct(self, monkeypatch):
        used = _record_streams(monkeypatch)
        streams = [stream for stream, *_ in acceptance.SAMPLES.values()]
        assert len(set(streams)) == len(streams)
        chunks = 0
        for stream, total, *_ in acceptance.SAMPLES.values():
            runner.run_chunks(lambda rng, count: count, SEED, total, 1, (), stream)
            chunks += len(runner._chunk_plan(total))
        # four limit-law pairs of 25 chunks and one of 5, criterion 6's 49,
        # the 25 each of criteria 7, 8, 9, 11 and 14, and criterion 12's 3
        assert chunks == 4 * 25 + 5 + 49 + 5 * 25 + 3
        assert len(set(used)) == len(used) == chunks
        assert min(used) >= 1 << 32

    def test_pairs_and_chunks_draw_different_values(self, small_samples):
        samples = [_raw(name) for name in acceptance.SAMPLES]
        heads = [s[start:start + 64].tobytes() for s in samples
                 for start in range(0, SMALL, runner.CHUNK)]
        assert len(set(heads)) == len(heads) == 3 * len(samples)


# Criteria whose samples reduce in their chunk workers, each with its base
# replicate count: the parent's memory must not grow with it.
_BASE_REPS = {6: 2 * runner.CHUNK, 7: 2 * runner.CHUNK, 8: 2 * runner.CHUNK, 9: 8 * runner.CHUNK,
              14: 10 * runner.CHUNK}


@pytest.mark.parametrize("number", sorted(_BASE_REPS))
def test_parent_memory_does_not_grow_with_replicates(number, monkeypatch):
    # the parent folds chunk reductions, so only the pool and its own fixed
    # draws (criterion 14's Poisson and mixed-Poisson samples) set its peak
    stream, _, worker, payload, reduce = acceptance.SAMPLES[number]
    payload = _small_payload(worker, payload)

    def traced_peak(reps):
        monkeypatch.setitem(acceptance.SAMPLES, number, (stream, reps, worker, payload, reduce))
        tracemalloc.start()
        try:
            acceptance.run_criterion(number, SEED, jobs=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = _BASE_REPS[number]
    traced_peak(base)  # imports what the criterion needs (scipy's quad for 6) before measuring
    peaks = [traced_peak(base), traced_peak(4 * base)]
    assert peaks[1] < 1.1 * peaks[0] + 2**18, peaks
