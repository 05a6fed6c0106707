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

import numpy as np
import pytest

from sievesim import acceptance, cli, sieve
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

SMALL = 2 * cli.CHUNK + 5  # three chunks, the last one partial
PAIRS = sorted(name for name in acceptance.SAMPLES if isinstance(name, tuple))
SIEVES = [name for name, (_, _, worker, _) in acceptance.SAMPLES.items()
          if worker is acceptance._chunk_sieve_empty]


def _sample_id(name) -> str:
    return "-".join(map(str, name)) if isinstance(name, tuple) else str(name)


def _process_keyed_chunk_z(rng, count, *payload):
    """A faulty worker: where it draws on its chunk's stream depends on the
    process that runs it, and so on how many jobs the chunks are spread over."""
    rng.bit_generator.advance(os.getpid())
    return cli._chunk_sample_z(rng, count, *payload)


def _record_streams(monkeypatch):
    """The stream ids of every chunk the runner builds from now on."""
    used = []

    def recording_stream(seed, stream_id):
        used.append(stream_id)
        return RngStream(seed, stream_id)

    monkeypatch.setattr(cli, "RngStream", recording_stream)
    return used


@pytest.fixture
def small_samples(monkeypatch):
    """Every row of SAMPLES at SMALL replicates: the limit-law pairs at grid
    1e-2, criterion 9 at 10 balls and the sieve cases at 1000 balls at most."""
    for name, (stream, _, worker, payload) in list(acceptance.SAMPLES.items()):
        if worker is cli._chunk_sample_z:
            params, sampler, _, eps = payload
            payload = (params, sampler, 1e-2, eps)
        elif worker is acceptance._chunk_interval_empty:
            payload = (10,)
        elif worker is acceptance._chunk_sieve_empty:
            payload = (tuple((wlaw, min(balls, 1000)) for wlaw, balls in payload[0]),)
        monkeypatch.setitem(acceptance.SAMPLES, name, (stream, SMALL, worker, payload))
    monkeypatch.setattr(acceptance, "_Z_CACHE", {})
    assert len(cli._chunk_plan(SMALL)) >= 3


def _array(sample):
    """A sample's array; the sieve samples come with their truncation count."""
    return sample[0] if isinstance(sample, tuple) else sample


def _by_jobs(sample):
    """The bytes of ``sample(jobs)`` at jobs 1, 2 and 3, each drawn afresh."""
    out = []
    for jobs in (1, 2, 3):
        acceptance._Z_CACHE.clear()
        draws = _array(sample(jobs))
        assert len(draws) == SMALL
        out.append((draws.dtype, draws.tobytes()))
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
        counts = [acceptance._sample(number, SEED, jobs)[1] for jobs in (1, 2, 3)]
        assert counts == [0, 0, 0]

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
        stream, total, _, payload = acceptance.SAMPLES[(0.5, 0.0)]
        monkeypatch.setitem(acceptance.SAMPLES, (0.5, 0.0),
                            (stream, total, _process_keyed_chunk_z, payload))
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
        streams = [stream for stream, _, _, _ in acceptance.SAMPLES.values()]
        assert len(set(streams)) == len(streams)
        chunks = 0
        for stream, total, _, _ in acceptance.SAMPLES.values():
            cli._run_chunks(lambda rng, count: count, SEED, total, 1, (), stream)
            chunks += len(cli._chunk_plan(total))
        assert len(set(used)) == len(used) == chunks
        assert min(used) >= 1 << 32

    def test_pairs_and_chunks_draw_different_values(self, small_samples):
        samples = [_array(acceptance._sample(name, SEED, 1)) for name in acceptance.SAMPLES]
        heads = [s[start:start + 64].tobytes() for s in samples
                 for start in range(0, SMALL, cli.CHUNK)]
        assert len(set(heads)) == len(heads) == 3 * len(samples)
