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

from sievesim import acceptance, cli
from sievesim.randkit import RngStream

SEED = acceptance.DEFAULT_SEED


@pytest.mark.parametrize("number", sorted(acceptance.SUITES["all"]))
def test_criterion(number):
    result = acceptance.run_criterion(number, seed=SEED, jobs=os.cpu_count() or 1)
    print(result.report_line(), file=sys.__stdout__)
    assert result.passed, result.report_line()


# ----------------------------------------------------------------------
# chunk-addressed samples

SMALL = 2 * cli.CHUNK + 5  # three chunks, the last one partial
PAIRS = sorted(acceptance._Z_SIZES)
WALKS = sorted(acceptance._WALK_SAMPLES)
SIEVES = sorted(acceptance._SIEVE_SAMPLES)
_CHUNK_Z = cli._chunk_sample_z


def _process_keyed_chunk_z(rng, count, *payload):
    """A faulty worker: where it draws on its chunk's stream depends on the
    process that runs it, and so on how many jobs the chunks are spread over."""
    rng.bit_generator.advance(os.getpid())
    return _CHUNK_Z(rng, count, *payload)


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
    monkeypatch.setattr(acceptance, "_Z_SIZES", {pair: SMALL for pair in PAIRS})
    monkeypatch.setattr(acceptance, "_Z_GRID", 1e-2)
    monkeypatch.setattr(acceptance, "_Z_CACHE", {})
    monkeypatch.setattr(acceptance, "_INTERVAL_REPS", SMALL)
    monkeypatch.setattr(acceptance, "_INTERVAL_BALLS", 10)
    monkeypatch.setattr(acceptance, "_WALK_SAMPLES", {
        number: (stream, SMALL, t_values, stats)
        for number, (stream, _, t_values, stats) in acceptance._WALK_SAMPLES.items()})
    monkeypatch.setattr(acceptance, "_SIEVE_SAMPLES", {
        number: (stream, SMALL, tuple((wlaw, min(balls, 1000)) for wlaw, balls in cases))
        for number, (stream, _, cases) in acceptance._SIEVE_SAMPLES.items()})
    assert len(cli._chunk_plan(SMALL)) >= 3


def _by_jobs(sample):
    """The bytes of ``sample(jobs)`` at jobs 1, 2 and 3, each drawn afresh."""
    out = []
    for jobs in (1, 2, 3):
        acceptance._Z_CACHE.clear()
        draws = sample(jobs)
        assert len(draws) == SMALL
        out.append((draws.dtype, draws.tobytes()))
    return out


class TestChunkedSamples:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_z_draws_do_not_depend_on_jobs(self, pair, small_samples):
        first, *rest = _by_jobs(lambda jobs: acceptance._z_draws(*pair, SEED, jobs))
        assert all(other == first for other in rest)

    def test_interval_sample_does_not_depend_on_jobs(self, small_samples):
        first, *rest = _by_jobs(lambda jobs: acceptance._interval_empty(SEED, jobs))
        assert all(other == first for other in rest)

    @pytest.mark.parametrize("number", WALKS)
    def test_walk_samples_do_not_depend_on_jobs(self, number, small_samples):
        first, *rest = _by_jobs(lambda jobs: acceptance._walk_sample(number, SEED, jobs))
        assert all(other == first for other in rest)

    @pytest.mark.parametrize("number", SIEVES)
    def test_sieve_samples_do_not_depend_on_jobs(self, number, small_samples):
        truncated = []

        def draw(jobs):
            empty, count = acceptance._sieve_empty(number, SEED, jobs)
            truncated.append(count)
            return empty

        first, *rest = _by_jobs(draw)
        assert all(other == first for other in rest)
        assert truncated == [0, 0, 0]

    @pytest.mark.parametrize("number,calls", [(8, 25 * 6), (14, 25)])
    def test_truncated_replicates_fail_the_criterion(self, number, calls, monkeypatch):
        # every chunk call reports one truncated replicate and draws as before,
        # so the criterion's other checks still pass at its canonical size
        chunk_sieve = cli._chunk_sieve

        def one_truncated(*args):
            table, truncated = chunk_sieve(*args)
            return table, truncated + 1

        monkeypatch.setattr(cli, "_chunk_sieve", one_truncated)
        result = acceptance.run_criterion(number, seed=SEED, jobs=1)
        assert not result.passed
        assert result.metrics["truncated"] == calls
        assert f"{calls} " in result.details and "replicates truncated" in result.details

    def test_worker_keyed_on_jobs_is_caught(self, small_samples, monkeypatch):
        monkeypatch.setattr(cli, "_chunk_sample_z", _process_keyed_chunk_z)
        first, *rest = _by_jobs(lambda jobs: acceptance._z_draws(0.5, 0.0, SEED, jobs))
        assert all(other != first for other in rest)

    def test_pairs_and_chunks_draw_from_distinct_streams(self, small_samples, monkeypatch):
        used = _record_streams(monkeypatch)
        for pair in PAIRS:
            acceptance._z_draws(*pair, SEED)
        acceptance._interval_empty(SEED)
        for number in WALKS:
            acceptance._walk_sample(number, SEED)
        for number in SIEVES:
            acceptance._sieve_empty(number, SEED)
        assert len(set(used)) == len(used) == 3 * (len(PAIRS) + 1 + len(WALKS) + len(SIEVES))
        # a chunk address never collides with a plain per-criterion stream id
        assert min(used) >= 1 << 32

    def test_canonical_chunk_addresses_are_distinct(self, monkeypatch):
        used = _record_streams(monkeypatch)
        samples = {1000 + k: acceptance._Z_SIZES[pair] for k, pair in enumerate(PAIRS)}
        samples[acceptance._INTERVAL_STREAM] = acceptance._INTERVAL_REPS
        for stream, total, _, _ in acceptance._WALK_SAMPLES.values():
            samples[stream] = total
        for stream, total, _ in acceptance._SIEVE_SAMPLES.values():
            samples[stream] = total
        for stream, total in samples.items():
            cli._run_chunks(lambda rng, count: count, SEED, total, 1, (), stream)
        # the limit-law pairs, criteria 9, 11 and 12, criteria 8 and 14
        assert len(set(used)) == len(used) == 4 * 25 + 5 + 25 + 25 + 3 + 25 + 25
        assert min(used) >= 1 << 32

    def test_pairs_and_chunks_draw_different_values(self, small_samples):
        samples = [acceptance._z_draws(*pair, SEED) for pair in PAIRS]
        samples.append(acceptance._interval_empty(SEED))
        samples += [acceptance._walk_sample(number, SEED)[:, 0] for number in WALKS]
        samples += [acceptance._sieve_empty(number, SEED)[0] for number in SIEVES]
        heads = [s[start:start + 64].tobytes() for s in samples
                 for start in range(0, SMALL, cli.CHUNK)]
        assert len(set(heads)) == len(heads) == 3 * len(samples)
