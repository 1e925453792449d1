"""`moment_sum` on worker threads, one rounding chunk per task: the same
bits at any thread count, public calls only on the calling thread, a
memory peak of about one chunk per thread, and a forked child that still
computes the same value.

`harness._moment_threads` is patched to force a thread count. A field of
q <= 2^18 is one chunk at the default `_MOMENT_CHUNK` and runs on the
calling thread, so tests that need workers on a small field patch
`_MOMENT_CHUNK` to a prime, which also puts chunk boundaries mid-row.
"""

import importlib
import inspect
import multiprocessing
import pathlib
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from charbox import Character, build_field, cached_field
from charbox.cli import main
from oracles import moment_sum_expected, moment_sum_gather, moment_terms_gather

harness = importlib.import_module("charbox.harness")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def moment_fields(res) -> tuple:
    return (res.value.hex(), res.bound.hex(), res.good_count, res.bad_count, res.bad_bound,
            res.within_bound, res.census_ok)


def outcome(fn):
    """The result's fields, or the exception type and message."""
    try:
        return moment_fields(fn())
    except (OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from([(31, 2), (61, 2), (101, 2), (31, 3)]),
    threads=st.sampled_from([1, 2, 3, 4]),
    chunk=st.sampled_from([None, 997, 4099]),  # primes: chunk boundaries fall mid-row
    k=st.integers(1, 10**6),
    start=st.integers(-40, 40),
    length=st.integers(1, 70),
    r=st.integers(1, 4),
)
def test_any_threads_and_chunks_match_gather(field, threads, chunk, k, start, length, r):
    p, n = field
    ctx = cached_field(p, n, seed=0)
    chi = Character(ctx, k % ctx.q1 or 1)
    interval = range(start, start + length)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_MOMENT_CHUNK", chunk or harness._MOMENT_CHUNK)
        want = moment_fields(moment_sum_expected(chi, interval, r))  # |I| <= 2: the exact integer
        mp.setattr(harness, "_moment_threads", lambda: threads)
        assert moment_fields(harness.moment_sum(chi, interval, r)) == want


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "argv, golden",
    [
        (["moments", "--p", "31", "--n", "3", "--char-index", "77", "--interval-len", "45", "--r", "2"],
         "moments_p31_n3_k77_len45_r2.json"),
        (["burgess", "--p", "127", "--n", "3", "--box", "3:7,-2:5,10:6", "--char-index", "12345"],
         "burgess_p127_n3_k12345.json"),
        # |I| = 3 at eps = 0.45: the trace's moment runs the sweep
        (["burgess", "--p", "257", "--n", "2", "--box", "3:11,-4:11", "--char-index", "4321",
          "--epsilon", "0.45"], "burgess_p257_n2_k4321_eps045.json"),
    ],
)
def test_goldens_at_any_threads(capsys, monkeypatch, threads, argv, golden):
    monkeypatch.setattr(harness, "_moment_threads", lambda: threads)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_default_chunks_at_real_size(monkeypatch, threads):
    # q = 67^3 is two chunks at the default size and the boundary falls
    # mid-row; three threads are capped at the two chunks
    ctx = cached_field(67, 3, seed=0)
    assert ctx.q > harness._MOMENT_CHUNK and harness._MOMENT_CHUNK % ctx.p != 0
    chi, interval = Character(ctx, 4321), range(1, 6)
    want = moment_fields(moment_sum_gather(chi, interval, 3))
    ran_on = set()
    real_terms = harness._moment_terms

    def recorded(*args):
        ran_on.add(threading.get_ident())
        return real_terms(*args)

    monkeypatch.setattr(harness, "_moment_terms", recorded)
    monkeypatch.setattr(harness, "_moment_threads", lambda: threads)
    assert moment_fields(harness.moment_sum(chi, interval, 3)) == want
    assert (threading.get_ident() not in ran_on) == (threads > 1)


def test_memory_peak_is_one_chunk_per_thread(monkeypatch, traced_peak):
    # each chunk's working set is 12 MiB under tracemalloc; q = 101^3 is four
    # chunks, and two threads must hold no more than one chunk each
    ctx = cached_field(101, 3, seed=0)
    chi = Character(ctx, 4321)
    monkeypatch.setattr(harness, "_moment_threads", lambda: 2)
    assert traced_peak(lambda: harness.moment_sum(chi, range(1, 6), 3)) < 26 * 2**20


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([10007, 100003]),
    chunk=st.sampled_from([997, 4099, 9973]),
    k=st.integers(1, 10**6),
    start=st.integers(-10**5, 10**5),
    length=st.integers(1, 40),
    r=st.integers(1, 4),
)
def test_one_row_chunks_match_gather(p, chunk, k, start, length, r):
    # n = 1: every chunk lies in the one row F_p, and a chunk whose shifts
    # span less than p takes chi on that window only, wrapping past p - 1
    ctx = cached_field(p, 1)
    chi = Character(ctx, k % ctx.q1 or 1)
    interval = range(start, start + length)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_MOMENT_CHUNK", chunk)
        for lo in [0, p - chunk, chunk * (start % (p // chunk))]:
            bounds = (lo, min(lo + chunk, p))
            assert harness._moment_terms(chi, interval, r, *bounds).tobytes() == \
                moment_terms_gather(chi, interval, r, *bounds).tobytes()
        assert moment_fields(harness.moment_sum(chi, interval, r)) == moment_fields(
            moment_sum_expected(chi, interval, r))


def test_one_row_chunk_peak_follows_the_chunk(traced_peak):
    # at p = 16777213 one chunk of u's evaluates chi on about chunk + |I|
    # values, not on all of F_p: 48 bytes per u under tracemalloc
    ctx = build_field(16777213, 1)  # uncached, so the table goes with the test
    chi = Character(ctx, 4321)
    for chunk in [1 << 16, 1 << 18]:
        for interval in [range(1, 4), range(-9, 10)]:  # the last chunk: u + z wraps past p - 1
            assert traced_peak(lambda: harness._moment_terms(chi, interval, 10, ctx.q - chunk, ctx.q)) < 64 * chunk


@pytest.mark.parametrize("r", [154, 160])
def test_overflow_matches_gather(monkeypatch, r):
    # trivial chi, |I| = 10: every term is 10^(2r) or so. r = 154 keeps the
    # terms finite and overflows the sum; r = 160 makes them inf (the fsum
    # fallback) and overflows the bound
    ctx = cached_field(31, 3, seed=0)
    chi, interval = Character(ctx, 0), range(1, 11)
    monkeypatch.setattr(harness, "_MOMENT_CHUNK", 4099)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in power
        want = outcome(lambda: moment_sum_gather(chi, interval, r))
        monkeypatch.setattr(harness, "_moment_threads", lambda: 2)
        got = outcome(lambda: harness.moment_sum(chi, interval, r))
    assert got == want and got[0] == "OverflowError"


def _public_callables(mod):
    """(owner, name, function) for each public function defined in mod and
    each public method of a class defined there."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(raw):
                    yield obj, attr, raw


def test_public_calls_stay_on_the_calling_thread(monkeypatch):
    # a span tracer wraps public charbox calls and keeps one stack: workers
    # may run private kernels only
    public_threads, worker_threads = set(), set()

    def recorded(fn, seen):
        def wrapper(*args, **kwargs):
            seen.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    mods = [importlib.import_module(f"charbox.{m}")
            for m in ("field", "boxes", "characters", "energy", "harness")]
    wrapped = {}
    for mod in mods:
        for owner, name, fn in _public_callables(mod):
            wrapped[id(fn)] = recorded(fn, public_threads)
            monkeypatch.setattr(owner, name, wrapped[id(fn)])
    for mod in mods:  # names another module imported, e.g. harness.exact_sum
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                monkeypatch.setattr(mod, name, wrapped[id(obj)])
    monkeypatch.setattr(harness, "_moment_terms", recorded(harness._moment_terms, worker_threads))
    monkeypatch.setattr(harness, "_moment_threads", lambda: 2)
    monkeypatch.setattr(harness, "_MOMENT_CHUNK", 4099)  # prime: q = 31^3 is 8 chunks

    ctx = cached_field(31, 3, seed=0)
    harness.moment_sum(Character(ctx, 4321), range(1, 6), 3)
    assert public_threads == {threading.get_ident()}
    assert worker_threads and threading.get_ident() not in worker_threads


def _child_moment(conn, k):
    ctx = cached_field(31, 3, seed=0)
    conn.send(harness.moment_sum(Character(ctx, k), range(1, 6), 3).value.hex())
    conn.close()


def test_forked_child_after_threaded_call(monkeypatch):
    # the pool lives only inside a call, so a fork after one inherits no
    # worker threads; the child runs its own threaded call
    monkeypatch.setattr(harness, "_moment_threads", lambda: 2)
    monkeypatch.setattr(harness, "_MOMENT_CHUNK", 4099)  # prime: q = 31^3 is 8 chunks
    ctx = cached_field(31, 3, seed=0)
    want = harness.moment_sum(Character(ctx, 4321), range(1, 6), 3).value.hex()
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_child_moment, args=(send, 4321))
    child.start()
    try:
        assert receive.poll(60), "child gave no value within 60 s"
        assert receive.recv() == want
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
