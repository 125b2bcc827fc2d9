"""Unit tests for the seeded RNG and for the FIFO queue the generator-agent
oracle (``tests/oracles/generator_agent.py``) is built on, run by its
``spawn``."""

from generator_agent import Queue, spawn

from repro.sim import SeededRandom, Simulator


def test_queue_put_then_get_delivers_item():
    sim = Simulator()
    queue = Queue(sim)
    received = []

    def consumer():
        item = yield queue.get()
        received.append(item)

    spawn(sim, consumer())
    queue.put("hello")
    sim.run()
    assert received == ["hello"]


def test_queue_get_blocks_until_put():
    sim = Simulator()
    queue = Queue(sim)
    received = []

    def consumer():
        item = yield queue.get()
        received.append((sim.now, item))

    spawn(sim, consumer())
    sim.schedule_callback(2.0, queue.put, "later")
    sim.run()
    assert received == [(2.0, "later")]


def test_queue_preserves_fifo_order():
    sim = Simulator()
    queue = Queue(sim)
    received = []

    def consumer():
        while True:
            item = yield queue.get()
            received.append(item)

    spawn(sim, consumer())
    for index in range(10):
        queue.put(index)
    sim.run()
    assert received == list(range(10))


def test_queue_get_nowait_and_len():
    sim = Simulator()
    queue = Queue(sim)
    assert queue.get_nowait() is None
    queue.put(1)
    queue.put(2)
    assert len(queue) == 2
    assert queue.get_nowait() == 1
    assert queue.snapshot() == [2]


def test_seeded_random_is_reproducible():
    first = SeededRandom(99)
    second = SeededRandom(99)
    assert [first.uniform(0, 1) for _ in range(5)] == [second.uniform(0, 1) for _ in range(5)]


def test_seeded_random_fork_is_deterministic_and_independent():
    parent_a = SeededRandom(1)
    parent_b = SeededRandom(1)
    child_a = parent_a.fork("traffic")
    child_b = parent_b.fork("traffic")
    other = parent_a.fork("switch")
    assert child_a.uniform(0, 1) == child_b.uniform(0, 1)
    assert other.seed != child_a.seed


def test_jitter_within_bounds():
    rng = SeededRandom(3)
    for _ in range(100):
        value = rng.jitter(10.0, 0.1)
        assert 9.0 <= value <= 11.0


def test_jitter_zero_fraction_returns_base():
    assert SeededRandom(3).jitter(5.0, 0.0) == 5.0


def test_shuffle_returns_new_permutation_of_same_items():
    rng = SeededRandom(5)
    items = list(range(20))
    shuffled = rng.shuffle(items)
    assert sorted(shuffled) == items
    assert items == list(range(20))  # original untouched

