import json
import random
from pathlib import Path

from bench import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_request_sequence_is_seeded_and_covers_the_pool():
    size = workloads.SIZES["full"]
    pool = workloads.service_pool(size)
    assert len(pool) == 64

    def draw(seed, round_index):
        return workloads.request_sequence(
            pool, size.service_requests, workloads.rng_for(seed, round_index)
        )

    first = draw(7, 0)
    assert first == draw(7, 0)
    assert first != draw(8, 0)
    assert first != draw(7, 1)
    assert len(first) == size.service_requests
    labels = {workloads.body_label(b) for b in first}
    assert labels == {workloads.body_label(b) for b in pool}


def test_preseeded_third_is_fixed():
    pool = workloads.service_pool(workloads.SIZES["full"])
    seeded = workloads.preseeded(pool)
    assert len(seeded) == 22
    assert seeded == workloads.preseeded(list(pool))


def test_digest_ignores_order_but_not_content():
    pairs = [(f"app{i}/gps", json.dumps({"t": i})) for i in range(20)]
    shuffled = list(pairs)
    random.Random(3).shuffle(shuffled)
    assert workloads.digest(pairs) == workloads.digest(shuffled)
    changed = list(pairs)
    changed[4] = (changed[4][0], json.dumps({"t": -1}))
    assert workloads.digest(changed) != workloads.digest(pairs)
    relabeled = list(pairs)
    relabeled[4] = ("other", relabeled[4][1])
    assert workloads.digest(relabeled) != workloads.digest(pairs)


def test_grid_sizes_and_unique_labels():
    size = workloads.SIZES["full"]
    fig08 = workloads.grid_jobs("fig08-cold", size)
    sweep = workloads.grid_jobs("gps-sweep", size)
    assert len(fig08) == 56
    assert len(sweep) == 144
    for jobs in (fig08, sweep):
        assert len({label for label, _ in jobs}) == len(jobs)
        assert len({job.key() for _, job in jobs}) == len(jobs)


def test_grid_order_is_a_seeded_permutation():
    jobs = workloads.grid_jobs("fig08-pool", workloads.SIZES["smoke"])
    a, b = list(jobs), list(jobs)
    workloads.rng_for(1, 0).shuffle(a)
    workloads.rng_for(1, 0).shuffle(b)
    assert [label for label, _ in a] == [label for label, _ in b]
    assert sorted(label for label, _ in a) == sorted(label for label, _ in jobs)


def test_golden_covers_every_workload_and_size():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    for size in workloads.SIZES:
        assert set(golden[size]) == set(workloads.WORKLOADS)
    # Pooled and serial runs of one grid must produce identical results.
    for size in workloads.SIZES:
        assert golden[size]["fig08-cold"] == golden[size]["fig08-pool"]
