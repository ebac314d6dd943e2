"""End-to-end acceptance: the full Table 2 suite through the service.

Submits all 8 workloads (two of them duplicated, exercising coalescing),
waits for every job to complete, and asserts the service's result payloads
byte-match direct ``run_many()`` output — the serving tier must be a pure
transport around the deterministic runner, never a source of drift.
"""

import json

from repro.harness.runner import SimJob, clear_run_cache, fleet_stats, run_many
from repro.workloads.registry import workload_names

FAST = dict(scale=0.1, iterations=2)
GPUS = 2
DUPLICATED = ("jacobi", "ct")


class TestEndToEnd:
    def test_all_workloads_round_trip_and_byte_match(self, live_service):
        client = live_service.client()
        names = list(workload_names())
        assert len(names) == 8
        submissions = names + list(DUPLICATED)

        jobs = [
            client.submit(name, gpus=GPUS, **FAST)
            for name in submissions
        ]
        payloads = [client.wait(job["id"], timeout=300) for job in jobs]

        # Every job completed with a full result payload.
        for job, payload in zip(jobs, payloads):
            assert payload["state"] == "done"
            assert payload["id"] == job["id"]
            assert payload["result"]["total_time"] > 0

        # Duplicated submissions coalesced (or hit the cache) and produced
        # byte-identical payloads to their originals.
        for name in DUPLICATED:
            original = json.dumps(payloads[names.index(name)]["result"], sort_keys=True)
            duplicate = json.dumps(payloads[submissions.index(name, 8)]["result"],
                                   sort_keys=True)
            assert original == duplicate
        metrics = client.metrics()
        assert (
            metrics["service.queue.coalesced"] + metrics["service.queue.cache_hits"]
            == len(DUPLICATED)
        )
        # Exactly 8 distinct simulations ran, not 10.
        assert metrics["service.runner.fleet.jobs_computed"] == 8

        # Byte-match against the direct in-process API on identical jobs.
        direct = run_many(
            [SimJob(name, "gps", GPUS, **FAST) for name in submissions],
            max_workers=1,
        )
        for payload, result in zip(payloads, direct):
            assert json.dumps(payload["result"], sort_keys=True) == json.dumps(
                result.to_dict(), sort_keys=True
            )
        # ... and the direct pass was served from the shared memo: the
        # service populated it, so nothing recomputed.
        assert fleet_stats().jobs_computed == 8
