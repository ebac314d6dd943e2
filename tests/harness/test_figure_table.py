"""The figure table: pinned payloads, one grid per request, paper settings by default."""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.harness import experiments
from repro.harness.export import to_json
from repro.harness.runner import clear_run_cache
from repro.obs.host import HOST

SMALL = dict(scale=0.1, iterations=2, workloads=["jacobi", "ct"])

#: SHA-256 of each artifact's sorted JSON at a small setting: figure name ->
#: (driver, keyword arguments, digest). Any change to a job grid or a reduce
#: that moves a number shows here.
PINNED = {
    "fig1": ("fig1_motivation", SMALL,
             "5204b4c9954153dee0781c05940664b7b3f928e02d7aa9c94671537a0c64ebdd"),
    "fig3": ("fig3_bandwidth_gap", {},
             "cd511630994a28bf8e4ec0c90ece5631a33d4989cafd19fe1e7c01cd1a187d60"),
    "fig8": ("fig8_end_to_end", SMALL,
             "5a6c22bab97780443fe65e3e5bc33edbe7a79a8b9f880da86cab97f82a8df533"),
    "fig9": ("fig9_subscriber_distribution", SMALL,
             "2355d29646253d7b4501f6df034cbd53513991d35c81d49c34643443a0e284cc"),
    "fig10": ("fig10_interconnect_traffic", SMALL,
              "a17a7c464668da7a2aef79a68d0b8f2a7e11fb4f45c680f8c7434219ad773a3b"),
    "fig11": ("fig11_subscription_benefit", SMALL,
              "a28ebb4f6c3e6505e482cac39ed1b00f70c8508b9f4b80c97ed5a59abe2e5cac"),
    "fig12": ("fig12_sixteen_gpus", SMALL,
              "e0fc5e63ac5996a47cb796024aba02e17b8d672da35e4e7e0994307c4cb0e38b"),
    "fig13": ("fig13_bandwidth_sensitivity", SMALL,
              "7211175265ece985a1fca3fe1bd1108b5da52c8db8ba3e25b1d096744c7e0ef6"),
    "fig14": ("fig14_write_queue_hit_rate", dict(scale=0.1, workloads=("jacobi", "ct")),
              "7b623345a02baf9f995497d29db66e0bbe9cea2a7a2027979e8098dbc11aab83"),
    "gps-tlb": ("gps_tlb_sensitivity", dict(scale=0.1, workloads=["jacobi", "ct"]),
                "40aa37101dbf467b298f147412abad38cff1cf37957c9e84033e167063a13054"),
    "page-size": ("page_size_sensitivity", SMALL,
                  "1f344932f0733ae49e5871aa71d3c5779f2bd0e2c305aa660c4aacd95ee686a0"),
    "table1": ("table1_simulation_settings", {},
               "67a559b11d33f2dba79bc0841c324bb58c6ad28fea97b84cb885d34b67559ef0"),
    "table2": ("table2_applications", {},
               "f08b1d1ed5fde7bc7a48e01f22e98df84c4d5c9992e7fd2fe9bc83b84179c32d"),
}


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
    clear_run_cache()
    yield
    clear_run_cache()


def test_every_payload_matches_its_pinned_digest(serial):
    digests = {}
    for name, (driver, kwargs, _) in PINNED.items():
        payload = getattr(experiments, driver)(**kwargs)
        digests[name] = hashlib.sha256(to_json(payload).encode()).hexdigest()
    assert digests == {name: digest for name, (_, _, digest) in PINNED.items()}


def test_a_union_is_one_run_many_and_each_figure_its_own_payload(serial):
    names = ["fig1", "fig8", "fig11", "fig13"]
    payloads = experiments.run_figures(names, **SMALL)
    assert HOST.counter("host.fleet.runs").value == 1
    computed = HOST.counter("host.fleet.jobs_computed").value
    for name in names:
        driver, _, _ = PINNED[name]
        assert getattr(experiments, driver)(**SMALL) == payloads[name], name
    # The second pass simulates nothing.
    assert HOST.counter("host.fleet.jobs_computed").value == computed


def test_an_override_no_figure_takes_is_rejected():
    with pytest.raises(TypeError, match="queue_size"):
        experiments.run_figures(["fig14"], queue_size=(16,))


class _Submitted(Exception):
    """Raised by the capturing ``run_many``: the grid is recorded, nothing simulates."""


@pytest.fixture
def submitted(monkeypatch):
    """Every ``run_many`` grid and every structure program the figures ask for."""
    calls: "list[list]" = []

    def capture(jobs, *args, **kwargs):
        calls.append(list(jobs))
        raise _Submitted

    monkeypatch.setattr(experiments, "run_many", capture)
    monkeypatch.setattr(experiments, "job_program", lambda job: capture([job]))
    return calls


@pytest.mark.parametrize(
    "argv, scale, iterations, gpus",
    [
        (["fig12"], 1.0, 32, {1, 16}),
        (["page-size"], 1.0, 8, {4}),
        (["fig9"], 1.0, 2, {4}),
        (["fig14", "--scale", "0.3"], 0.3, 2, {4}),
        (["gps-tlb", "--scale", "0.3"], 0.3, 2, {4}),
        (["fig8", "--scale", "0.5", "--iterations", "3"], 0.5, 3, {1, 4}),
    ],
)
def test_figure_runs_the_table_settings_unless_told(submitted, argv, scale, iterations, gpus):
    with pytest.raises(_Submitted):
        main(["figure", *argv])
    (jobs,) = submitted
    assert {job.scale for job in jobs} == {scale}
    assert {job.iterations for job in jobs} == {iterations}
    assert {job.num_gpus for job in jobs} == gpus


def test_figure_all_submits_the_whole_paper_as_one_grid(submitted):
    with pytest.raises(_Submitted):
        main(["figure", "all"])
    (jobs,) = submitted
    assert len(jobs) == 504
    assert len(set(jobs)) == 320
    assert len({job.program_key() for job in jobs}) == 48
