"""Table 1: simulation settings (GV100 + GPS structures)."""

from conftest import run_figure

from repro.harness.report import format_table
from repro.units import fmt_bytes


def test_table1_simulation_settings(benchmark):
    result = run_figure(benchmark, "table1")
    gpu, gps = result["gpu"], result["gps"]
    rows = [
        ["Cache block size", fmt_bytes(gpu["cache_block_bytes"])],
        ["Global memory", fmt_bytes(gpu["global_memory_bytes"])],
        ["Streaming multiprocessors (SM)", gpu["streaming_multiprocessors"]],
        ["CUDA cores/SM", gpu["cuda_cores_per_sm"]],
        ["L2 cache size", fmt_bytes(gpu["l2_cache_bytes"])],
        ["Warp size", gpu["warp_size"]],
        ["Maximum threads per SM", gpu["max_threads_per_sm"]],
        ["Maximum threads per CTA", gpu["max_threads_per_cta"]],
        ["Remote write queue", f"{gps['remote_write_queue_entries']} entries"],
        ["Remote write queue entry size", f"{gps['remote_write_queue_entry_bytes']} bytes"],
        ["TLB", f"{gps['tlb_assoc']}-way set associative"],
        ["TLB size", f"{gps['tlb_entries']} entries"],
        ["Virtual address", f"{gps['virtual_address_bits']} bits"],
        ["Physical address", f"{gps['physical_address_bits']} bits"],
    ]
    print()
    print(format_table(["parameter", "value"], rows, title="Table 1: simulation settings"))

    # Exact Table 1 values.
    assert gpu["cache_block_bytes"] == 128
    assert gpu["global_memory_bytes"] == 16 * 1024**3
    assert gpu["streaming_multiprocessors"] == 80
    assert gpu["cuda_cores_per_sm"] == 64
    assert gpu["l2_cache_bytes"] == 6 * 1024**2
    assert gpu["warp_size"] == 32
    assert gpu["max_threads_per_sm"] == 2048
    assert gpu["max_threads_per_cta"] == 1024
    assert gps["remote_write_queue_entries"] == 512
    assert gps["remote_write_queue_entry_bytes"] == 135
    assert gps["tlb_assoc"] == 8
    assert gps["tlb_entries"] == 32
    assert gps["virtual_address_bits"] == 49
    assert gps["physical_address_bits"] == 47
