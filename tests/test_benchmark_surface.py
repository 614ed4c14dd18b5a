"""The benchmark's three workloads, run at toy size against this tree.

``benchmarks/workloads.py`` drives the package through the CLI and through
the one-video names (``load_record``, ``load_all``, ``presample``,
``baseline_sample``, ``recognize_video``, ``evaluate_epoch``, ...). Each
workload is set up, prepared, run for one unit and checked, in-process
and untraced, so a change that breaks what the benchmark calls
fails tier-1. The module is imported as it is; ``benchmarks/run.py`` and
its measuring are not used, so nothing is written outside the test's
temporary directory.
"""

import os
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")
sys.path.insert(0, BENCHMARKS)
try:
    import workloads
finally:
    sys.path.remove(BENCHMARKS)

TOY = workloads.Scale(classes=3, videos_per_class=12, val_videos_per_class=6,
                      frames=16, dim=16, batch_size=4, k_list=(2, 4),
                      unit_epochs=4, setup_epochs=1, sample_lengths=(8, 32),
                      sample_videos_per_class=2, sample_passes=1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_unit_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), seed=0, scale=TOY)
    workload.setup(0)
    workload.prepare()
    workload.run_unit()
    workload.check()
    assert workload.errors == {}
    assert len(workload.units) == 1 and len(workload.seconds) >= 1
