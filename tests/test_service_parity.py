"""Randomized parity: service answers == direct pipeline answers.

The P3 acceptance suite: the mixed serving workload (every route of the
pipeline, seeded) is answered once through the concurrent service —
admission, coalescing, worker threads and all — and once by direct
``SolverPipeline.solve`` calls; the answers must agree instance by
instance, down to the assignment and the winning strategy.
"""

from __future__ import annotations

import asyncio

from _workloads import mixed_service_workload

from repro.core.pipeline import SolverPipeline
from repro.service import ServiceConfig, SolveService
from repro.structures.homomorphism import is_homomorphism


def test_service_matches_direct_solve_on_mixed_workload():
    # 13 variants x 8 families = 104 seeded instances, >= the 100 the
    # acceptance criteria ask for; smaller clique sizes keep the heavy
    # tail short enough for the unit suite.
    instances = mixed_service_workload(
        seed=42, variants=13, clique_sizes=(3, 4)
    )
    assert len(instances) >= 100

    config = ServiceConfig(thread_workers=4)

    async def drive():
        async with SolveService(config) as service:
            return await service.submit_many(
                (source, target) for _label, source, target in instances
            )

    served = asyncio.run(drive())

    pipeline = SolverPipeline()
    for (label, source, target), solution in zip(instances, served):
        direct = pipeline.solve(source, target)
        assert solution.exists == direct.exists, label
        assert solution.strategy == direct.strategy, label
        assert solution.homomorphism == direct.homomorphism, label
        if solution.exists:
            assert is_homomorphism(solution.homomorphism, source, target)
