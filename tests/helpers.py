"""Shared test helpers, imported explicitly by test modules.

Helpers live here — not in ``conftest.py`` — because pytest imports every
``conftest.py`` under a top-level module name: with both ``tests/`` and
``benchmarks/`` carrying one, ``from conftest import ...`` resolves to
whichever directory was collected first and breaks repo-root runs.  A
uniquely-named module has no such collision.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.costs import build_mrf
from repro.mrf.graph import PairwiseMRF
from repro.mrf.vectorized import MRFArrays

__all__ = ["make_random_mrf", "object_pipeline"]


def make_random_mrf(
    nodes: int,
    edge_probability: float,
    max_labels: int,
    seed: int,
    tree: bool = False,
) -> PairwiseMRF:
    """A random small MRF with non-negative costs.

    With ``tree=True`` the edge set is a random spanning tree, on which
    TRW-S is exact.
    """
    rng = random.Random(seed)
    mrf = PairwiseMRF()
    label_counts = [rng.randint(2, max_labels) for _ in range(nodes)]
    for count in label_counts:
        mrf.add_node([rng.uniform(0.0, 2.0) for _ in range(count)])
    if tree:
        for node in range(1, nodes):
            parent = rng.randrange(node)
            matrix = np.array(
                [
                    [rng.uniform(0.0, 1.0) for _ in range(label_counts[node])]
                    for _ in range(label_counts[parent])
                ]
            )
            mrf.add_edge(parent, node, matrix)
    else:
        for i in range(nodes):
            for j in range(i + 1, nodes):
                if rng.random() < edge_probability:
                    matrix = np.array(
                        [
                            [rng.uniform(0.0, 1.0) for _ in range(label_counts[j])]
                            for _ in range(label_counts[i])
                        ]
                    )
                    mrf.add_edge(i, j, matrix)
    return mrf


def object_pipeline(
    network,
    similarity,
    solver: str = "trws",
    shards=None,
    zones=None,
    constraints=None,
    **solver_options,
):
    """The classic object pipeline, as an oracle for ``diversify``.

    ``build_mrf`` → ``MRFArrays(build.mrf)`` → ``solve_plan`` (a zone
    partition through ``ShardedSolver``; ``shards="cut"`` through
    ``DualDecompositionSolver().solve(build.mrf)``), decoded with
    ``build.labels_to_assignment``.  Returns ``(build, result,
    assignment)``; comparing it with ``diversify`` keeps the object and
    compiled pipelines in agreement.
    """
    from repro.mrf.dual import DualDecompositionSolver
    from repro.mrf.partition import split_components, zone_groups
    from repro.mrf.sharded import ShardedSolver, solve_plan

    build = build_mrf(network, similarity, constraints=constraints)
    if shards == "cut":
        result = DualDecompositionSolver(
            solver=solver, **solver_options
        ).solve(build.mrf)
    elif shards == "zones":
        plan = MRFArrays(build.mrf)
        partition = split_components(
            plan, groups=zone_groups(build.variables, zones)
        )
        result = ShardedSolver(solver=solver, **solver_options).solve_arrays(
            plan, partition=partition
        )
    else:
        result = solve_plan(MRFArrays(build.mrf), solver=solver, **solver_options)
    return build, result, build.labels_to_assignment(network, result.labels)
