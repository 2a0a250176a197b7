"""Correctness checks: every operation's output against the library.

Each ``check_*`` returns ``None`` when the output is right and a short
reason otherwise.  References are computed in the benchmark process
through the library's public API, outside any timed region.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from perfbench.gen import CliConfig

# /score recomputation tolerance (relative), per machine score.
SCORE_RTOL = 1e-12
# Largest relative distance of a fit's quantization error from the
# exact-search value pinned for its data seed.
QE_RTOL = 0.01


def check_score(body: Mapping[str, Any], response: Mapping[str, Any]) -> str | None:
    """Recompute every machine score with ``repro.core.hierarchical``."""
    from repro.core.hierarchical import hierarchical_mean
    from repro.core.partition import Partition

    partition = Partition(body["partition"])
    expected = {
        machine: hierarchical_mean(scores, partition, mean=body["mean"])
        for machine, scores in body["measurements"].items()
    }
    try:
        breakdowns = response["breakdowns"]
        if set(breakdowns) != set(expected):
            return f"machines {sorted(breakdowns)} != {sorted(expected)}"
        for machine, score in expected.items():
            got = breakdowns[machine]["score"]
            if not math.isclose(got, score, rel_tol=SCORE_RTOL, abs_tol=0.0):
                return f"{machine}: score {got!r} != {score!r}"
        ranking = [name for name, _ in response["ranking"]]
    except (KeyError, TypeError, ValueError) as error:
        return f"malformed /score response: {error!r}"
    order = sorted(expected, key=lambda name: (-expected[name], name))
    if ranking != order:
        return f"ranking {ranking} != {order}"
    return None


def library_pipeline(characterization: str, machine: str | None, seed: int):
    """The pipeline ``repro-hmeans pipeline`` and ``/analyze`` build for a config."""
    from repro.analysis.pipeline import WorkloadAnalysisPipeline
    from repro.som.som import SOMConfig

    return WorkloadAnalysisPipeline(
        characterization=characterization,
        machine=machine,
        som_config=SOMConfig(rows=8, columns=8, seed=seed),
        seed=seed,
    )


def cli_expected(config: CliConfig) -> tuple[str, int]:
    """The HGM table and recommended k the CLI must print for ``config``."""
    from repro.viz.tables import format_hgm_table
    from repro.workloads.suite import BenchmarkSuite

    result = library_pipeline(config.characterization, config.machine, config.seed).run(
        BenchmarkSuite.paper_suite()
    )
    measured, plain = hgm_rows(result)
    return format_hgm_table(measured, plain=plain), result.recommended_clusters


def hgm_rows(result) -> tuple[dict[int, tuple[float, float]], tuple[float, float]]:
    """The rows and plain-mean footer of the table ``pipeline`` prints."""
    from repro.core.means import geometric_mean
    from repro.data.table3 import SPEEDUP_TABLE

    measured = {cut.clusters: (cut.scores["A"], cut.scores["B"]) for cut in result.cuts}
    plain = (
        geometric_mean(list(SPEEDUP_TABLE["A"].values())),
        geometric_mean(list(SPEEDUP_TABLE["B"].values())),
    )
    return measured, plain


def check_cli(stdout: str, expected: tuple[str, int]) -> str | None:
    """The CLI's table block and recommendation line against the library."""
    table, clusters = expected
    block, _, rest = stdout.partition("\n\n")
    if block != table:
        return "HGM table differs from the library run"
    line = f"recommended cluster count: {clusters}"
    if rest.splitlines()[:1] != [line]:
        return f"expected {line!r}"
    return None


def analyze_expected(body: Mapping[str, Any]) -> dict[str, Any]:
    """``analysis_result_to_dict`` of the library run, as JSON decodes it."""
    from repro.serialization import analysis_result_to_dict
    from repro.workloads.suite import BenchmarkSuite

    result = library_pipeline(
        body["characterization"], body.get("machine"), body["seed"]
    ).run(BenchmarkSuite.paper_suite())
    return json.loads(json.dumps(analysis_result_to_dict(result)))


def check_analyze(response: Mapping[str, Any], expected: Mapping[str, Any]) -> str | None:
    """The ``/analyze`` result must equal the library's exported result."""
    if response.get("result") != expected:
        return "/analyze result differs from the library run"
    return None


def check_qe(qe: float, pinned: float) -> str | None:
    """A fit's quantization error within 1% of the pinned exact value."""
    if not math.isfinite(qe) or abs(qe - pinned) > QE_RTOL * pinned:
        return f"quantization error {qe!r} is not within 1% of {pinned!r}"
    return None
