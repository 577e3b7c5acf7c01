"""Property-based snapshot equivalence (hypothesis, import-gated).

Random campaign shapes × random cut points, always asserting the one
contract: restore + run-to-end reproduces the uninterrupted run's digest
and report exactly.  The module skips cleanly when hypothesis is not
installed — it is an optional dependency, never a hard one.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.snapshot_harness import BACKENDS, baseline, cut_and_resume  # noqa: E402

from repro.framework.campaign import FaultCampaignSpec  # noqa: E402

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def campaign_specs(draw):
    """Small random campaigns, faults optional, both reconfiguration modes."""
    faults = draw(st.booleans())
    kwargs = {}
    if faults:
        kwargs = dict(
            mtbf=draw(st.integers(min_value=2000, max_value=8000)),
            seu_rate=draw(st.one_of(st.none(), st.integers(1500, 6000))),
            retry_budget=draw(st.integers(min_value=1, max_value=5)),
            backoff_base=draw(st.sampled_from([0, 8, 32])),
        )
    return FaultCampaignSpec(
        nodes=draw(st.integers(min_value=5, max_value=25)),
        configs=draw(st.integers(min_value=3, max_value=12)),
        tasks=draw(st.integers(min_value=5, max_value=50)),
        partial=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        **kwargs,
    )


@_SETTINGS
@given(
    spec=campaign_specs(),
    backend=st.sampled_from(BACKENDS),
    cut_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_restore_then_finish_matches_uninterrupted(spec, backend, cut_frac):
    base = baseline(spec, backend)
    cut = round(cut_frac * base.event_count)
    digest, report = cut_and_resume(spec, backend, cut)
    assert digest == base.digest, f"spec={spec} backend={backend} cut={cut}"
    assert report == base.report, f"spec={spec} backend={backend} cut={cut}"


@_SETTINGS
@given(
    spec=campaign_specs(),
    cut=st.integers(min_value=0, max_value=300),
    resume_backend=st.sampled_from(BACKENDS),
)
def test_double_restore_idempotent_any_backend(spec, cut, resume_backend):
    """Two independent restores of the same logical cut agree exactly."""
    first = cut_and_resume(spec, "array", cut, resume_backend=resume_backend)
    second = cut_and_resume(spec, "array", cut, resume_backend=resume_backend)
    assert first == second
