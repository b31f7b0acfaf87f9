"""Tests for the policy registry and spec parsing."""

import pytest

from repro.core import WorkloadError
from repro.online import (
    MEDFPolicy,
    MRSFPolicy,
    SEDFPolicy,
    available_policies,
    make_policy,
    parse_policy_spec,
)


class TestMakePolicy:
    def test_canonical_names(self):
        assert isinstance(make_policy("S-EDF"), SEDFPolicy)
        assert isinstance(make_policy("MRSF"), MRSFPolicy)
        assert isinstance(make_policy("M-EDF"), MEDFPolicy)

    def test_case_insensitive(self):
        assert isinstance(make_policy("mrsf"), MRSFPolicy)

    def test_dash_free_aliases(self):
        assert isinstance(make_policy("sedf"), SEDFPolicy)
        assert isinstance(make_policy("medf"), MEDFPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError, match="unknown policy"):
            make_policy("OPTIMAL")

    def test_available_policies_lists_paper_policies(self):
        names = available_policies()
        assert {"S-EDF", "MRSF", "M-EDF"} <= set(names)

    def test_all_available_policies_constructible(self):
        for name in available_policies():
            policy = make_policy(name)
            assert policy.name


class TestParsePolicySpec:
    def test_preemptive_suffix(self):
        policy, preemptive = parse_policy_spec("MRSF(P)")
        assert isinstance(policy, MRSFPolicy)
        assert preemptive

    def test_non_preemptive_suffix(self):
        policy, preemptive = parse_policy_spec("S-EDF(NP)")
        assert isinstance(policy, SEDFPolicy)
        assert not preemptive

    def test_bare_name_defaults_preemptive(self):
        _policy, preemptive = parse_policy_spec("M-EDF")
        assert preemptive

    def test_whitespace_tolerated(self):
        policy, preemptive = parse_policy_spec("  MRSF(NP) ")
        assert isinstance(policy, MRSFPolicy)
        assert not preemptive

    @pytest.mark.parametrize("spec, name, preemptive", [
        ("mrsf(np)", "MRSF", False), ("S-EDF(np)", "S-EDF", False),
        ("m-edf(Np)", "M-EDF", False), ("Coverage(p)", "Coverage", True),
        ("anti-mrsf(nP)", "anti-MRSF", False), ("lff (P)", "LFF", True)])
    def test_the_suffix_is_case_insensitive_like_the_name(
            self, spec, name, preemptive):
        policy, got = parse_policy_spec(spec)
        assert (policy.name, got) == (name, preemptive)

    @pytest.mark.parametrize("spec", ["MRSF(X)", "S-EDF(pn)", "MRSF(NP",
                                      "M-EDF()"])
    def test_other_suffixes_are_refused_with_a_message(self, spec):
        with pytest.raises(WorkloadError,
                           match=r"expected a \(P\) or \(NP\) suffix"):
            parse_policy_spec(spec)
