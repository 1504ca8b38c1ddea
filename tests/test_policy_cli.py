"""The ``p4bid policy`` verbs: exit codes, JSON shapes, determinism."""

import json

import pytest

from repro.lattice import get_lattice
from repro.policy import PolicyEngine, replay
from repro.policy.cli import policy_main
from repro.synth import policy_traffic, scenario_universe
from repro.tool.cli import main

SMALL = [
    "--subjects", "6",
    "--datasets", "8",
    "--events", "80",
    "--revoke-every", "25",
    "--seed", "0",
]


class TestCheck:
    def test_exit_zero_and_summary(self, capsys):
        assert policy_main(["check", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "checks/sec" in out and "policy-mini" in out

    def test_json_payload(self, capsys):
        assert policy_main(["check", "--json", "--log", *SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lattice"] == "policy-mini"
        assert payload["events"] == 80
        assert payload["decisions"] == len(payload["log"])
        assert set(payload["latency_us"]) == {"mean", "p50", "p95", "p99", "max"}

    def test_log_matches_the_oracle(self, capsys):
        assert policy_main(["check", "--json", "--log", *SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "backend" not in payload
        universe = scenario_universe(
            get_lattice("policy-mini"), subjects=6, datasets=8, seed=0
        )
        stream = policy_traffic(universe, events=80, revoke_every=25, seed=0)
        # The library replay spells the same log, and every verdict in it
        # is the object lattice's ``demand ⊑ bound``.
        engine = PolicyEngine(universe)
        assert payload["log"] == replay(engine, stream).decision_log()
        oracle = scenario_universe(
            get_lattice("policy-mini"), subjects=6, datasets=8, seed=0
        )
        verdicts = []
        for event in stream:
            if event.regrant is not None:
                oracle.set_grant(*event.regrant)
                continue
            permit = oracle.lattice.leq(
                oracle.demand(event.request),
                oracle.effective_bound(event.request.dataset),
            )
            verdicts.append("PERMIT" if permit else "DENY")
        assert [line.split()[3] for line in payload["log"]] == verdicts

    def test_dispatched_from_p4bid_main(self, capsys):
        assert main(["policy", "check", *SMALL]) == 0
        assert "checks/sec" in capsys.readouterr().out


class TestExplain:
    def deny_uid(self, capsys):
        """A uid of the stream that is denied (the scenario mix has some)."""
        assert policy_main(["check", "--json", "--log", *SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        for line in payload["log"]:
            uid, _, rest = line.partition(" ")
            if " DENY " in f" {rest} " or " DENY " in line:
                return int(uid)
        pytest.fail("scenario stream produced no denies")

    def test_denied_request_prints_witness_chain(self, capsys):
        uid = self.deny_uid(capsys)
        assert policy_main(["explain", "--request", str(uid), *SMALL]) == 0
        out = capsys.readouterr().out
        assert "DENY" in out and "leak path" in out

    def test_deny_exit_flag(self, capsys):
        uid = self.deny_uid(capsys)
        assert (
            policy_main(["explain", "--request", str(uid), "--deny-exit", *SMALL])
            == 1
        )

    def test_json_shape(self, capsys):
        uid = self.deny_uid(capsys)
        assert policy_main(["explain", "--json", "--request", str(uid), *SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"]["permit"] is False
        assert payload["violated_subjects"]
        assert payload["witnesses"]

    def test_unknown_uid_is_usage_error(self, capsys):
        assert policy_main(["explain", "--request", "99999", *SMALL]) == 2
        assert "not a request" in capsys.readouterr().err


class TestUsageErrors:
    def test_non_policy_lattice(self, capsys):
        assert policy_main(["check", "--lattice", "two-point", *SMALL[2:]]) == 2
        assert "not a policy lattice" in capsys.readouterr().err

    def test_bad_sizes(self):
        with pytest.raises(SystemExit):
            policy_main(["check", "--subjects", "0"])
        with pytest.raises(SystemExit):
            policy_main(["check", "--revoke-every", "-1"])
        for rate in ("0", "-5", "nan"):
            with pytest.raises(SystemExit) as exc:
                policy_main(["check", "--rate", rate, *SMALL])
            assert exc.value.code == 2

    def test_verb_required(self):
        with pytest.raises(SystemExit):
            policy_main([])

    def test_no_implementation_selector(self):
        with pytest.raises(SystemExit):
            policy_main(["bench", *SMALL])
        with pytest.raises(SystemExit):
            policy_main(["check", "--backend", "graph", *SMALL])
