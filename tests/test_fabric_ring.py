"""Consistent-hash ring: balance, minimal remapping, router/engine
shard-key agreement for every request type."""

import pytest

from repro.engine import RequestError, shard_key
from repro.fabric.ring import DEFAULT_VNODES, HashRing, stable_hash

KEYS = [f"key-{i}" for i in range(5000)]


class TestStableHash:
    def test_process_stable(self):
        # sha256-derived, so these values can never drift across runs
        # (Python's salted hash() must not be used for routing).
        assert stable_hash("") == int.from_bytes(
            bytes.fromhex("e3b0c44298fc1c14"), "big"
        )
        assert stable_hash("a") != stable_hash("b")

    def test_64_bit_range(self):
        for key in ("", "a", "key-123", "x" * 999):
            assert 0 <= stable_hash(key) < 2**64


class TestMembership:
    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().route("anything")

    def test_route_order_empty(self):
        assert HashRing().route_order("anything") == []

    def test_add_remove_roundtrip(self):
        ring = HashRing(["0", "1", "2"])
        assert len(ring) == 3 and "1" in ring
        ring.remove("1")
        assert len(ring) == 2 and "1" not in ring
        ring.add("1")
        assert ring.members == ["0", "1", "2"]

    def test_add_is_idempotent(self):
        ring = HashRing(["0"])
        points = ring.snapshot()["points"]
        ring.add("0")
        assert ring.snapshot()["points"] == points

    def test_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestRouting:
    def test_route_is_deterministic_across_instances(self):
        a = HashRing(["0", "1", "2"])
        b = HashRing(["2", "0", "1"])  # different insertion order
        for key in KEYS[:500]:
            assert a.route(key) == b.route(key)

    def test_route_order_starts_at_owner(self):
        ring = HashRing(["0", "1", "2"])
        for key in KEYS[:200]:
            order = ring.route_order(key)
            assert order[0] == ring.route(key)
            assert sorted(order) == ["0", "1", "2"]

    def test_route_order_limit(self):
        ring = HashRing(["0", "1", "2", "3"])
        assert len(ring.route_order("k", limit=2)) == 2

    def test_route_order_memo_follows_the_ring(self):
        ring = HashRing(["0", "1"])
        order = ring.route_order("k")
        assert ring.route_order("k") is order  # memoized
        ring.remove(order[0])
        assert ring.route_order("k") == order[1:]
        ring.add(order[0])
        assert ring.route_order("k") == order

    def test_failover_matches_removal(self):
        # The 2nd member in route_order is exactly where the key lands
        # if its owner leaves — the router's reroute is consistent with
        # a membership change.
        ring = HashRing(["0", "1", "2"])
        for key in KEYS[:300]:
            first, second = ring.route_order(key, limit=2)
            shrunk = HashRing(["0", "1", "2"])
            shrunk.remove(first)
            assert shrunk.route(key) == second


class TestBalance:
    def test_share_bound(self):
        ring = HashRing(["0", "1", "2"], vnodes=DEFAULT_VNODES)
        counts = {m: 0 for m in ring.members}
        for key in KEYS:
            counts[ring.route(key)] += 1
        mean = len(KEYS) / len(counts)
        for member, count in counts.items():
            assert count > 0.5 * mean, (member, counts)
            assert count < 1.6 * mean, (member, counts)


class TestMinimalRemapping:
    def test_join_only_moves_to_the_new_member(self):
        before = HashRing(["0", "1", "2"])
        after = HashRing(["0", "1", "2", "3"])
        moved = 0
        for key in KEYS:
            src, dst = before.route(key), after.route(key)
            if src != dst:
                assert dst == "3"  # keys only ever move TO the joiner
                moved += 1
        # Expected share ~1/4; consistent hashing keeps it near that,
        # far below the ~3/4 a mod-N scheme would reshuffle.
        assert 0.10 * len(KEYS) < moved < 0.45 * len(KEYS)

    def test_leave_only_moves_the_leavers_keys(self):
        before = HashRing(["0", "1", "2"])
        after = HashRing(["0", "2"])
        for key in KEYS:
            src = before.route(key)
            if src != "1":
                assert after.route(key) == src  # survivors keep keys


VALID_PAYLOADS = [
    ("/predict", {"stencil": "3d7pt"}),
    ("/predict", {"stencil": "3d7pt", "grid": [32, 32, 32], "trace": True}),
    ("/tune", {"stencil": "3d7pt", "tuner": "ecm"}),
    (
        "/tune",
        {"stencil": "3d25pt", "grid": [24, 24, 32], "predictor": "simulate"},
    ),
    ("/rank", {"method": "radau_iia", "grid": [16, 16, 32]}),
    ("/rank", {"method": "lobatto_iiia", "validate": False, "seed": 3}),
]


class TestShardKeyAgreement:
    """The router and the engine must agree on what identifies a
    request — these pin the contract the fabric's cache locality
    rests on."""

    @pytest.mark.parametrize("endpoint,payload", VALID_PAYLOADS)
    def test_defaults_do_not_fork_routes(self, endpoint, payload):
        # Omitted fields normalize to defaults: an explicit default
        # must shard identically to an omitted one.
        from repro.service.jobs import JOBS

        normalizer, _ = JOBS[endpoint]
        explicit = normalizer(payload)
        assert shard_key(endpoint, payload) == shard_key(endpoint, explicit)

    @pytest.mark.parametrize("endpoint,payload", VALID_PAYLOADS)
    def test_execution_only_knobs_do_not_fork_routes(
        self, endpoint, payload
    ):
        # trace / predictor ride outside the canonical payload in the
        # service; the shard key must ignore them the same way, or a
        # traced request would land on a different shard than its
        # untraced twin and miss the response cache.
        base = shard_key(endpoint, payload)
        decorated = dict(payload)
        decorated["trace"] = True
        assert shard_key(endpoint, decorated) == base

    def test_rank_shards_by_database_identity(self):
        # validate=true/false and block policies that fold to the same
        # TuningKey must co-locate: the validating request warms the
        # record the non-validating one reads.
        a = shard_key(
            "/rank", {"method": "radau_iia", "grid": [16, 16, 32]}
        )
        b = shard_key(
            "/rank",
            {"method": "radau_iia", "grid": [16, 16, 32], "validate": False},
        )
        assert a == b

    def test_distinct_requests_get_distinct_keys(self):
        keys = {shard_key(e, p) for e, p in VALID_PAYLOADS}
        assert len(keys) == len(VALID_PAYLOADS)

    def test_endpoints_are_namespaced(self):
        # /tune and /predict of the same stencil must not collide.
        assert shard_key("/predict", {"stencil": "3d7pt"}) != shard_key(
            "/tune", {"stencil": "3d7pt"}
        )

    def test_unknown_endpoint_raises(self):
        with pytest.raises(RequestError):
            shard_key("/nope", {})

    def test_bad_payload_raises(self):
        with pytest.raises(RequestError):
            shard_key("/predict", {"stencil": "no-such-stencil"})
