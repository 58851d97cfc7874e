"""Tests for the vectorized conflict-free replay kernel.

Covers the three claims the kernel rests on:

* the greedy partitioner never places two samples sharing a user or a
  service into the same block, covers every sample exactly once, and keeps
  per-entity draw order across blocks (hypothesis property tests);
* the vectorized kernel is statistically indistinguishable from the scalar
  reference — same seeded stream, same replay budget, matching relative
  error and factors;
* the supporting machinery (batched weight updates, the store's cached
  normalized values and entity indices) matches its sequential counterpart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveMatrixFactorization,
    AdaptiveWeights,
    AMFConfig,
    iter_conflict_free_blocks,
    partition_conflict_free,
)
from repro.core.amf import _SampleStore
from repro.datasets.schema import QoSRecord

id_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=0,
    max_size=200,
)


class TestPartitioner:
    @given(pairs=id_pairs)
    @settings(max_examples=200, deadline=None)
    def test_blocks_are_conflict_free_and_cover_every_sample(self, pairs):
        users = np.array([u for u, _ in pairs], dtype=np.intp)
        services = np.array([s for _, s in pairs], dtype=np.intp)
        blocks = partition_conflict_free(users, services)
        assert blocks.shape == users.shape
        for block_id in np.unique(blocks):
            member = blocks == block_id
            block_users = users[member]
            block_services = services[member]
            # No user and no service appears twice within one block.
            assert len(np.unique(block_users)) == block_users.size
            assert len(np.unique(block_services)) == block_services.size

    @given(pairs=id_pairs)
    @settings(max_examples=200, deadline=None)
    def test_per_entity_draw_order_is_preserved(self, pairs):
        """Samples sharing an entity land in strictly increasing blocks."""
        users = np.array([u for u, _ in pairs], dtype=np.intp)
        services = np.array([s for _, s in pairs], dtype=np.intp)
        blocks = partition_conflict_free(users, services).tolist()
        last_seen: dict[tuple[str, int], int] = {}
        for k, block in enumerate(blocks):
            for key in (("u", int(users[k])), ("s", int(services[k]))):
                if key in last_seen:
                    assert block > last_seen[key]
                last_seen[key] = block

    @given(pairs=id_pairs)
    @settings(max_examples=100, deadline=None)
    def test_block_ids_are_dense_from_zero(self, pairs):
        users = np.array([u for u, _ in pairs], dtype=np.intp)
        services = np.array([s for _, s in pairs], dtype=np.intp)
        blocks = partition_conflict_free(users, services)
        if blocks.size:
            assert blocks.min() == 0
            assert set(np.unique(blocks).tolist()) == set(range(blocks.max() + 1))

    @given(pairs=id_pairs)
    @settings(max_examples=100, deadline=None)
    def test_iter_blocks_yields_a_permutation(self, pairs):
        users = np.array([u for u, _ in pairs], dtype=np.intp)
        services = np.array([s for _, s in pairs], dtype=np.intp)
        chunks = list(iter_conflict_free_blocks(users, services))
        covered = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
        assert sorted(covered.tolist()) == list(range(users.size))
        for chunk in chunks:
            assert len(np.unique(users[chunk])) == chunk.size
            assert len(np.unique(services[chunk])) == chunk.size

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            partition_conflict_free([0, 1], [0])

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError, match="tables"):
            partition_conflict_free([0], [0], tables="list")

    @given(pairs=id_pairs)
    @settings(max_examples=200, deadline=None)
    def test_dense_and_dict_tables_agree(self, pairs):
        """Both bookkeeping structures must produce identical schedules."""
        users = np.array([u for u, _ in pairs], dtype=np.intp)
        services = np.array([s for _, s in pairs], dtype=np.intp)
        dense = partition_conflict_free(users, services, tables="dense")
        sparse = partition_conflict_free(users, services, tables="dict")
        auto = partition_conflict_free(users, services, tables="auto")
        np.testing.assert_array_equal(dense, sparse)
        np.testing.assert_array_equal(dense, auto)

    def test_sparse_large_ids_do_not_allocate_dense_tables(self):
        """Regression: one sample with user id 10**9 used to allocate a
        dense ``[-1] * (10**9 + 1)`` table (gigabytes) before scheduling.
        With dict tables the schedule completes instantly and keeps the
        conflict-free invariants."""
        rng = np.random.default_rng(3)
        users = rng.integers(0, 10**9, size=500)
        services = rng.integers(0, 10**9, size=500)
        blocks = partition_conflict_free(users, services)
        assert blocks.shape == (500,)
        for block_id in np.unique(blocks):
            member = blocks == block_id
            assert len(np.unique(users[member])) == int(member.sum())
            assert len(np.unique(services[member])) == int(member.sum())

    def test_auto_picks_dense_for_compact_ids(self):
        # Indirect but cheap check: dense and auto agree on compact ids
        # (the parity property above) and auto stays fast on huge ids
        # (the regression above); here we just pin the threshold contract.
        users = list(range(100))
        services = list(range(100))
        blocks = partition_conflict_free(users, services, tables="auto")
        assert blocks.tolist() == [0] * 100


def _drive(kernel: str, *, seed: int = 11, epochs: int = 12):
    """Observe a seeded stream, then replay with the requested kernel."""
    model = AdaptiveMatrixFactorization(
        AMFConfig.for_response_time(kernel=kernel), rng=seed
    )
    rng = np.random.default_rng(seed)
    n_samples = 600
    users = rng.integers(0, 40, n_samples)
    services = rng.integers(0, 60, n_samples)
    values = rng.random(n_samples) * 19.0 + 0.05
    for k in range(n_samples):
        model.observe(
            QoSRecord(
                timestamp=0.0,
                user_id=int(users[k]),
                service_id=int(services[k]),
                value=float(values[k]),
            )
        )
    for _ in range(epochs):
        model.replay_many(0.0, model.n_stored_samples)
    return model


class TestKernelParity:
    def test_kernels_converge_to_indistinguishable_error(self):
        """Same seeded stream + budget => statistically identical MRE.

        The kernels consume identical RNG draws, and conflict-free blocks
        commute, so the trained states differ only by floating-point
        summation order.
        """
        scalar = _drive("scalar")
        vectorized = _drive("vectorized")
        scalar_error = scalar.training_error()
        vectorized_error = vectorized.training_error()
        assert scalar_error == pytest.approx(vectorized_error, rel=1e-6)
        np.testing.assert_allclose(
            scalar.predict_matrix(), vectorized.predict_matrix(), rtol=1e-5, atol=1e-7
        )
        assert scalar.updates_applied == vectorized.updates_applied

    def test_replay_many_returns_matching_counters(self):
        scalar = _drive("scalar", epochs=0)
        vectorized = _drive("vectorized", epochs=0)
        applied_s, expired_s, error_s = scalar.replay_many(0.0, 500)
        applied_v, expired_v, error_v = vectorized.replay_many(0.0, 500)
        assert applied_s == applied_v
        assert expired_s == expired_v == 0
        assert error_s == pytest.approx(error_v, rel=1e-9)

    def test_vectorized_discards_expired_samples(self):
        model = _drive("vectorized", epochs=0)
        stored = model.n_stored_samples
        expiry = model.config.expiry_seconds
        applied, expired, __ = model.replay_many(expiry + 1.0, 4 * stored)
        assert applied == 0
        assert expired > 0
        assert model.n_stored_samples == stored - expired

    def test_kernel_override_beats_config(self):
        model = _drive("scalar", epochs=0)
        applied, __, error = model.replay_many(0.0, 64, kernel="vectorized")
        assert applied == 64
        assert np.isfinite(error)

    @pytest.mark.parametrize("name", ["simd", "parallel"])
    def test_invalid_kernel_rejected(self, name):
        model = _drive("scalar", epochs=0)
        with pytest.raises(ValueError, match="kernel"):
            model.replay_many(0.0, 10, kernel=name)
        with pytest.raises(ValueError, match="kernel"):
            AMFConfig.for_response_time(kernel=name)


class TestObserveMany:
    def test_matches_sequential_observe(self):
        """Batched weight updates == sequential, given unique ids per batch."""
        sequential = AdaptiveWeights(beta=0.3)
        batched = AdaptiveWeights(beta=0.3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            users = rng.permutation(30)[:8]
            services = rng.permutation(40)[:8]
            errors = rng.random(8) * 2.0
            expected = np.array(
                [
                    sequential.observe(int(u), int(s), float(e))
                    for u, s, e in zip(users, services, errors)
                ]
            )
            w_u, w_s = batched.observe_many(users, services, errors)
            np.testing.assert_allclose(w_u, expected[:, 0], rtol=1e-12)
            np.testing.assert_allclose(w_s, expected[:, 1], rtol=1e-12)
        np.testing.assert_allclose(
            sequential.user_error_snapshot(), batched.user_error_snapshot()
        )
        np.testing.assert_allclose(
            sequential.service_error_snapshot(), batched.service_error_snapshot()
        )

    def test_rejects_mismatched_lengths(self):
        weights = AdaptiveWeights()
        with pytest.raises(ValueError):
            weights.observe_many([0, 1], [0], [0.5, 0.5])

    def test_rejects_negative_errors(self):
        weights = AdaptiveWeights()
        with pytest.raises(ValueError):
            weights.observe_many([0], [0], [-0.1])


class TestStoreKernelSupport:
    def test_norm_is_cached_at_put_time(self):
        store = _SampleStore()
        store.put(3, 4, 10.0, 1.5, 0.25)
        assert store.norm(3, 4) == 0.25
        assert store.get(3, 4) == (10.0, 1.5)

    def test_put_without_norm_defaults_to_nan(self):
        store = _SampleStore()
        store.put(0, 1, 0.0, 2.0)
        assert np.isnan(store.norm(0, 1))

    def test_columns_align_after_discards(self):
        store = _SampleStore()
        for k in range(10):
            store.put(k, k + 100, float(k), float(k) / 10.0, float(k) / 100.0)
        store.discard(0, 100)
        store.discard(5, 105)
        users, services, timestamps, values, norms = store.columns()
        assert len(store) == 8
        for position, key in enumerate(store.keys()):
            assert (int(users[position]), int(services[position])) == key
            assert timestamps[position] == float(key[0])
            assert values[position] == key[0] / 10.0
            assert norms[position] == key[0] / 100.0

    def test_drop_user_and_service_use_indices(self):
        store = _SampleStore()
        for u in range(4):
            for s in range(5):
                store.put(u, s, 0.0, 1.0, 0.1)
        assert store.drop_user(2) == 5
        assert all(key[0] != 2 for key in store.keys())
        assert store.drop_service(3) == 3  # user 2's copy already gone
        assert all(key[1] != 3 for key in store.keys())
        assert len(store) == 12
        # Index stays consistent: dropping again is a no-op.
        assert store.drop_user(2) == 0
        assert store.drop_service(3) == 0

    def test_purge_expired_single_sweep(self):
        store = _SampleStore()
        for k in range(20):
            store.put(k, 0 if k % 2 else 1, float(k), 1.0, 0.1)
        dropped = store.purge_expired(now=25.0, expiry_seconds=10.0)
        assert dropped == 16  # timestamps 0..14 are stale (25 - t >= 10)
        assert len(store) == 4
        assert sorted(key[0] for key in store.keys()) == [16, 17, 18, 19]
        users, services, timestamps, __, __ = store.columns()
        for position, key in enumerate(store.keys()):
            assert (int(users[position]), int(services[position])) == key
            assert timestamps[position] >= 16.0
